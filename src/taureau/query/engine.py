"""The serverless query engine (paper §4.1, Athena [68] / BigQuery [32]).

"Cloud providers have recently introduced a number of specialized
serverless compute platforms such as ... Amazon Athena [and] Google
BigQuery for analytic workloads."  Their shape: a query fans out one
scan task per table chunk; each task filters and partially aggregates;
a coordinator merges.  The user manages no servers and is billed *per
byte scanned* — predicate selectivity changes the answer, not the bill
(experiment E33 makes that visible).
"""

from __future__ import annotations

import dataclasses
import typing

from taureau.baas.blobstore import BlobStore
from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform
from taureau.query.sql import Query, SqlError, parse
from taureau.query.table import TableCatalog
from taureau.sim import MetricRegistry
from taureau.sketches import HyperLogLog

__all__ = ["QueryResult", "ServerlessQueryEngine"]

#: Simulated scan/aggregate throughput per task (cells per second).
_CELLS_PER_SECOND = 5e7
#: Athena's public list price, per TB scanned.
_PRICE_PER_TB_SCANNED = 5.0


@dataclasses.dataclass
class QueryResult:
    """Rows plus the receipt Athena-class engines attach."""

    columns: typing.List[str]
    rows: typing.List[tuple]
    scanned_mb: float
    scan_tasks: int
    wall_clock_s: float
    cost_usd: float


class ServerlessQueryEngine:
    """Parse → plan → fan out scans → merge, over blob-stored tables."""

    def __init__(self, platform: FaasPlatform, catalog: TableCatalog):
        self.platform = platform
        self.catalog = catalog
        self.metrics = MetricRegistry()
        self._scan_name = f"athena{next(platform.sim.ids('athena'))}-scan"
        self._register()

    def _register(self) -> None:
        engine = self

        def scan_task(event, ctx):
            blob: BlobStore = engine.catalog.blob
            chunk = blob.get(event["chunk_key"], ctx=ctx)
            query: Query = event["query"]
            rows = len(next(iter(chunk.values()))) if chunk else 0
            ctx.charge(rows * len(chunk) / _CELLS_PER_SECOND)
            matched = engine._filter(chunk, query)
            if query.is_aggregate:
                return {
                    "partials": engine._partial_aggregate(matched, query),
                    "scanned_mb": blob.size_mb(event["chunk_key"]),
                }
            columns = [item.column for item in query.items]
            return {
                "rows": [
                    tuple(row[column] for column in columns) for row in matched
                ],
                "scanned_mb": blob.size_mb(event["chunk_key"]),
            }

        self.platform.register(
            FunctionSpec(
                name=self._scan_name, handler=scan_task, memory_mb=1024,
                timeout_s=900,
            )
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def query_sync(self, text: str) -> QueryResult:
        """Run one query to completion."""
        return self.platform.sim.run(
            until=self.platform.sim.process(self._drive(parse(text)))
        )

    def _drive(self, query: Query):
        description = self.catalog.describe(query.table)
        for item in query.items:
            if item.column != "*" and item.column not in description["columns"]:
                raise SqlError(
                    f"unknown column {item.column!r} in {query.table!r}"
                )
        for condition in query.where:
            if condition.column not in description["columns"]:
                raise SqlError(
                    f"unknown column {condition.column!r} in WHERE"
                )
        started = self.platform.sim.now
        events = [
            self.platform.invoke(
                self._scan_name, {"chunk_key": key, "query": query}
            )
            for key in description["chunks"]
        ]
        records = yield self.platform.sim.all_of(events)
        failures = [record for record in records if not record.succeeded]
        if failures:
            raise RuntimeError(f"{len(failures)} scan tasks failed")
        scanned_mb = sum(record.response["scanned_mb"] for record in records)
        if query.is_aggregate:
            columns, rows = self._merge_aggregates(
                [record.response["partials"] for record in records], query
            )
        else:
            columns = [item.label for item in query.items]
            rows = [
                row for record in records for row in record.response["rows"]
            ]
        if query.order_by is not None:
            position = columns.index(query.order_by)
            rows.sort(key=lambda row: row[position], reverse=query.descending)
        if query.limit is not None:
            rows = rows[: query.limit]
        cost = scanned_mb / (1024.0 * 1024.0) * _PRICE_PER_TB_SCANNED
        self.metrics.counter("queries").add()
        self.metrics.counter("scanned_mb").add(scanned_mb)
        self.metrics.counter("scan_cost_usd").add(cost)
        return QueryResult(
            columns=columns,
            rows=rows,
            scanned_mb=scanned_mb,
            scan_tasks=len(events),
            wall_clock_s=self.platform.sim.now - started,
            cost_usd=cost,
        )

    # ------------------------------------------------------------------
    # Relational plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _filter(chunk: dict, query: Query) -> list:
        names = list(chunk)
        count = len(chunk[names[0]]) if names else 0
        rows = []
        for index in range(count):
            row = {name: chunk[name][index] for name in names}
            if all(cond.matches(row[cond.column]) for cond in query.where):
                rows.append(row)
        return rows

    @staticmethod
    def _partial_aggregate(rows: list, query: Query) -> dict:
        """Per-group partials: counts/sums/mins/maxes plus HLL sketches."""
        partials: dict = {}
        for row in rows:
            group = row[query.group_by] if query.group_by else None
            state = partials.setdefault(group, {})
            for item in query.items:
                if item.aggregate is None:
                    continue
                value = None if item.column == "*" else row[item.column]
                if item.aggregate == "APPROX_COUNT_DISTINCT":
                    sketch = state.get(item.label)
                    if sketch is None:
                        sketch = state[item.label] = HyperLogLog(precision=12)
                    sketch.add(value)
                    continue
                slot = state.setdefault(
                    item.label, {"count": 0, "sum": 0.0, "min": None, "max": None}
                )
                slot["count"] += 1
                if value is not None:
                    slot["sum"] += value
                    slot["min"] = value if slot["min"] is None else min(
                        slot["min"], value
                    )
                    slot["max"] = value if slot["max"] is None else max(
                        slot["max"], value
                    )
        return partials

    def _merge_aggregates(self, partial_sets: list, query: Query):
        merged: dict = {}
        for partials in partial_sets:
            for group, state in partials.items():
                target = merged.setdefault(group, {})
                for label, slot in state.items():
                    if isinstance(slot, HyperLogLog):
                        existing = target.get(label)
                        target[label] = (
                            slot if existing is None else existing.merge(slot)
                        )
                        continue
                    accumulator = target.setdefault(
                        label, {"count": 0, "sum": 0.0, "min": None, "max": None}
                    )
                    accumulator["count"] += slot["count"]
                    accumulator["sum"] += slot["sum"]
                    for key, chooser in (("min", min), ("max", max)):
                        if slot[key] is not None:
                            accumulator[key] = (
                                slot[key]
                                if accumulator[key] is None
                                else chooser(accumulator[key], slot[key])
                            )
        columns = [item.label for item in query.items]
        rows = []
        for group in sorted(merged, key=lambda value: (value is None, str(value))):
            state = merged[group]
            row = []
            for item in query.items:
                if item.aggregate is None:
                    row.append(group)
                    continue
                if item.aggregate == "APPROX_COUNT_DISTINCT":
                    sketch = state.get(item.label)
                    row.append(
                        int(round(sketch.cardinality())) if sketch else 0
                    )
                    continue
                slot = state.get(
                    item.label, {"count": 0, "sum": 0.0, "min": None, "max": None}
                )
                if item.aggregate == "COUNT":
                    row.append(slot["count"])
                elif item.aggregate == "SUM":
                    row.append(slot["sum"])
                elif item.aggregate == "AVG":
                    row.append(
                        slot["sum"] / slot["count"] if slot["count"] else None
                    )
                elif item.aggregate == "MIN":
                    row.append(slot["min"])
                else:
                    row.append(slot["max"])
            rows.append(tuple(row))
        return columns, rows
