"""A serverless transactional database (paper §4.1, "Database platforms").

Models an Aurora-Serverless-class engine: structured tables, richer
query semantics than a blob store, and — crucially — *transactions*.
The paper's observation: "since most FaaS platforms re-execute functions
transparently on failure, the transactional semantics offered by
serverless database services can be crucial for ensuring correctness".
Two features serve that directly:

- optimistic transactions with version validation at commit, so two
  concurrent (or duplicated) function attempts cannot both apply;
- idempotency tokens, so a re-executed function can detect that its
  first attempt already committed.
"""

from __future__ import annotations

import dataclasses
import typing

from taureau.baas.sizing import estimate_size_mb
from taureau.core.calibration import DEFAULT_CALIBRATION, Calibration
from taureau.core.function import journaled
from taureau.sim import MetricRegistry, Simulation

__all__ = ["TransactionConflict", "Row", "Transaction", "ServerlessDatabase"]


class TransactionConflict(Exception):
    """Commit-time validation failed: a read row changed underneath us."""


@dataclasses.dataclass
class Row:
    """A stored row and its version."""

    value: dict
    version: int


class Transaction:
    """An optimistic transaction: buffered writes, validated reads.

    Reads record the version they observed; writes are buffered locally.
    :meth:`ServerlessDatabase.commit` atomically validates every read
    version and applies every write, or raises
    :class:`TransactionConflict` and applies nothing.
    """

    def __init__(self, db: "ServerlessDatabase", ctx=None):
        self._db = db
        self._ctx = ctx
        self._read_versions: dict = {}
        self._writes: dict = {}
        self._deletes: set = set()
        self.committed = False

    def get(self, table: str, key: str) -> typing.Optional[dict]:
        """Read a row (your own buffered write wins), or ``None``."""
        address = (table, key)
        if address in self._deletes:
            return None
        if address in self._writes:
            return self._writes[address]
        row = self._db._row(table, key)
        self._read_versions[address] = row.version if row else 0
        self._db._charge(self._ctx, 0.0)
        return dict(row.value) if row else None

    def put(self, table: str, key: str, value: dict) -> None:
        if not isinstance(value, dict):
            raise TypeError("rows are dicts of column -> value")
        address = (table, key)
        self._deletes.discard(address)
        self._writes[address] = dict(value)

    def delete(self, table: str, key: str) -> None:
        address = (table, key)
        self._writes.pop(address, None)
        self._deletes.add(address)

    def commit(self) -> None:
        self._db.commit(self)


class ServerlessDatabase:
    """Tables of versioned rows with optimistic transactions."""

    def __init__(
        self,
        sim: Simulation,
        name: str = "db",
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.sim = sim
        self.name = name
        self.calibration = calibration
        self.metrics = MetricRegistry()
        self._tables: typing.Dict[str, typing.Dict[str, Row]] = {}
        self._idempotency_results: dict = {}

    # ------------------------------------------------------------------
    # Plain (auto-commit) operations
    # ------------------------------------------------------------------

    def create_table(self, table: str) -> None:
        if table in self._tables:
            raise ValueError(f"table {table!r} already exists")
        self._tables[table] = {}

    def tables(self) -> list:
        return sorted(self._tables)

    def get(self, table: str, key: str, ctx=None) -> typing.Optional[dict]:
        row = self._row(table, key)
        self._charge(ctx, estimate_size_mb(row.value) if row else 0.0)
        self.metrics.counter("reads").add()
        return dict(row.value) if row else None

    def put(self, table: str, key: str, value: dict, ctx=None) -> int:
        txn = self.transaction(ctx)
        txn.put(table, key, value)
        txn.commit()
        return self._row(table, key).version

    def delete(self, table: str, key: str, ctx=None) -> None:
        txn = self.transaction(ctx)
        # Register the read so the delete conflicts with concurrent writes.
        txn.get(table, key)
        txn.delete(table, key)
        txn.commit()

    def scan(
        self,
        table: str,
        predicate: typing.Optional[typing.Callable[[str, dict], bool]] = None,
        ctx=None,
    ) -> list:
        """All ``(key, row)`` pairs, optionally filtered, key-sorted."""
        rows = self._table(table)
        self._charge(ctx, sum(estimate_size_mb(r.value) for r in rows.values()))
        self.metrics.counter("scans").add()
        result = []
        for key in sorted(rows):
            value = dict(rows[key].value)
            if predicate is None or predicate(key, value):
                result.append((key, value))
        return result

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self, ctx=None) -> Transaction:
        return Transaction(self, ctx)

    def commit(self, txn: Transaction) -> None:
        # The commit is the atomic effect of a transaction, so it is the
        # unit the durable-execution journal dedups: a retried attempt
        # replays a journaled commit (validation and apply both skipped
        # — the first attempt already applied it) instead of writing
        # twice.  Auto-commit put/delete inherit this via their txn.
        label = (
            f"baas.db.{self.name}.commit:"
            f"{len(txn._writes)}w{len(txn._deletes)}d"
        )
        result = journaled(txn._ctx, label, lambda: self._commit(txn))
        # A replayed commit never ran in this attempt; reflect that the
        # transaction is settled (no-op after a real commit).
        txn.committed = True
        return result

    def _commit(self, txn: Transaction) -> None:
        if txn.committed:
            raise ValueError("transaction committed twice")
        # Validate: every row read must still be at its observed version.
        for (table, key), seen_version in txn._read_versions.items():
            row = self._row(table, key)
            current = row.version if row else 0
            if current != seen_version:
                self.metrics.counter("conflicts").add()
                raise TransactionConflict(
                    f"{table}/{key}: read v{seen_version}, now v{current}"
                )
        # Apply atomically.  Deletes are independent pops today, but the
        # sorted order keeps commit application total should any observer
        # (notification hook, metric) ever attach per-delete.
        for table, key in sorted(txn._deletes):
            self._table(table).pop(key, None)
        for (table, key), value in txn._writes.items():
            rows = self._table(table)
            previous = rows.get(key)
            rows[key] = Row(value, (previous.version + 1) if previous else 1)
        txn.committed = True
        self._charge(txn._ctx, 0.0)
        self.metrics.counter("commits").add()

    def run_transaction(
        self,
        body: typing.Callable[[Transaction], object],
        ctx=None,
        max_attempts: int = 10,
    ) -> object:
        """Run ``body(txn)`` with conflict-retry until commit succeeds."""
        for _attempt in range(max_attempts):
            txn = self.transaction(ctx)
            result = body(txn)
            try:
                txn.commit()
            except TransactionConflict:
                continue
            return result
        raise TransactionConflict(f"gave up after {max_attempts} attempts")

    # ------------------------------------------------------------------
    # Idempotency (correctness under transparent re-execution)
    # ------------------------------------------------------------------

    def execute_once(self, token: str, action: typing.Callable[[], object], ctx=None):
        """Run ``action`` exactly once per ``token``.

        A retried function attempt calling with the same token gets the
        memoized result instead of re-applying the side effect.
        """
        return journaled(
            ctx, f"baas.db.{self.name}.execute_once:{token}",
            lambda: self._execute_once(token, action, ctx),
        )

    def _execute_once(self, token, action, ctx):
        self._charge(ctx, 0.0)
        if token in self._idempotency_results:
            self.metrics.counter("idempotent_hits").add()
            return self._idempotency_results[token]
        result = action()
        self._idempotency_results[token] = result
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _table(self, table: str) -> dict:
        if table not in self._tables:
            raise KeyError(f"table {table!r} does not exist")
        return self._tables[table]

    def _row(self, table: str, key: str) -> typing.Optional[Row]:
        return self._table(table).get(key)

    def _charge(self, ctx, size_mb: float) -> None:
        if ctx is not None:
            ctx.charge(self.calibration.kv_transfer_latency(size_mb))
