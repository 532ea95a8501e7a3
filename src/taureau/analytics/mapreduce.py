"""PyWren-style serverless MapReduce (paper §5.1, [114]).

"Occupy the cloud: distributed computing for the 99%" — map tasks run as
stateless functions, shuffle through a pluggable store, reduce tasks run
as stateless functions.  The map and reduce callables are *real* Python;
only the platform timing is simulated, so results are genuine.

The user API:

>>> job = MapReduceJob(platform, medium, map_fn=tokenize, reduce_fn=sum_counts)
>>> results = job.run_sync(chunks)
"""

from __future__ import annotations

import typing

from taureau.analytics.shuffle import ShuffleMedium, partition_pairs
from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform
from taureau.sim import Event
from taureau.sketches.spacesaving import SpaceSaving

__all__ = [
    "MapReduceJob",
    "word_count_map",
    "word_count_reduce",
    "make_heavy_hitter_map",
    "heavy_hitter_reduce",
]


def word_count_map(chunk: str) -> list:
    """The canonical mapper: text chunk -> (word, 1) pairs."""
    return [(word.lower(), 1) for word in chunk.split()]


def word_count_reduce(key: str, values: list) -> int:
    """The canonical reducer: sum the counts."""
    return sum(values)


def make_heavy_hitter_map(k: int = 64) -> typing.Callable[[str], list]:
    """A mapper that sketches its chunk instead of emitting raw pairs.

    Each map task folds its whole token stream into one SpaceSaving
    summary through the vectorized ``add_many`` path and emits a single
    ``("heavy-hitters", sketch)`` pair, so the shuffle carries ``k``
    counters per chunk rather than one pair per token — the serverless
    heavy-hitter pattern from paper §5.1.
    """

    def heavy_hitter_map(chunk: str) -> list:
        sketch = SpaceSaving(k=k)
        sketch.add_many([word.lower() for word in chunk.split()])
        return [("heavy-hitters", sketch)]

    return heavy_hitter_map


def heavy_hitter_reduce(key: str, sketches: list) -> list:
    """Merge per-chunk SpaceSaving summaries; returns (item, estimate)s."""
    merged = sketches[0]
    for sketch in sketches[1:]:
        merged = merged.merge(sketch)
    return merged.top()


class MapReduceJob:
    """One configured MapReduce pipeline over a FaaS platform.

    Parameters
    ----------
    platform:
        Where mapper/reducer functions execute.
    medium:
        The shuffle store (blob / KV / Jiffy) — E14's ablation axis.
    map_fn:
        ``chunk -> [(key, value), ...]``.
    reduce_fn:
        ``(key, [values]) -> result``.
    partitions:
        Number of reduce partitions.
    map_compute_s / reduce_compute_s:
        Simulated compute seconds charged per task (the real Python work
        runs in zero simulated time; these model the testbed's compute).
    """

    def __init__(
        self,
        platform: FaasPlatform,
        medium: ShuffleMedium,
        map_fn: typing.Callable[[object], list],
        reduce_fn: typing.Callable[[str, list], object],
        partitions: int = 4,
        map_compute_s: float = 0.5,
        reduce_compute_s: float = 0.2,
        memory_mb: float = 512.0,
    ):
        if partitions <= 0:
            raise ValueError("partitions must be positive")
        self.platform = platform
        self.medium = medium
        self.map_fn = map_fn
        self.reduce_fn = reduce_fn
        self.partitions = partitions
        self.job_id = f"mr{next(platform.sim.ids('mr'))}"
        self._map_name = f"{self.job_id}-map"
        self._reduce_name = f"{self.job_id}-reduce"
        self._register(map_compute_s, reduce_compute_s, memory_mb)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def _register(self, map_compute_s, reduce_compute_s, memory_mb) -> None:
        job = self

        def mapper(event, ctx):
            ctx.charge(map_compute_s)
            chunk_id, chunk = event["chunk_id"], event["chunk"]
            buckets = partition_pairs(job.map_fn(chunk), job.partitions)
            for partition, pairs in buckets.items():
                job.medium.write(job.job_id, chunk_id, partition, pairs, ctx)
            return len(buckets)

        def reducer(event, ctx):
            ctx.charge(reduce_compute_s)
            partition, map_count = event["partition"], event["map_count"]
            pairs = job.medium.read_partition(job.job_id, partition, map_count, ctx)
            grouped: dict = {}
            for key, value in pairs:
                grouped.setdefault(key, []).append(value)
            return {key: job.reduce_fn(key, values) for key, values in grouped.items()}

        self.platform.register(
            FunctionSpec(name=self._map_name, handler=mapper, memory_mb=memory_mb)
        )
        self.platform.register(
            FunctionSpec(name=self._reduce_name, handler=reducer, memory_mb=memory_mb)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, chunks: typing.Sequence[object]) -> Event:
        """Start the job; the returned event fires with the merged result."""
        self.medium.prepare(self.job_id, len(chunks), self.partitions)
        return self.platform.sim.process(self._drive(list(chunks)))

    def run_sync(self, chunks: typing.Sequence[object]) -> dict:
        return self.platform.sim.run(until=self.run(chunks))

    def _drive(self, chunks: list):
        platform = self.platform
        map_events = [
            platform.invoke(self._map_name, {"chunk_id": i, "chunk": chunk})
            for i, chunk in enumerate(chunks)
        ]
        map_records = yield platform.sim.all_of(map_events)
        failed = [record for record in map_records if not record.succeeded]
        if failed:
            raise RuntimeError(
                f"{len(failed)} map tasks failed: {failed[0].error!r}"
            )
        reduce_events = [
            platform.invoke(
                self._reduce_name,
                {"partition": partition, "map_count": len(chunks)},
            )
            for partition in range(self.partitions)
        ]
        reduce_records = yield platform.sim.all_of(reduce_events)
        failed = [record for record in reduce_records if not record.succeeded]
        if failed:
            raise RuntimeError(
                f"{len(failed)} reduce tasks failed: {failed[0].error!r}"
            )
        merged: dict = {}
        for record in reduce_records:
            merged.update(record.response)
        self.medium.cleanup(self.job_id)
        return merged
