"""Serverless sample-sort (the CloudSort/Locus workload; §5.1, [156]).

Pu et al.'s Locus — "shuffling, fast and slow: scalable analytics on
serverless infrastructure" — uses a 100 TB sort as the canonical
shuffle-heavy serverless benchmark.  This is that algorithm at
simulator scale:

1. the driver samples records and picks ``partitions - 1`` splitters;
2. map tasks range-partition their chunk by the splitters into the
   shuffle medium;
3. reduce tasks merge and sort their partition;
4. the driver concatenates partitions (already globally ordered).

All sorting is real; output is validated against ``sorted()``.
"""

from __future__ import annotations

import math
import random
import typing

from taureau.analytics.shuffle import ShuffleMedium
from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform

__all__ = ["ServerlessSort"]

#: Simulated in-sandbox sort throughput (records per second).
_RECORDS_PER_SECOND = 2e6


class ServerlessSort:
    """Distributed sample-sort over a FaaS platform."""

    def __init__(
        self,
        platform: FaasPlatform,
        medium: ShuffleMedium,
        partitions: int = 4,
        sample_rate: float = 0.01,
        key_fn: typing.Optional[typing.Callable] = None,
    ):
        if partitions <= 0:
            raise ValueError("partitions must be positive")
        if not 0 < sample_rate <= 1:
            raise ValueError("sample_rate must be in (0, 1]")
        self.platform = platform
        self.medium = medium
        self.partitions = partitions
        self.sample_rate = sample_rate
        self.key_fn = key_fn or (lambda record: record)
        self.job_id = f"sort{next(platform.sim.ids('sort'))}"
        self._map_name = f"{self.job_id}-partition"
        self._reduce_name = f"{self.job_id}-sort"
        self.splitters: list = []
        self._register()

    def _register(self) -> None:
        job = self

        def partition_task(event, ctx):
            chunk_id, chunk = event["chunk_id"], event["chunk"]
            ctx.charge(len(chunk) / _RECORDS_PER_SECOND)
            buckets: dict = {index: [] for index in range(job.partitions)}
            for record in chunk:
                buckets[job._bucket_of(record)].append(record)
            for index, records in buckets.items():
                if records:
                    job.medium.write(job.job_id, chunk_id, index, records, ctx)
            return len(chunk)

        def sort_task(event, ctx):
            partition, map_count = event["partition"], event["map_count"]
            records = job.medium.read_partition(
                job.job_id, partition, map_count, ctx
            )
            work = len(records) * max(1.0, math.log2(max(2, len(records))))
            ctx.charge(work / _RECORDS_PER_SECOND)
            return sorted(records, key=job.key_fn)

        self.platform.register(
            FunctionSpec(name=self._map_name, handler=partition_task,
                         memory_mb=1024, timeout_s=900)
        )
        self.platform.register(
            FunctionSpec(name=self._reduce_name, handler=sort_task,
                         memory_mb=1024, timeout_s=900)
        )

    # ------------------------------------------------------------------

    def run_sync(self, chunks: typing.Sequence[typing.Sequence]) -> list:
        """Sort the concatenation of ``chunks``; returns the sorted list."""
        return self.platform.sim.run(
            until=self.platform.sim.process(self._drive([list(c) for c in chunks]))
        )

    def _drive(self, chunks: list):
        self._pick_splitters(chunks)
        self.medium.prepare(self.job_id, len(chunks), self.partitions)
        map_events = [
            self.platform.invoke(
                self._map_name, {"chunk_id": index, "chunk": chunk}
            )
            for index, chunk in enumerate(chunks)
        ]
        map_records = yield self.platform.sim.all_of(map_events)
        if any(not record.succeeded for record in map_records):
            raise RuntimeError("partition tasks failed")
        reduce_events = [
            self.platform.invoke(
                self._reduce_name,
                {"partition": index, "map_count": len(chunks)},
            )
            for index in range(self.partitions)
        ]
        reduce_records = yield self.platform.sim.all_of(reduce_events)
        if any(not record.succeeded for record in reduce_records):
            raise RuntimeError("sort tasks failed")
        merged: list = []
        for record in reduce_records:  # partitions are globally ordered
            merged.extend(record.response)
        self.medium.cleanup(self.job_id)
        return merged

    def _pick_splitters(self, chunks: list) -> None:
        rng = random.Random(
            self.platform.sim.rng.numpy_seed(f"{self.job_id}.sample") % (2 ** 31)
        )
        sample: list = []
        for chunk in chunks:
            take = max(1, int(len(chunk) * self.sample_rate))
            sample.extend(rng.sample(chunk, min(take, len(chunk))))
        keys = sorted(self.key_fn(record) for record in sample)
        self.splitters = [
            keys[(index + 1) * len(keys) // self.partitions]
            for index in range(self.partitions - 1)
        ] if len(keys) >= self.partitions else keys[: self.partitions - 1]

    def _bucket_of(self, record) -> int:
        key = self.key_fn(record)
        for index, splitter in enumerate(self.splitters):
            if key < splitter:
                return index
        return len(self.splitters)
