"""All-to-all sequence comparison on serverless (§5.1, [150]).

Niu et al. used serverless to run an all-pairs comparison across human
proteins.  The harness generates synthetic protein sequences, scores
pairs with a real Smith-Waterman local alignment, and fans batches of
pairs out to functions — speedup vs workers is experiment E18.
"""

from __future__ import annotations

import random
import typing

import numpy as np

from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform

__all__ = [
    "AMINO_ACIDS",
    "random_protein",
    "smith_waterman_score",
    "AllPairsComparison",
]

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

#: Simulated alignment throughput (matrix cells per second per vCPU).
_CELLS_PER_SECOND = 5e6


def random_protein(rng: random.Random, length: int) -> str:
    """A uniform random amino-acid sequence."""
    return "".join(rng.choice(AMINO_ACIDS) for __ in range(length))


def smith_waterman_score(
    a: str,
    b: str,
    match: int = 3,
    mismatch: int = -1,
    gap: int = -2,
) -> int:
    """The optimal local-alignment score (real dynamic programming)."""
    if not a or not b:
        return 0
    rows, cols = len(a) + 1, len(b) + 1
    table = np.zeros((rows, cols), dtype=np.int64)
    best = 0
    b_array = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    for i in range(1, rows):
        a_char = ord(a[i - 1])
        substitution = np.where(b_array == a_char, match, mismatch)
        for j in range(1, cols):
            score = max(
                0,
                table[i - 1, j - 1] + substitution[j - 1],
                table[i - 1, j] + gap,
                table[i, j - 1] + gap,
            )
            table[i, j] = score
            if score > best:
                best = score
    return int(best)


class AllPairsComparison:
    """Pairwise-compare a protein set with batched serverless tasks."""

    def __init__(
        self,
        platform: FaasPlatform,
        sequences: typing.Sequence[str],
        batch_size: int = 16,
    ):
        if len(sequences) < 2:
            raise ValueError("need at least two sequences")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.platform = platform
        self.sequences = list(sequences)
        self.batch_size = batch_size
        self.job_id = f"seqcomp{next(platform.sim.ids('seqcomp'))}"
        self._task_name = f"{self.job_id}-align"
        self._register()

    def _register(self) -> None:
        sequences = self.sequences

        def align_batch(event, ctx):
            results = {}
            for i, j in event["pairs"]:
                a, b = sequences[i], sequences[j]
                ctx.charge(len(a) * len(b) / _CELLS_PER_SECOND)
                results[(i, j)] = smith_waterman_score(a, b)
            return results

        self.platform.register(
            FunctionSpec(
                name=self._task_name, handler=align_batch, memory_mb=512,
                timeout_s=900,
            )
        )

    def all_pairs(self) -> list:
        n = len(self.sequences)
        return [(i, j) for i in range(n) for j in range(i + 1, n)]

    def run_sync(self) -> dict:
        """Score every unordered pair; returns {(i, j): score}."""
        return self.platform.sim.run(until=self.platform.sim.process(self._drive()))

    def _drive(self):
        pairs = self.all_pairs()
        batches = [
            pairs[start : start + self.batch_size]
            for start in range(0, len(pairs), self.batch_size)
        ]
        events = [
            self.platform.invoke(self._task_name, {"pairs": batch})
            for batch in batches
        ]
        records = yield self.platform.sim.all_of(events)
        failures = [record for record in records if not record.succeeded]
        if failures:
            raise RuntimeError(f"{len(failures)} alignment batches failed")
        scores: dict = {}
        for record in records:
            scores.update(record.response)
        return scores

    def top_matches(self, scores: dict, n: int = 5) -> list:
        """The ``n`` highest-scoring pairs (clustering seed candidates)."""
        return sorted(scores.items(), key=lambda kv: -kv[1])[:n]
