"""E12 — The sketch family trades memory for accuracy.

Paper claim (§5.1): "there's a rich family of data sketches — sampling,
filtering, quantiles, cardinality, frequent elements ... that can
benefit from the properties of serverless".  The bench sweeps each
sketch's size knob and reports the accuracy-vs-bytes curve against
exact answers.
"""

import collections
import random

from taureau.sketches import (
    BloomFilter,
    CountMinSketch,
    HyperLogLog,
    QuantileSketch,
    SpaceSaving,
)

from tables import print_table

N = 30_000


def hll_rows():
    rows = []
    for precision in (8, 10, 12, 14):
        hll = HyperLogLog(precision=precision)
        hll.add_many([f"user-{index}" for index in range(N)])
        error = abs(hll.cardinality() - N) / N
        rows.append(("hyperloglog", f"p={precision}", hll.memory_bytes, error))
    return rows


def bloom_rows():
    rows = []
    members = [f"m{index}" for index in range(5000)]
    for fp_rate in (0.1, 0.01, 0.001):
        bloom = BloomFilter(capacity=5000, fp_rate=fp_rate)
        bloom.add_many(members)
        false_positives = int(
            bloom.contains_many(
                [f"outsider-{index}" for index in range(20_000)]
            ).sum()
        )
        rows.append(
            ("bloom", f"target_fp={fp_rate}", bloom.memory_bytes,
             false_positives / 20_000)
        )
    return rows


def countmin_rows():
    rng = random.Random(0)
    weights = [1.0 / (rank ** 1.1) for rank in range(1, 2001)]
    stream = rng.choices([f"w{i}" for i in range(2000)], weights=weights, k=N)
    truth = collections.Counter(stream)
    rows = []
    for width in (128, 512, 2048):
        sketch = CountMinSketch(width=width, depth=4)
        sketch.add_many(stream)
        words = list(truth)
        estimates = sketch.estimate_many(words)
        mean_error = sum(
            estimate - truth[word]
            for word, estimate in zip(words, estimates.tolist())
        ) / len(truth)
        rows.append(("count-min", f"w={width},d=4", sketch.memory_bytes,
                     mean_error / N))
    return rows


def quantile_rows():
    rng = random.Random(1)
    values = [rng.gauss(0, 1) for __ in range(N)]
    ordered = sorted(values)
    rows = []
    for capacity in (32, 128, 512):
        sketch = QuantileSketch(capacity=capacity, rng=random.Random(2))
        sketch.extend(values)
        rank_errors = []
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = ordered[int(q * (N - 1))]
            rank_errors.append(abs(sketch.rank(exact) - q))
        rows.append(
            ("quantiles", f"k={capacity}", sketch.stored_items * 8,
             max(rank_errors))
        )
    return rows


def spacesaving_rows():
    rng = random.Random(3)
    weights = [1.0 / (rank ** 1.3) for rank in range(1, 5001)]
    stream = rng.choices([f"w{i}" for i in range(5000)], weights=weights, k=N)
    truth = collections.Counter(stream)
    true_top = {word for word, __ in truth.most_common(10)}
    rows = []
    for k in (20, 100, 500):
        sketch = SpaceSaving(k=k)
        sketch.add_many(stream)
        found_top = {word for word, __ in sketch.top(10)}
        recall = len(found_top & true_top) / len(true_top)
        rows.append(("space-saving", f"k={k}", k * 16, 1.0 - recall))
    return rows


def run_experiment():
    return (
        hll_rows() + bloom_rows() + countmin_rows() + quantile_rows()
        + spacesaving_rows()
    )


def test_e12_sketch_family(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "E12: accuracy vs memory across the sketch family (error metric "
        "per sketch: relative/fp-rate/rank/top-10 miss)",
        ["sketch", "config", "memory_bytes", "error"],
        rows,
        note="each family member's largest configuration errs no more "
        "than its smallest",
    )
    by_kind: dict = {}
    for kind, __, memory, error in rows:
        by_kind.setdefault(kind, []).append((memory, error))
    for kind, curve in by_kind.items():
        errors = [error for __, error in sorted(curve)]
        # More memory never hurts by more than noise.
        assert errors[-1] <= errors[0] + 1e-9, kind
        assert errors[-1] < 0.1, kind
