"""E36 — Labeled histogram metrics vs. raw-sample distributions.

The seed-era ``Distribution`` keeps every observation (unbounded memory,
a full re-sort per percentile query); the PR 3 ``Histogram`` keeps one
geometric bucket table (growth 1.05 → ≤5% relative quantile error) plus
exact count/sum/min/max side-tracking.  This bench measures, at
10^4–10^6 observations of a lognormal latency stream —

- recording throughput (observations/sec) for both recorders;
- retained memory: ``Distribution`` grows linearly with the sample
  count while ``Histogram`` is bounded by its occupied-bucket count
  (constant in samples once the value range is covered);
- quantile accuracy: histogram p50/p99 vs. the exact sorted-sample
  percentiles, asserted within one bucket's relative error —

and writes the measurements to ``BENCH_metrics_overhead.json`` (full
runs only).

Run directly (``python benchmarks/bench_metrics_overhead.py [--smoke]``);
``--smoke`` caps the stream at 10^5 observations for CI.
"""

import argparse
import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from tables import print_table

from taureau.sim.metrics import Distribution, Histogram

FULL_SIZES = (10_000, 100_000, 1_000_000)
SMOKE_SIZES = (10_000, 100_000)
#: Bucket membership is one bound off at worst, so a histogram quantile
#: may sit one bucket away from the exact rank: tolerance = growth - 1.
RELATIVE_ERROR = Histogram.DEFAULT_GROWTH - 1.0


def latency_stream(n: int, seed: int = 0) -> list:
    """A lognormal latency-like stream with occasional zero samples."""
    rng = random.Random(seed)
    stream = [rng.lognormvariate(-3.0, 1.0) for _ in range(n)]
    for index in range(0, n, 1000):
        stream[index] = 0.0
    return stream


def distribution_memory_bytes(dist: Distribution) -> int:
    """Retained sample storage (the part that grows without bound)."""
    return sys.getsizeof(dist._samples) + len(dist._samples) * 8


def histogram_memory_bytes(hist: Histogram) -> int:
    """Retained bucket storage (bounded by occupied buckets, not samples)."""
    return sys.getsizeof(hist._counts) + hist.bucket_count * 2 * 8


def _rate(items: int, elapsed_s: float) -> float:
    return items / elapsed_s if elapsed_s > 0 else float("inf")


def measure(sizes) -> list:
    rows = []
    for n in sizes:
        stream = latency_stream(n)

        dist = Distribution("raw")
        t0 = time.perf_counter()
        for value in stream:
            dist.observe(value)
        dist_elapsed = time.perf_counter() - t0
        exact_p50 = dist.percentile(50)
        exact_p99 = dist.percentile(99)

        hist = Histogram("bucketed")
        t0 = time.perf_counter()
        for value in stream:
            hist.observe(value)
        hist_elapsed = time.perf_counter() - t0

        p50_err = abs(hist.p50 - exact_p50) / exact_p50 if exact_p50 else 0.0
        p99_err = abs(hist.p99 - exact_p99) / exact_p99 if exact_p99 else 0.0
        assert p50_err <= RELATIVE_ERROR, (n, p50_err)
        assert p99_err <= RELATIVE_ERROR, (n, p99_err)

        rows.append({
            "observations": n,
            "dist_obs_per_s": _rate(n, dist_elapsed),
            "hist_obs_per_s": _rate(n, hist_elapsed),
            "dist_memory_b": distribution_memory_bytes(dist),
            "hist_memory_b": histogram_memory_bytes(hist),
            "hist_buckets": hist.bucket_count,
            "p50_rel_err": p50_err,
            "p99_rel_err": p99_err,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="cap the stream at 1e5 observations (CI gate)",
    )
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES

    rows = measure(sizes)
    print_table(
        "E36: recording overhead and memory, histogram vs raw samples",
        [
            "observations", "dist obs/s", "hist obs/s",
            "dist mem B", "hist mem B", "buckets",
            "p50 rel err", "p99 rel err",
        ],
        [
            [
                row["observations"], row["dist_obs_per_s"],
                row["hist_obs_per_s"], row["dist_memory_b"],
                row["hist_memory_b"], row["hist_buckets"],
                row["p50_rel_err"], row["p99_rel_err"],
            ]
            for row in rows
        ],
        note=(
            "raw-sample memory grows linearly; histogram memory is bounded "
            f"by bucket count; quantile tolerance {RELATIVE_ERROR:.0%}"
        ),
    )

    # The claim's shape: histogram memory must be bounded by the bucket
    # table (constant in samples), while the raw recorder grows linearly.
    first, last = rows[0], rows[-1]
    scale = last["observations"] / first["observations"]
    assert last["dist_memory_b"] > first["dist_memory_b"] * (scale / 4), (
        "raw-sample memory did not grow with the stream?"
    )
    assert last["hist_memory_b"] <= first["hist_memory_b"] * 2, (
        f"histogram memory grew with samples: {first} -> {last}"
    )

    if not args.smoke:
        out = pathlib.Path(__file__).parent / "BENCH_metrics_overhead.json"
        out.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"\nwrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
