"""E39 — Vectorized simulation kernel + million-tenant workload replay.

The seed kernel paid four Python-level costs per event: a ``heappush``,
a ``step()`` call, a heap pop and an attribute dance.  This bench
measures events/sec through the kernel for three scheduling paths —

- ``seed-kernel``: one ``schedule_at`` per event, drained step-by-step
  (the growth seed's run loop);
- ``scalar-run``: one ``schedule_at`` per event, drained by today's
  ``run()`` (tight loop + same-timestamp burst drain);
- ``bulk-heap``: one ``schedule_many`` sorted run —

then drives the headline scenario: a million-tenant, ~10^7-invocation
diurnal trace generated by ``taureau.workload`` and replayed through
the kernel.  All paths execute the identical event sequence (asserted
on a fuzzed mixed workload), so the speedup is semantics-free; the
trajectory lands in ``benchmarks/BENCH_sim_kernel.json``.

The gate row (1e6 events, 1e5 under ``--smoke``) times the seed and
bulk paths ``GATE_SAMPLES`` times, interleaved, and gates on the median
of the per-sample speedups: on a 2-core VM, single samples of the 1e6
paths ranged over 6.8x-15.6x.

Run directly (``python benchmarks/bench_sim_kernel.py [--smoke]``) or
via pytest-benchmark like the other benches.
"""

import argparse
import json
import pathlib
import random
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from tables import print_table

from taureau.sim import Simulation
from taureau.workload import WorkloadSpec, generate_trace, replay_trace

SEED_SAMPLE_CAP = 1_000_000  # per-event paths are timed on at most this many
REQUIRED_SPEEDUP = 10.0  # bulk-heap vs the seed kernel at 1e6 events
GATE_SAMPLES = 5  # interleaved seed/bulk timings behind the gate's median

MILLION_TENANT_SPEC = WorkloadSpec(
    tenants=1_000_000,
    functions_per_tenant=8,
    horizon_s=3_600.0,
    mean_rps=2_800.0,  # ~1e7 arrivals over the hour
    peak_to_mean=4.0,
    period_s=3_600.0,
    phases=8,
)
SMOKE_SPEC = WorkloadSpec(
    tenants=50_000,
    functions_per_tenant=8,
    horizon_s=120.0,
    mean_rps=1_500.0,
    peak_to_mean=4.0,
    period_s=120.0,
    phases=8,
)


def arrival_times(n, seed=0):
    """A sorted Poisson arrival vector, the shape replay actually sees."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0, size=n))


def _rate(events, elapsed_s):
    return events / elapsed_s if elapsed_s > 0 else float("inf")


def seed_kernel_drain(times):
    """The growth seed's path: N pushes, then one step() per event."""
    sim = Simulation()
    counter = [0]

    def bump():
        counter[0] += 1

    started = time.perf_counter()
    for when in times:
        sim.schedule_at(when, bump)
    while sim.has_work():
        sim.step()
    elapsed = time.perf_counter() - started
    assert counter[0] == len(times)
    return _rate(len(times), elapsed)


def scalar_run_drain(times):
    """N individual pushes drained by the batched run() loop."""
    sim = Simulation()
    counter = [0]

    def bump():
        counter[0] += 1

    started = time.perf_counter()
    for when in times:
        sim.schedule_at(when, bump)
    sim.run()
    elapsed = time.perf_counter() - started
    assert counter[0] == len(times)
    return _rate(len(times), elapsed)


def bulk_drain(times):
    """One schedule_many sorted run, drained by run()."""
    sim = Simulation()
    counter = [0]

    def bump():
        counter[0] += 1

    started = time.perf_counter()
    sim.schedule_many(times, bump)
    sim.run()
    elapsed = time.perf_counter() - started
    assert counter[0] == len(times)
    return _rate(len(times), elapsed)


def kernel_sweep(sizes, gate_n):
    """events/sec per scheduling path per event count, plus gate samples.

    The ``gate_n`` row times the seed and bulk paths ``GATE_SAMPLES``
    times, interleaved, and reports their medians; its speedup column
    is the median of the per-sample ratios, which are returned too.
    """
    rows = []
    gate_ratios = []
    for n in sizes:
        times = arrival_times(n)
        sample = times[: min(n, SEED_SAMPLE_CAP)]
        seed_rates, heap_rates = [], []
        for _ in range(GATE_SAMPLES if n == gate_n else 1):
            seed_rates.append(seed_kernel_drain(sample))
            heap_rates.append(bulk_drain(times))
        scalar_rate = scalar_run_drain(sample)
        ratios = [heap / seed for seed, heap in zip(seed_rates, heap_rates)]
        if n == gate_n:
            gate_ratios = ratios
        rows.append(
            (
                f"1e{len(str(n)) - 1}",
                round(statistics.median(seed_rates)),
                round(scalar_rate),
                round(statistics.median(heap_rates)),
                round(statistics.median(ratios), 1),
            )
        )
    return rows, gate_ratios


def equivalence_check():
    """All paths must execute the identical event sequence."""
    rng = random.Random(7)
    batches = [
        sorted(rng.uniform(0, 50) for _ in range(rng.randrange(1, 200)))
        for _ in range(10)
    ]
    singles = [rng.uniform(0, 50) for _ in range(100)]

    def drive(sim, bulk):
        seen = []
        for index, batch in enumerate(batches):
            if bulk:
                sim.schedule_many(
                    batch,
                    lambda tag, b=index: seen.append((b, tag, sim.now)),
                    args=range(len(batch)),
                )
            else:
                for tag, when in enumerate(batch):
                    sim.schedule_at(
                        when,
                        lambda tag=tag, b=index: seen.append((b, tag, sim.now)),
                    )
        for s, when in enumerate(singles):
            sim.schedule_at(when, lambda s=s: seen.append(("s", s, sim.now)))
        sim.run()
        return seen

    oracle = drive(Simulation(), bulk=False)
    assert drive(Simulation(), bulk=True) == oracle


def million_tenant_scenario(spec):
    """Generate and replay the headline trace; returns a summary row."""
    started = time.perf_counter()
    trace = generate_trace(spec, seed=39)
    generated = time.perf_counter() - started

    sim = Simulation()
    counter = [0]

    def fire(_index):
        counter[0] += 1

    started = time.perf_counter()
    replay_trace(sim, trace, fire)
    sim.run()
    replayed = time.perf_counter() - started
    assert counter[0] == len(trace)

    stats = trace.stats(bucket_s=60.0)
    return {
        "tenants": spec.tenants,
        "arrivals": len(trace),
        "distinct_tenants": stats["distinct_tenants"],
        "generate_s": round(generated, 2),
        "replay_s": round(replayed, 2),
        "total_s": round(generated + replayed, 2),
        "replay_events_per_s": round(_rate(len(trace), replayed)),
    }


def run_experiment(smoke=False):
    equivalence_check()
    sizes = [100_000] if smoke else [100_000, 1_000_000, 10_000_000]
    kernel_rows, gate_ratios = kernel_sweep(
        sizes, gate_n=100_000 if smoke else 1_000_000)
    scenario = million_tenant_scenario(SMOKE_SPEC if smoke else MILLION_TENANT_SPEC)
    return kernel_rows, scenario, gate_ratios


def gate_speedup(gate_ratios):
    """Print every gate sample; return their median speedup."""
    speedup = statistics.median(gate_ratios)
    samples = " ".join(f"{ratio:.1f}x" for ratio in gate_ratios)
    print(f"bulk_heap / seed_kernel, {len(gate_ratios)} interleaved "
          f"samples: {samples}; median {speedup:.1f}x "
          f"(>= {REQUIRED_SPEEDUP:.0f}x required)")
    return speedup


def report(kernel_rows, scenario):
    print_table(
        "E39: kernel scheduling paths, Poisson arrivals (events/sec; "
        f"per-event paths sampled at <= {SEED_SAMPLE_CAP:.0e} events)",
        ["events", "seed_kernel", "scalar_run", "bulk_heap", "speedup_vs_seed"],
        kernel_rows,
        note=f"acceptance: median bulk_heap >= {REQUIRED_SPEEDUP:.0f}x the "
        f"seed kernel over {GATE_SAMPLES} interleaved samples at 1e6 "
        "events (1e5 under --smoke); all paths pop the identical event "
        "sequence",
    )
    print_table(
        "E39b: trace-driven workload, generate + replay",
        list(scenario.keys()),
        [tuple(scenario.values())],
        note="taureau.workload diurnal/Zipf trace through "
        "schedule_many chunks",
    )


def write_trajectory(kernel_rows, scenario, path):
    payload = {
        "experiment": "sim_kernel",
        "unit": "events_per_second",
        "required_speedup": REQUIRED_SPEEDUP,
        "kernel": [
            {
                "events": row[0],
                "seed_kernel": row[1],
                "scalar_run": row[2],
                "bulk_heap": row[3],
                "speedup_vs_seed": row[4],
            }
            for row in kernel_rows
        ],
        "million_tenant": scenario,
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="~5s run: 1e5 events + a 50k-tenant trace, no JSON",
    )
    parser.add_argument(
        "--json",
        default=str(pathlib.Path(__file__).parent / "BENCH_sim_kernel.json"),
        help="trajectory output path (full runs only)",
    )
    options = parser.parse_args(argv)
    kernel_rows, scenario, gate_ratios = run_experiment(smoke=options.smoke)
    report(kernel_rows, scenario)
    # Acceptance at 1e6 events (E35's convention); the 1e7 row is
    # informational — it breathes with allocator/GC pressure.
    speedup = gate_speedup(gate_ratios)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"bulk scheduling is only {speedup:.1f}x the seed kernel (median)"
    )
    if not options.smoke:
        write_trajectory(kernel_rows, scenario, options.json)
    return 0


def test_e39_kernel_speedup(benchmark):
    kernel_rows, scenario, gate_ratios = benchmark.pedantic(
        lambda: run_experiment(smoke=False), rounds=1, iterations=1
    )
    report(kernel_rows, scenario)
    assert gate_speedup(gate_ratios) >= REQUIRED_SPEEDUP
    # The headline claim: a million tenants, ~1e7 invocations, minutes.
    assert scenario["arrivals"] > 5_000_000
    assert scenario["total_s"] < 600.0


if __name__ == "__main__":
    sys.exit(main())
