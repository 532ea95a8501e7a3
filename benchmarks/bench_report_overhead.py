"""E41 — Run-recorder overhead on the E39 million-tenant replay.

The run recorder (``taureau.obs.record``, ISSUE 8) is a kernel daemon:
it samples platform state every simulated second, so its wall cost
scales with the *virtual horizon* (ticks x lanes), not with event
volume.  This bench pins that claim to the headline E39 scenario — the
million-tenant, ~10^7-arrival diurnal trace replayed through the
simulation kernel — by timing the identical replay twice, recorder off
and recorder on, and gating the wall-clock overhead below 5%.

A sampled slice of the arrivals (1 in ``INVOKE_EVERY``) drives real
FaaS invocations so the recorder has live queues, warm pools and cold
fractions to sample; both runs share that workload, so the delta
isolates the recorder daemon itself.  The bench times ``ROUNDS``
interleaved off/on pairs (``SMOKE_ROUNDS`` for the smoke slice) and
gates on the median of the per-round overheads: on a 2-core VM, single
rounds of the smoke slice read anywhere from -19.99% to +59.29%, so a
median of 5 could rest on two or three quiet rounds.  The trajectory
lands in ``benchmarks/BENCH_report_overhead.json``.

Run directly (``python benchmarks/bench_report_overhead.py [--smoke]``)
or via pytest-benchmark like the other benches.
"""

import argparse
import json
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from tables import print_table

import taureau
from taureau.core import PlatformConfig
from taureau.workload import WorkloadSpec, generate_trace, replay_trace
from bench_sim_kernel import MILLION_TENANT_SPEC

MAX_OVERHEAD_PCT = 5.0  # acceptance: recorder wall overhead below this
INVOKE_EVERY = 1_000  # 1 in N arrivals becomes a real FaaS invocation
ROUNDS = 5  # interleaved off/on pairs behind the gate's median
SMOKE_ROUNDS = 11  # the smoke slice's rounds are short and noisy

# The smoke trace needs enough replay wall time that the recorder's
# fixed per-virtual-second tick cost is measured against a meaningful
# baseline (the full MILLION_TENANT_SPEC run dwarfs it naturally).
REPLAY_SMOKE_SPEC = WorkloadSpec(
    tenants=50_000,
    functions_per_tenant=8,
    horizon_s=120.0,
    mean_rps=8_000.0,  # ~1e6 arrivals over two minutes
    peak_to_mean=4.0,
    period_s=120.0,
    phases=8,
)


def replay_once(trace, with_recorder, seed=39):
    """One full trace replay; returns (elapsed_s, platform, arrivals)."""
    # A short keep-alive bounds the idle virtual tail after the last
    # arrival; the recorder ticks through that tail too, and an hour of
    # ghost-town sampling would measure the tail, not the replay.
    app = taureau.Platform(
        seed=seed, tracing=False, config=PlatformConfig(keep_alive_s=60.0)
    )
    if with_recorder:
        app.with_recorder(interval_s=1.0)

    @app.function("handler", memory_mb=128)
    def handler(event, ctx):
        ctx.charge(0.002)
        return event

    invoke = app.faas.invoke
    counter = [0]

    def fire(index):
        counter[0] += 1
        if index % INVOKE_EVERY == 0:
            invoke("handler", index)

    started = time.perf_counter()
    replay_trace(app.sim, trace, fire)
    app.sim.run()
    elapsed = time.perf_counter() - started
    assert counter[0] == len(trace)
    return elapsed, app, len(trace)


def run_experiment(smoke=False):
    spec = REPLAY_SMOKE_SPEC if smoke else MILLION_TENANT_SPEC
    trace = generate_trace(spec, seed=39)
    off_s, on_s = [], []
    # Interleave the variants so allocator/cache drift hits both evenly.
    for _round in range(SMOKE_ROUNDS if smoke else ROUNDS):
        elapsed, _, arrivals = replay_once(trace, with_recorder=False)
        off_s.append(elapsed)
        elapsed, app, arrivals = replay_once(trace, with_recorder=True)
        on_s.append(elapsed)
    samples = [100.0 * (on - off) / off for off, on in zip(off_s, on_s)]
    counters = app.recorder.overhead()
    artifact_bytes = len(app.run_artifact().to_json())
    row = {
        "tenants": spec.tenants,
        "arrivals": arrivals,
        "baseline_s": round(statistics.median(off_s), 3),
        "recorded_s": round(statistics.median(on_s), 3),
        "overhead_pct": round(statistics.median(samples), 2),
        "ticks": counters["ticks"],
        "lanes": counters["lanes"],
        "points": counters["points"],
        "artifact_bytes": artifact_bytes,
    }
    return row, samples


def gate_overhead(row, samples):
    """Print every round's overhead; return their median."""
    shown = " ".join(f"{sample:+.2f}%" for sample in samples)
    print(f"recorder overhead, {len(samples)} interleaved rounds: {shown}; "
          f"median {row['overhead_pct']}% over {row['arrivals']} arrivals "
          f"(< {MAX_OVERHEAD_PCT:.0f}% required)")
    return row["overhead_pct"]


def report(row, rounds):
    print_table(
        "E41: run-recorder wall overhead on the E39 workload replay",
        list(row.keys()),
        [tuple(row.values())],
        note=f"acceptance: median overhead_pct < {MAX_OVERHEAD_PCT:.0f} "
        f"over {rounds} interleaved rounds (1 in {INVOKE_EVERY} arrivals "
        "drives a real invocation; recorder cadence 1 virtual second)",
    )


def write_trajectory(row, path):
    payload = {
        "experiment": "report_overhead",
        "unit": "percent_wall_overhead",
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "invoke_every": INVOKE_EVERY,
        "replay": row,
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="~10s run: the 50k-tenant E39 smoke trace, no JSON",
    )
    parser.add_argument(
        "--json",
        default=str(pathlib.Path(__file__).parent / "BENCH_report_overhead.json"),
        help="trajectory output path (full runs only)",
    )
    options = parser.parse_args(argv)
    row, samples = run_experiment(smoke=options.smoke)
    report(row, len(samples))
    overhead_pct = gate_overhead(row, samples)
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"recorder overhead {overhead_pct}% (median) exceeds "
        f"{MAX_OVERHEAD_PCT}%"
    )
    if not options.smoke:
        write_trajectory(row, options.json)
    return 0


def test_e41_report_overhead(benchmark):
    row, samples = benchmark.pedantic(
        lambda: run_experiment(smoke=False), rounds=1, iterations=1
    )
    report(row, len(samples))
    assert gate_overhead(row, samples) < MAX_OVERHEAD_PCT
    assert row["arrivals"] > 5_000_000


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
