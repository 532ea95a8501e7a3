"""E38 — Resilience recovers chaos-injected failures; disabled chaos is free.

Two claims from the fault-model contract, measured on one seeded
workload (FaaS handlers writing through a guarded KV client, with a
BaaS error window and Poisson sandbox crashes):

- *Recovery* (asserted): with the identical seed and fault plan, the
  platform resilience policy (client-side retry/backoff plus the
  resilient invoker) must recover at least **95%** of the invocations
  that fail when no policy is installed.  Both runs replay the same
  fault schedule, so the delta is attributable to the policy alone.
- *Overhead* (asserted): attaching an **empty** fault plan — guards
  armed on every client op, zero windows matched — must stay under
  **2%** of the unguarded run.  The gate is the ``cProfile`` share of
  the chaos guard's entry points, not a wall-clock ratio: deterministic
  instrumentation counts the same work on a loaded or an idle machine,
  and the profiler inflates the guard's many small calls harder than
  the platform's larger frames, so the share over-states the true
  overhead (conservative in the right direction).  Wall-clock medians
  of interleaved pairs are printed for the human-readable table only.

Run directly (``python benchmarks/bench_chaos_overhead.py [--smoke]``);
``--smoke`` shrinks the invocation count and relaxes the profiled
bound (fixed per-run costs weigh more on a short run).  Full runs write
``benchmarks/BENCH_chaos_overhead.json``; smoke runs write nothing.
"""

import argparse
import cProfile
import gc
import json
import pathlib
import pstats
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from tables import print_table

import taureau
from taureau.chaos import FaultPlan, ResiliencePolicy, RetryPolicy
from taureau.core.function import InvocationStatus

FULL_INVOCATIONS = 2000
SMOKE_INVOCATIONS = 400
REPEATS = 5
MIN_RECOVERY = 0.95
MAX_OVERHEAD = 0.02
SMOKE_MAX_OVERHEAD = 0.05
#: Entry points of the fault plane; everything the guards spend lands
#: in the cumulative time of one of these frames.
CHAOS_FRAMES = ("guard",)


def chaos_plan(span_s: float) -> FaultPlan:
    """A BaaS outage window plus Poisson sandbox crashes over the run."""
    return (FaultPlan()
            .baas_errors(start_s=0.2 * span_s, end_s=0.4 * span_s,
                         error_rate=1.0, component="baas.kv")
            .crash_sandbox(rate_hz=4.0 / span_s, start_s=0.0, end_s=span_s))


def run_workload(invocations: int, plan=None, policy=None):
    """One seeded run; returns (platform, records) after completion."""
    app = taureau.Platform(seed=42)
    app.with_kvstore()

    @app.function("work")
    def work(event, ctx):
        ctx.charge(0.05)
        ctx.service("kv").put(f"k{event % 64}", event, ctx=ctx)
        return event

    if policy is not None:
        app.with_resilience(policy)
    if plan is not None:
        app.with_chaos(plan)

    records = []
    for index in range(invocations):
        app.sim.schedule_at(
            index * 0.1,
            lambda i=index: records.append(app.invoke("work", i)),
        )
    app.run()
    return app, [event.value for event in records]


def failed_count(records) -> int:
    return sum(1 for r in records if r.status is not InvocationStatus.OK)


def recovery_fraction(invocations: int):
    """Same seed + plan, without vs with the resilience policy."""
    span_s = invocations * 0.1
    __, unprotected = run_workload(invocations, plan=chaos_plan(span_s))
    policy = ResiliencePolicy(retry=RetryPolicy(
        max_attempts=8, base_delay_s=0.5, multiplier=2.0, jitter=0.0,
    ))
    __, protected = run_workload(invocations, plan=chaos_plan(span_s),
                                 policy=policy)
    without = failed_count(unprotected)
    with_policy = failed_count(protected)
    assert without > 0, "the fault plan injected no failures to recover"
    return without, with_policy, 1.0 - with_policy / without


def profiled_share(invocations: int) -> float:
    """Guard-attributable fraction of one empty-plan profiled run."""
    profile = cProfile.Profile()
    profile.enable()
    run_workload(invocations, plan=FaultPlan())
    profile.disable()
    stats = pstats.Stats(profile)
    total = stats.total_tt
    guard_s = 0.0
    for (filename, _line, name), row in stats.stats.items():
        if name in CHAOS_FRAMES and filename.endswith("faults.py"):
            guard_s += row[3]  # cumulative time of the guard entry point
    return guard_s / total if total else 0.0


def timed_pairs(invocations: int):
    """Interleaved (plain_s, empty_plan_s) medians over REPEATS samples."""
    plain, guarded = [], []
    gc.disable()
    try:
        for index in range(REPEATS):
            order = (False, True) if index % 2 == 0 else (True, False)
            sample = {}
            for armed in order:
                t0 = time.perf_counter()
                run_workload(invocations,
                             plan=FaultPlan() if armed else None)
                sample[armed] = time.perf_counter() - t0
            plain.append(sample[False])
            guarded.append(sample[True])
    finally:
        gc.enable()
    return statistics.median(plain), statistics.median(guarded)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"shrink the workload to {SMOKE_INVOCATIONS} invocations (CI gate)",
    )
    args = parser.parse_args(argv)
    invocations = SMOKE_INVOCATIONS if args.smoke else FULL_INVOCATIONS
    bound = SMOKE_MAX_OVERHEAD if args.smoke else MAX_OVERHEAD

    # Behaviour neutrality: an empty plan must not perturb the run.
    plain_app, plain_records = run_workload(invocations)
    armed_app, armed_records = run_workload(invocations, plan=FaultPlan())
    assert plain_app.total_cost_usd() == armed_app.total_cost_usd(), (
        "an empty fault plan changed simulation behaviour"
    )
    assert failed_count(plain_records) == failed_count(armed_records) == 0

    without, with_policy, recovered = recovery_fraction(invocations)
    share = profiled_share(invocations)
    plain_s, guarded_s = timed_pairs(invocations)
    wall_overhead = guarded_s / plain_s - 1.0

    print_table(
        "E38: chaos-plane recovery efficacy and disabled-chaos overhead",
        ["invocations", "failed (no policy)", "failed (policy)",
         "recovered", "guard share", "wall overhead"],
        [[invocations, without, with_policy, f"{recovered:.1%}",
          f"{share:.2%}", f"{wall_overhead:+.1%}"]],
        note=(
            f"gates: recovery >= {MIN_RECOVERY:.0%} on the same seeded "
            f"fault schedule; empty-plan profiled guard share < {bound:.0%} "
            f"(wall medians of {REPEATS} interleaved pairs are informative "
            "only)"
        ),
    )

    if not args.smoke:
        out = pathlib.Path(__file__).parent / "BENCH_chaos_overhead.json"
        out.write_text(json.dumps({
            "invocations": invocations,
            "failed_without_policy": without,
            "failed_with_policy": with_policy,
            "recovered_fraction": recovered,
            "guard_share": share,
            "plain_s": plain_s,
            "guarded_s": guarded_s,
            "wall_overhead": wall_overhead,
            "recovery_bound": MIN_RECOVERY,
            "overhead_bound": bound,
        }, indent=2) + "\n")

    assert recovered >= MIN_RECOVERY, (
        f"resilience recovered only {recovered:.1%} of chaos-injected "
        f"failures (bound {MIN_RECOVERY:.0%})"
    )
    assert share < bound, (
        f"empty-plan guard share {share:.2%} exceeds the {bound:.0%} bound"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
