"""E43 — Durable execution: journaled replay beats blind re-execution.

One seeded workload — FaaS handlers that bill 50ms, publish a
notification, then write through a guarded KV client — under the E38
fault plan (a hard BaaS error window plus Poisson sandbox crashes), in
three configurations:

- *unprotected*: ``max_retries=0`` — counts how many invocations the
  plan kills outright;
- *re-execution*: the platform's transparent retry (§4.1, E32) — every
  retried attempt re-publishes the notification and re-bills the
  slices the failed attempt already charged;
- *durable*: the same retries plus ``with_durability()`` — attempts
  and journal-driven recoveries replay logged effects instead.

Gates (asserted):

- the durable run recovers **100%** of injected failures (zero failed
  records on the same seeded fault schedule, where the unprotected run
  loses hundreds);
- the durable run applies **zero duplicate effects** (workload-level
  witness: subscriber deliveries land exactly at the invocation count)
  and bills **zero duplicate 100ms slices**, while the re-execution
  baseline measurably duplicates both;
- with **no faults**, journaling costs at most **5%** — in billed cost
  and in mean end-to-end latency — over an unjournaled run.

Run directly (``python benchmarks/bench_durable_recovery.py [--smoke]``);
``--smoke`` shrinks the invocation count for the CI gate.  Full runs
write ``benchmarks/BENCH_durable_recovery.json``; smoke runs write
nothing, and neither does the pytest function ``test_durable_recovery``.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from tables import print_table

import taureau
from taureau.chaos import FaultPlan
from taureau.core.function import InvocationStatus

FULL_INVOCATIONS = 2000
SMOKE_INVOCATIONS = 400
MAX_NO_FAULT_OVERHEAD = 0.05


def chaos_plan(span_s: float) -> FaultPlan:
    """The E38 plan: a BaaS outage window plus Poisson sandbox crashes."""
    return (FaultPlan()
            .baas_errors(start_s=0.2 * span_s, end_s=0.4 * span_s,
                         error_rate=1.0, component="baas.kv")
            .crash_sandbox(rate_hz=4.0 / span_s, start_s=0.0, end_s=span_s))


def run_workload(invocations: int, plan=None, retries=0, durable=False):
    """One seeded run; returns (platform, records, deliveries)."""
    app = taureau.Platform(seed=42).with_kvstore().with_notifications()
    if durable:
        app.with_durability()
    app.sns.create_topic("orders")
    deliveries = []
    app.sns.subscribe("orders", deliveries.append)

    @app.function("work", max_retries=retries)
    def work(event, ctx):
        ctx.charge(0.05)
        # Publish-then-write: the classic duplicate hazard.  The KV put
        # fails inside the BaaS window, so a blind re-execution of the
        # handler re-publishes the already-delivered notification.
        ctx.service("sns").publish("orders", event, ctx=ctx)
        ctx.service("kv").put(f"k{event % 64}", event, ctx=ctx)
        return event

    if plan is not None:
        app.with_chaos(plan)

    records = []
    for index in range(invocations):
        app.sim.schedule_at(
            index * 0.1,
            lambda i=index: records.append(app.invoke("work", i)),
        )
    app.run()
    return app, [event.value for event in records], deliveries


def failed_count(records) -> int:
    return sum(1 for r in records if r.status is not InvocationStatus.OK)


def mean_latency(records) -> float:
    return sum(r.end_to_end_latency_s for r in records) / len(records)


def double_billed(app) -> int:
    metric = app.faas.metrics.find("billing.double_billed_slices")
    return int(metric.value) if metric is not None else 0


def run_experiment(invocations: int) -> dict:
    """Run the four configurations, print the E43 table and assert its
    gates; returns the numbers ``BENCH_durable_recovery.json`` records."""
    span_s = invocations * 0.1

    # Unprotected baseline: how many failures does the plan inject?
    __, unprotected, __ = run_workload(invocations, plan=chaos_plan(span_s))
    injected = failed_count(unprotected)
    assert injected > 0, "the fault plan injected no failures to recover"

    # Transparent re-execution: recovers by re-running the handler,
    # duplicating its already-applied effects and billed slices.
    rerun_app, rerun, rerun_deliveries = run_workload(
        invocations, plan=chaos_plan(span_s), retries=3,
    )
    rerun_failed = failed_count(rerun)
    rerun_duplicates = len(rerun_deliveries) - invocations
    rerun_double_billed = double_billed(rerun_app)

    # Durable run: journaled replay on the identical fault schedule.
    durable_app, durable, durable_deliveries = run_workload(
        invocations, plan=chaos_plan(span_s), retries=3, durable=True,
    )
    durable_failed = failed_count(durable)
    durable_duplicates = len(durable_deliveries) - invocations
    durable_double_billed = double_billed(durable_app)
    durable_summary = durable_app.durable.summary()

    # Journal overhead with no faults at all.
    plain_app, plain, __ = run_workload(invocations)
    journaled_app, journaled, __ = run_workload(invocations, durable=True)
    cost_ratio = journaled_app.total_cost_usd() / plain_app.total_cost_usd()
    latency_ratio = mean_latency(journaled) / mean_latency(plain)

    print_table(
        "E43: durable execution vs re-execution under the E38 fault plan",
        ["config", "failed", "duplicate effects", "double-billed slices"],
        [
            ["unprotected", injected, "-", "-"],
            ["re-execution", rerun_failed, rerun_duplicates,
             rerun_double_billed],
            ["durable", durable_failed, durable_duplicates,
             durable_double_billed],
        ],
        note=(
            f"{invocations} invocations, seed 42; durable recoveries: "
            f"{durable_summary['recoveries']}, effects replayed: "
            f"{durable_summary['effects_replayed']}; no-fault journal "
            f"overhead: cost x{cost_ratio:.4f}, mean latency "
            f"x{latency_ratio:.4f} (bound x{1 + MAX_NO_FAULT_OVERHEAD:.2f})"
        ),
    )

    assert durable_failed == 0, (
        f"durable execution left {durable_failed} of {injected} injected "
        "failures unrecovered (the gate is 100%)"
    )
    assert durable_duplicates == 0, (
        f"durable run applied {durable_duplicates} duplicate effects"
    )
    assert durable_double_billed == 0, (
        f"durable run double-billed {durable_double_billed} slices"
    )
    assert rerun_duplicates > 0 and rerun_double_billed > 0, (
        "the re-execution baseline duplicated nothing — the fault plan "
        "no longer exercises the hazard this experiment contrasts"
    )
    assert cost_ratio <= 1 + MAX_NO_FAULT_OVERHEAD, (
        f"no-fault journal cost overhead x{cost_ratio:.4f} exceeds "
        f"x{1 + MAX_NO_FAULT_OVERHEAD:.2f}"
    )
    assert latency_ratio <= 1 + MAX_NO_FAULT_OVERHEAD, (
        f"no-fault journal latency overhead x{latency_ratio:.4f} exceeds "
        f"x{1 + MAX_NO_FAULT_OVERHEAD:.2f}"
    )
    return {
        "invocations": invocations,
        "injected_failures": injected,
        "rerun_failed": rerun_failed,
        "rerun_duplicate_effects": rerun_duplicates,
        "rerun_double_billed_slices": rerun_double_billed,
        "durable_failed": durable_failed,
        "durable_duplicate_effects": durable_duplicates,
        "durable_double_billed_slices": durable_double_billed,
        "durable_recoveries": durable_summary["recoveries"],
        "durable_effects_replayed": durable_summary["effects_replayed"],
        "no_fault_cost_ratio": cost_ratio,
        "no_fault_latency_ratio": latency_ratio,
        "overhead_bound": MAX_NO_FAULT_OVERHEAD,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"shrink the workload to {SMOKE_INVOCATIONS} invocations (CI gate)",
    )
    args = parser.parse_args(argv)
    results = run_experiment(
        SMOKE_INVOCATIONS if args.smoke else FULL_INVOCATIONS
    )
    if not args.smoke:
        out = pathlib.Path(__file__).parent / "BENCH_durable_recovery.json"
        out.write_text(json.dumps(results, indent=2) + "\n")
    return 0


def test_durable_recovery(benchmark):
    benchmark.pedantic(
        lambda: run_experiment(FULL_INVOCATIONS), rounds=1, iterations=1
    )


if __name__ == "__main__":
    sys.exit(main())
