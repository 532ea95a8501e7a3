"""Property sweep: the durable contract holds across 50 seeded fault plans.

E43's property half: for 50 seeds, derive a random-but-seeded
fault plan (sandbox crash rate, BaaS error window, optional machine
crashes), run a billing+effect workload under the durable layer, and
assert the whole invariant set — every invocation terminal, exactly-once
effects, no lost acked work, no double billing.  A sample of seeds
additionally re-runs the entire experiment through
``verify_determinism``: crash recovery replays byte-identically.

A second axis varies the layer stack over a sample of the seeds:
durability on/off × resilience on/off × ``max_retries`` 0/2, so the
platform's retry budget and durable recovery are checked together and
apart, with and without client-side retries.
"""

import functools
import itertools
import random

import pytest

from taureau.chaos import (
    ChaosExperiment,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
    all_invocations_terminated,
    exactly_once_effects,
    no_double_billing,
    no_lost_acked_work,
)

SEEDS = list(range(50))
SPAN_S = 3.0
INVOCATIONS = 24

INVARIANTS = [
    all_invocations_terminated,
    exactly_once_effects,
    no_lost_acked_work,
    no_double_billing,
]


def random_plan(seed: int) -> FaultPlan:
    """A fault plan whose shape is drawn from the (seeded) test rng."""
    rng = random.Random(seed * 7919 + 13)
    plan = FaultPlan().crash_sandbox(
        rate_hz=rng.uniform(0.5, 4.0), start_s=0.0, end_s=SPAN_S,
    )
    if rng.random() < 0.7:
        window_start = rng.uniform(0.0, 0.5 * SPAN_S)
        plan.baas_errors(
            start_s=window_start,
            end_s=window_start + rng.uniform(0.2, 0.4) * SPAN_S,
            error_rate=rng.uniform(0.5, 1.0),
            component="baas.kv",
        )
    if rng.random() < 0.3:
        plan.crash_sandbox(at_s=rng.uniform(0.0, SPAN_S))
    return plan


def scenario(app, max_retries=0):
    app.with_kvstore()
    counted = {"n": 0}

    @app.function("writer", max_retries=max_retries)
    def writer(event, ctx):
        ctx.charge(0.05)
        kv = ctx.service("kv")
        kv.put(f"k{event % 8}", event, ctx=ctx)
        kv.counter_add("total", 1, ctx=ctx)

        def bump():
            counted["n"] += 1
            return counted["n"]

        ctx.effect("bump", bump)
        return event

    step = SPAN_S / INVOCATIONS
    for index in range(INVOCATIONS):
        app.sim.schedule_at(index * step, app.invoke, "writer", index)


def experiment(seed: int, durability=True, resilience=True,
               max_retries=0) -> ChaosExperiment:
    return ChaosExperiment(
        functools.partial(scenario, max_retries=max_retries),
        plan=random_plan(seed),
        seed=seed,
        durability=durability,
        policy=(ResiliencePolicy(retry=RetryPolicy(max_attempts=3))
                if resilience else None),
        invariants=INVARIANTS if durability else [all_invocations_terminated],
    )


STACKS = [
    pytest.param(
        durability, resilience, max_retries,
        id=f"{'durable' if durability else 'bare'}-"
           f"{'resilient' if resilience else 'direct'}-retries{max_retries}",
    )
    for durability, resilience, max_retries in itertools.product(
        (True, False), (True, False), (0, 2)
    )
]


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_hold_under_random_fault_plan(seed):
    report = experiment(seed).run()
    assert report.ok, f"seed {seed}:\n{report.summary()}"
    app = report.platform
    # The workload-level exactly-once witness: every logical invocation
    # incremented the counter exactly once, however many attempts ran.
    assert app.kv.get("total") == INVOCATIONS
    assert app.durable.summary()["entries_open"] == 0


@pytest.mark.parametrize("seed", SEEDS[::10])
def test_recovery_replays_byte_identically(seed):
    # Full determinism verification is ~3 whole runs per seed, so a
    # stratified sample of the seed set keeps the suite fast; the
    # invariant sweep above still covers all 50.
    report = experiment(seed).verify_determinism(runs=2)
    assert report.ok, f"seed {seed}: {report.mismatches[:3]}"


@pytest.mark.parametrize("durability,resilience,max_retries", STACKS)
@pytest.mark.parametrize("seed", SEEDS[::13])
def test_layer_stacks_keep_their_invariants(seed, durability, resilience,
                                            max_retries):
    stack = experiment(seed, durability, resilience, max_retries)
    report = stack.run()
    assert report.ok, f"seed {seed}:\n{report.summary()}"
    if durability:
        assert report.platform.kv.get("total") == INVOCATIONS
    else:
        determinism = stack.verify_determinism(runs=2)
        assert determinism.ok, f"seed {seed}: {determinism.mismatches[:3]}"


def test_different_seeds_explore_different_fault_schedules():
    first = experiment(0).run()
    second = experiment(1).run()
    times = [event.time for event in first.fault_events]
    other = [event.time for event in second.fault_events]
    assert times != other
