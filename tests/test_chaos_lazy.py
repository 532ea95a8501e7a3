"""Lazy chaos firings against an eager oracle.

Each discrete spec keeps one queued firing; a rate spec draws its next
instant from its own ``chaos.schedule.<index>.<kind>`` stream when a
firing runs.  Over random seeds, bounded plans and install times, the
instants ``_fire`` runs at and ``fault_schedule()`` must equal an
oracle that draws every instant up front and queues them all at
install, overdue ones at the install time.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import taureau
from taureau.chaos import FaultPlan
from taureau.chaos.faults import ChaosController
from taureau.sim.rng import derive_seed

DISCRETE = ("crash_machine", "crash_sandbox", "crash_broker", "lose_jiffy_node")

rate_specs = st.tuples(
    st.sampled_from(DISCRETE), st.none(), st.floats(0.05, 2.0),
    st.floats(0.0, 20.0), st.floats(0.5, 40.0),
)
one_shots = st.tuples(
    st.sampled_from(DISCRETE), st.floats(0.0, 40.0), st.none(), st.none(),
    st.none(),
)
plans = st.lists(st.one_of(rate_specs, one_shots), min_size=1, max_size=5)


def build(plan_specs):
    plan = FaultPlan().baas_errors(start_s=1.0, end_s=2.0, error_rate=0.5)
    for method, at_s, rate_hz, start_s, length_s in plan_specs:
        if at_s is not None:
            getattr(plan, method)(at_s=at_s)
        else:
            getattr(plan, method)(rate_hz=rate_hz, start_s=start_s,
                                  end_s=start_s + length_s)
    return plan


def eager_oracle(plan, seed, installed_at):
    """``(fire times with spec index, in queue order; fault schedule)``."""
    queued, schedule = [], []
    for index, spec in enumerate(plan.specs):
        if spec.at_s is None and spec.rate_hz is None:  # a window
            schedule.append((spec.start_s, spec.kind, spec.component, index))
            continue
        times = [spec.at_s]
        if spec.rate_hz is not None:
            rng = random.Random(
                derive_seed(seed, f"chaos.schedule.{index}.{spec.kind}"))
            times, when = [], spec.start_s
            while True:
                when += rng.expovariate(spec.rate_hz)
                if when >= spec.end_s:
                    break
                times.append(when)
        for when in times:
            schedule.append((when, spec.kind, "", index))
            queued.append((max(when, installed_at), len(queued), index))
    return [(when, index) for when, __, index in sorted(queued)], sorted(schedule)


@given(seed=st.integers(0, 2 ** 32), plan_specs=plans,
       installed_at=st.sampled_from([0.0, 7.5, 30.0]))
@settings(max_examples=30, deadline=None)
def test_lazy_firings_equal_the_eager_oracle(seed, plan_specs, installed_at):
    plan = build(plan_specs)
    fired = []
    fire = ChaosController._fire

    def recording(controller, spec, firings):
        index = next(i for i, s in enumerate(plan.specs) if s is spec)
        fired.append((controller.sim.now, index))
        fire(controller, spec, firings)

    app = taureau.Platform(seed=seed, machines=3)
    app.sim.run(until=installed_at)
    with mock.patch.object(ChaosController, "_fire", recording):
        controller = app.with_chaos(plan).chaos
        schedule = controller.fault_schedule()
        app.run()
    expected_fired, expected_schedule = eager_oracle(plan, seed, installed_at)
    assert fired == expected_fired
    assert schedule == expected_schedule
    assert controller.fault_schedule() == schedule


def test_an_endless_window_queues_one_firing():
    app = taureau.Platform(seed=5)
    queued = len(app.sim._heap)
    app.with_chaos(FaultPlan().crash_sandbox(rate_hz=1.0, start_s=0.0, end_s=1e7))
    assert len(app.sim._heap) == queued + 1
    app.run(until=100.0)
    assert len(app.sim._heap) == queued + 1
    assert len(app.chaos.events) > 50
