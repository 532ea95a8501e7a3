"""Property-based tests (hypothesis) for FaaS platform invariants.

Random workload plans — mixes of functions, arrival gaps and payloads —
must never violate the platform's accounting invariants, whatever the
interleaving of cold starts, keep-alive expiries, retries and queueing.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from taureau.cluster import Cluster
from taureau.core import FaasPlatform, FunctionSpec, InvocationStatus, PlatformConfig
from taureau.sim import Simulation

# A workload plan: list of (arrival_gap_s, function_index, work_s).
plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.0, max_value=3.0),
    ),
    min_size=1,
    max_size=25,
)


def run_plan(plan, keep_alive=5.0, concurrency=None, cluster=None, retries=0):
    sim = Simulation(seed=1)
    platform = FaasPlatform(
        sim,
        cluster=cluster,
        config=PlatformConfig(
            keep_alive_s=keep_alive, concurrency_limit=concurrency
        ),
    )

    def make_handler(index):
        def handler(event, ctx):
            ctx.charge(event["work"])
            if event.get("fail"):
                raise RuntimeError("injected")
            return index

        return handler

    for index in range(3):
        platform.register(
            FunctionSpec(
                name=f"fn{index}",
                handler=make_handler(index),
                memory_mb=128 * (index + 1),
                timeout_s=2.0,
                max_retries=retries,
            )
        )
    events = []
    clock = 0.0
    for gap, index, work in plan:
        clock += gap
        sim.schedule_at(
            clock,
            lambda i=index, w=work: events.append(
                platform.invoke(f"fn{i}", {"work": w})
            ),
        )
    sim.run()
    return sim, platform, [event.value for event in events]


def assert_sandboxes_conserved(platform):
    """After a drain, each created sandbox is idle or retired once."""
    idle = sum(len(bucket) for bucket in platform._idle.values())
    retired = platform.sandboxes_retired
    assert platform.sandboxes_created == idle + sum(retired.values())
    assert platform.metrics.counter("sandbox_evictions").value == (
        retired["evicted"] + retired["expired"])


class TestAccountingInvariants:
    @given(plan=plans)
    @settings(max_examples=40, deadline=None)
    def test_every_invocation_completes_with_consistent_times(self, plan):
        __, __, records = run_plan(plan)
        assert len(records) == len(plan)
        for record in records:
            assert record.end_time >= record.start_time >= record.arrival_time
            assert record.queue_delay_s >= 0

    @given(plan=plans)
    @settings(max_examples=40, deadline=None)
    def test_billing_rounds_up_and_never_undercharges(self, plan):
        __, platform, records = run_plan(plan)
        granularity = platform.config.calibration.billing_granularity_s
        for record in records:
            assert record.billed_duration_s >= record.execution_duration_s - 1e-9
            # Billed duration is a whole number of granules.
            granules = record.billed_duration_s / granularity
            assert abs(granules - round(granules)) < 1e-6
        total = sum(record.cost_usd for record in records)
        assert platform.total_cost_usd() == sum(
            [total], start=0.0
        ) or math.isclose(platform.total_cost_usd(), total)

    @given(plan=plans)
    @settings(max_examples=40, deadline=None)
    def test_timeouts_exactly_when_work_exceeds_cap(self, plan):
        __, __, records = run_plan(plan)
        for (gap, index, work), record in zip(plan, records):
            if work > 2.0:
                assert record.status is InvocationStatus.TIMEOUT
            else:
                assert record.status is InvocationStatus.OK

    @given(plan=plans)
    @settings(max_examples=30, deadline=None)
    def test_sandbox_memory_returns_to_zero_after_expiry(self, plan):
        cluster = Cluster.homogeneous(4, cpu_cores=8, memory_mb=8192)
        sim, platform, records = run_plan(plan, keep_alive=1.0, cluster=cluster)
        sim.run()  # drain all keep-alive expiries
        assert platform._sandbox_memory_mb == 0.0
        assert_sandboxes_conserved(platform)
        assert platform.sandboxes_retired["expired"] == platform.sandboxes_created
        for machine in cluster.machines:
            assert machine.used.memory_mb == 0.0
            assert machine.used.cpu_cores == 0.0

    @given(plan=plans)
    @settings(max_examples=30, deadline=None)
    def test_concurrency_limit_never_exceeded(self, plan):
        sim, platform, records = run_plan(plan, concurrency=2)
        series = platform.metrics.series("running")
        assert all(value <= 2 for value in series.values)
        assert all(record.succeeded or record.status is InvocationStatus.TIMEOUT
                   for record in records)

    @given(plan=plans)
    @settings(max_examples=20, deadline=None)
    def test_same_plan_same_trace(self, plan):
        __, __, first = run_plan(plan)
        __, __, second = run_plan(plan)
        assert [(r.end_time, r.cold_start, r.cost_usd) for r in first] == [
            (r.end_time, r.cold_start, r.cost_usd) for r in second
        ]


class TestTenantCounterInvariant:
    @given(plan=plans)
    @settings(max_examples=20, deadline=None)
    def test_tenant_counters_never_negative_and_drain_to_zero(self, plan):
        cluster = Cluster.homogeneous(2, cpu_cores=8, memory_mb=4096)
        sim, platform, __ = run_plan(plan, keep_alive=1.0, cluster=cluster)
        sim.run()
        for counter in platform._tenants_on.values():
            for count in counter.values():
                assert count == 0


class TestChaosInvariants:
    """Random machine failures must never lose work or corrupt accounting."""

    @given(
        plan=plans,
        failure_times=st.lists(
            st.floats(min_value=0.5, max_value=120.0), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_invocations_complete_despite_machine_failures(
        self, plan, failure_times
    ):
        sim = Simulation(seed=2)
        cluster = Cluster.homogeneous(5, cpu_cores=8, memory_mb=8192)
        platform = FaasPlatform(
            sim, cluster=cluster, config=PlatformConfig(keep_alive_s=2.0)
        )
        platform.register(
            FunctionSpec(
                name="fn0",
                handler=lambda event, ctx: ctx.charge(event["work"]),
                memory_mb=256,
                timeout_s=10.0,
            )
        )
        events = []
        clock = 0.0
        for gap, __, work in plan:
            clock += gap
            sim.schedule_at(
                clock,
                lambda w=work: events.append(
                    platform.invoke("fn0", {"work": w})
                ),
            )

        def crash_one():
            # Never crash the last machine: retries need somewhere to land.
            if len(cluster) > 1:
                platform.fail_machine(cluster.machines[0])

        for when in sorted(failure_times):
            sim.schedule_at(when, crash_one)
        sim.run()
        records = [event.value for event in events]
        assert len(records) == len(plan)
        assert all(record.succeeded for record in records)
        # Accounting drained cleanly on the survivors.
        assert platform._running == 0
        for machine in cluster.machines:
            assert machine.used.cpu_cores == 0.0
        sim.run()  # flush keep-alive expiries
        assert platform._sandbox_memory_mb == 0.0
        assert_sandboxes_conserved(platform)
