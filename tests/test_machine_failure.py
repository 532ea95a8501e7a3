"""Tests for provider machine failure and transparent re-execution."""

import pytest

from taureau.cluster import Cluster
from taureau.core import FaasPlatform, FunctionSpec, PlatformConfig
from taureau.sim import Simulation


def make_stack(machines=2):
    sim = Simulation(seed=0)
    cluster = Cluster.homogeneous(machines, cpu_cores=8, memory_mb=4096)
    platform = FaasPlatform(
        sim, cluster=cluster, config=PlatformConfig(keep_alive_s=300.0)
    )
    return sim, cluster, platform


def work(event, ctx):
    ctx.charge(5.0)
    return f"done-{event}"


class TestMachineFailure:
    def test_inflight_invocation_transparently_reexecuted(self):
        sim, cluster, platform = make_stack()
        platform.register(FunctionSpec(name="job", handler=work, memory_mb=512))
        done = platform.invoke("job", 1)
        sim.run(until=1.0)  # cold start finished, execution in flight
        victim = cluster.machines[0]
        assert platform._sandboxes_on[victim.machine_id]
        interrupted = platform.fail_machine(victim)
        assert interrupted == 1
        record = sim.run(until=done)
        assert record.succeeded
        assert record.response == "done-1"
        assert record.attempts == 2  # the interrupted try + the rerun
        assert record.machine_id != victim.machine_id

    def test_infra_retry_does_not_consume_user_retries(self):
        sim, cluster, platform = make_stack()
        platform.register(
            FunctionSpec(name="job", handler=work, memory_mb=512, max_retries=0)
        )
        done = platform.invoke("job", 7)
        sim.run(until=1.0)
        platform.fail_machine(cluster.machines[0])
        record = sim.run(until=done)
        assert record.succeeded  # even with max_retries=0

    def test_interrupted_attempt_is_not_billed(self):
        sim, cluster, platform = make_stack()
        platform.register(FunctionSpec(name="job", handler=work, memory_mb=512))
        done = platform.invoke("job", 1)
        sim.run(until=3.0)  # a few seconds into the 5 s execution
        platform.fail_machine(cluster.machines[0])
        record = sim.run(until=done)
        # Only the successful rerun is billed: one 5 s execution.
        assert record.billed_duration_s == pytest.approx(5.0)

    def test_warm_pool_on_failed_machine_is_lost(self):
        sim, cluster, platform = make_stack()
        quick = FunctionSpec(
            name="quick", handler=lambda e, c: c.charge(0.01), memory_mb=512
        )
        platform.register(quick)
        platform.invoke_sync("quick", None)
        victim = next(
            machine for machine in cluster.machines
            if platform._sandboxes_on[machine.machine_id]
        )
        assert platform.warm_pool_size("quick") == 1
        platform.fail_machine(victim)
        assert platform.warm_pool_size("quick") == 0
        # The next invocation is a cold start on a surviving machine.
        record = platform.invoke_sync("quick", None)
        assert record.cold_start and record.succeeded

    def test_idle_sandbox_on_failed_machine_is_not_evicted_later(self):
        sim, cluster, platform = make_stack()
        platform.register(FunctionSpec(
            name="quick", handler=lambda e, c: c.charge(0.01), memory_mb=512,
        ))
        platform.invoke_sync("quick", None)
        finished_at = sim.now
        victim = next(
            machine for machine in cluster.machines
            if platform._sandboxes_on[machine.machine_id]
        )
        platform.fail_machine(victim)
        # Retiring the dead sandbox cancels its keep-alive check (300 s),
        # so the run ends at its last real event and expires nothing.
        sim.run()
        assert sim.now == pytest.approx(0.333, abs=1e-3)
        assert sim.now == finished_at
        snapshot = platform.metrics.snapshot()
        assert "faas.sandbox_evictions" not in snapshot
        assert "faas.sandbox_expirations" not in snapshot

    def test_failure_during_cold_start_redispatches(self):
        sim, cluster, platform = make_stack()
        platform.register(FunctionSpec(name="job", handler=work, memory_mb=512))
        done = platform.invoke("job", 1)
        sim.run(until=0.01)  # still inside the cold start window
        victim = next(
            machine for machine in cluster.machines
            if platform._sandboxes_on[machine.machine_id]
        )
        platform.fail_machine(victim)
        record = sim.run(until=done)
        assert record.succeeded
        assert record.attempts >= 2

    def test_accounting_clean_after_failure(self):
        sim, cluster, platform = make_stack()
        platform.register(FunctionSpec(name="job", handler=work, memory_mb=512))
        events = [platform.invoke("job", i) for i in range(4)]
        sim.run(until=1.0)
        platform.fail_machine(cluster.machines[0])
        sim.run()
        assert all(event.value.succeeded for event in events)
        assert platform._running == 0
        survivor = cluster.machines[0]
        # Warm sandboxes remain; CPU fully released.
        assert platform._cpu_load[survivor.machine_id] == pytest.approx(0.0)
        assert len(cluster) == 1

    def test_redispatch_follows_sandbox_placement_order(self):
        sim, cluster, platform = make_stack(machines=2)
        platform.register(FunctionSpec(name="job", handler=work, memory_mb=512))
        for i in range(3):
            platform.invoke("job", i)
        sim.run(until=6.0)  # three sandboxes, all idle again
        for i in range(3, 6):
            platform.invoke("job", i)  # LIFO reuse: newest-returned first
        sim.run(until=7.0)
        victim = max(
            cluster.machines,
            key=lambda machine: len(platform._sandboxes_on[machine.machine_id]),
        )
        executing_on = {sandbox: attempt
                        for attempt, sandbox in platform._executing.items()}
        expected = [
            executing_on[sandbox]
            for sandbox in platform._sandboxes_on[victim.machine_id]
            if sandbox in executing_on
        ]
        # Placement order differs from start order, so the pin bites.
        assert len(expected) == 3
        assert expected != list(platform._executing)
        redispatched = []
        dispatch = platform._dispatch

        def recording_dispatch(attempt):
            redispatched.append(attempt)
            dispatch(attempt)

        platform._dispatch = recording_dispatch
        assert platform.fail_machine(victim) == 3
        assert redispatched == expected

    def test_failing_unknown_machine_rejected(self):
        sim, cluster, platform = make_stack()
        foreign_sim = Simulation(seed=1)
        foreign = Cluster.homogeneous(1).machines[0]
        with pytest.raises(ValueError):
            platform.fail_machine(foreign)
        elastic = FaasPlatform(Simulation(seed=2))
        with pytest.raises(ValueError):
            elastic.fail_machine(foreign)

    def test_provisioned_capacity_lost_and_accounted(self):
        sim, cluster, platform = make_stack()
        platform.register(
            FunctionSpec(name="quick", handler=lambda e, c: c.charge(0.01),
                         memory_mb=512)
        )
        platform.set_provisioned_concurrency("quick", 2)
        before = platform._provisioned_memory_mb
        victims = [
            machine for machine in list(cluster.machines)
            if platform._sandboxes_on[machine.machine_id]
        ]
        for victim in victims:
            platform.fail_machine(victim)
        assert platform._provisioned_memory_mb < before
