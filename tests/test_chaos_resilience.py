"""Unit tests for resilience policies, the resilient invoker, guarded
clients, sandbox crash injection, and the experiment harness."""

import math

import pytest

import taureau
from taureau.chaos import (
    ChaosExperiment,
    CircuitBreaker,
    CircuitOpenError,
    FaultInjected,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
    all_invocations_terminated,
    sandboxes_conserved,
)
from taureau.core import PlatformConfig
from taureau.core.function import InvocationStatus
from taureau.jiffy import BlockPool, CapacityError, JiffyController, PoolExhausted
from taureau.baas import BlobStore
from taureau.orchestration import ExecutionFailed, Retry, Task, TaskFailed
from taureau.sim import Simulation


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=5.0, jitter=0.0)
        rng = Simulation(seed=0).rng.stream("test")
        assert [policy.backoff_s(a, rng) for a in range(4)] == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.5)
        rng = Simulation(seed=1).rng.stream("test")
        for attempt in range(50):
            delay = policy.backoff_s(attempt, rng)
            assert 0.5 <= delay <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def test_full_state_cycle(self):
        sim = Simulation(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=2, reset_timeout_s=10.0)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        sim.run(until=10.0)
        # First allow() after the timeout admits exactly one probe.
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert [state for __, state in breaker.transitions] == [
            "open", "half_open", "closed",
        ]

    def test_probe_failure_reopens(self):
        sim = Simulation(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=1, reset_timeout_s=5.0)
        breaker.record_failure()
        sim.run(until=5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_state_values_for_gauge(self):
        sim = Simulation(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=1)
        assert breaker.state_value == 0
        breaker.record_failure()
        assert breaker.state_value == 2


def flaky_platform(fail_first, policy, seed=0, **spec_kwargs):
    app = taureau.Platform(seed=seed)
    attempts = []

    @app.function("flaky", **spec_kwargs)
    def flaky(event, ctx):
        attempts.append(event)
        ctx.charge(0.1)
        if len(attempts) <= fail_first:
            raise RuntimeError("flaky failure")
        return "ok"

    invoker = app.with_resilience(policy).resilience
    return app, invoker, attempts


class TestResilientInvoker:
    def test_retry_recovers_transient_failures(self):
        app, __, attempts = flaky_platform(
            fail_first=2, policy=ResiliencePolicy(retry=RetryPolicy(max_attempts=3))
        )
        record = app.invoke_sync("flaky", "x")
        assert record.status is InvocationStatus.OK
        assert record.response == "ok"
        assert len(attempts) == 3
        family = app.metrics.labeled_counter(
            "retries_by", ("component", "outcome")
        )
        counts = {key: child.value for key, child in family.items()}
        assert counts[("faas.client", "retry")] == 2
        assert counts[("faas.client", "recovered")] == 1

    def test_exhausted_retries_resolve_as_failure(self):
        app, __, attempts = flaky_platform(
            fail_first=100,
            policy=ResiliencePolicy(retry=RetryPolicy(max_attempts=2)),
        )
        record = app.invoke_sync("flaky", "x")
        assert record.status is InvocationStatus.ERROR
        assert len(attempts) == 3  # initial + 2 retries
        family = app.metrics.labeled_counter(
            "retries_by", ("component", "outcome")
        )
        counts = {key: child.value for key, child in family.items()}
        assert counts[("faas.client", "exhausted")] == 1

    def test_breaker_short_circuits_and_probes(self):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=0),
            breaker_failure_threshold=1,
            breaker_reset_timeout_s=10.0,
        )
        app, invoker, attempts = flaky_platform(fail_first=1, policy=policy)
        first = app.invoke_sync("flaky", 1)
        assert first.status is InvocationStatus.ERROR
        assert invoker.breaker_state("flaky") == "open"
        second = app.invoke_sync("flaky", 2)
        assert second.status is InvocationStatus.THROTTLED
        assert isinstance(second.error, CircuitOpenError)
        assert len(attempts) == 1  # the short-circuited call never ran
        assert app.metrics.counter("breaker_short_circuits").value == 1
        gauge = app.metrics.labeled_gauge("breaker_state", ("function",))
        assert {k: g.value for k, g in gauge.items()} == {("flaky",): 2}
        app.run(until=app.sim.now + 10.0)
        third = app.invoke_sync("flaky", 3)  # the half-open probe succeeds
        assert third.status is InvocationStatus.OK
        assert invoker.breaker_state("flaky") == "closed"

    def test_attempt_timeout_abandons_slow_attempts(self):
        app = taureau.Platform(seed=0)

        @app.function("slow")
        def slow(event, ctx):
            ctx.charge(5.0)
            return "late"

        app.with_resilience(ResiliencePolicy(
            retry=RetryPolicy(max_attempts=0), attempt_timeout_s=1.0,
        ))
        record = app.invoke_sync("slow", None)
        assert record.status is InvocationStatus.THROTTLED
        assert "timed out client-side" in str(record.error)

    def test_all_timed_out_call_keeps_its_arrival_and_counts_no_extra(self):
        app = taureau.Platform(seed=0)

        @app.function("slow")
        def slow(event, ctx):
            ctx.charge(5.0)
            return "late"

        app.with_resilience(ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.5, jitter=0.0),
            attempt_timeout_s=1.0,
        ))
        app.run(until=3.0)
        record = app.invoke_sync("slow", None)
        # Attempts at t=3.0 and t=4.5 each time out after 1 s.
        assert record.status is InvocationStatus.THROTTLED
        assert record.arrival_time == 3.0
        assert record.end_to_end_latency_s == 2.5
        app.run()
        # The two abandoned attempts are the only invocations.
        assert app.metrics.counter("invocations").value == 2
        ok, detail = all_invocations_terminated(app)
        assert ok, detail

    def test_hedged_request_wins(self):
        app = taureau.Platform(seed=0)

        @app.function("steady")
        def steady(event, ctx):
            ctx.charge(2.0)
            return "done"

        app.with_resilience(ResiliencePolicy(
            retry=RetryPolicy(max_attempts=0), hedge_after_s=0.5,
        ))
        record = app.invoke_sync("steady", None)
        assert record.status is InvocationStatus.OK
        assert app.metrics.counter("hedged_requests").value == 1

    @pytest.mark.parametrize("policy", [
        {"attempt_timeout_s": 30.0},
        {"hedge_after_s": 20.0},
        {"attempt_timeout_s": 30.0, "hedge_after_s": 0.05},
    ])
    def test_a_resolved_call_leaves_no_timer_queued(self, policy):
        def drain(**policy):
            app = taureau.Platform(seed=0, config=PlatformConfig(keep_alive_s=1.0))

            @app.function("f")
            def f(event, ctx):
                ctx.charge(0.1)

            if policy:
                app.with_resilience(ResiliencePolicy(retry=None, **policy))
            monitor = app.with_monitoring().monitor
            done = app.invoke("f")
            app.run()
            assert done.value.status is InvocationStatus.OK
            return app.sim.now, monitor.ticks

        assert drain(**policy) == drain() == (2.0, 2)

    def test_a_hedge_win_cancels_the_queued_relaunch(self):
        app = taureau.Platform(seed=0, config=PlatformConfig(keep_alive_s=1.0))
        attempts = []

        @app.function("f")
        def f(event, ctx):
            attempts.append(app.sim.now)
            if len(attempts) == 1:
                raise RuntimeError("first attempt fails")
            ctx.charge(0.1)

        app.with_resilience(ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1, base_delay_s=10.0, jitter=0.0),
            hedge_after_s=0.5,
        ))
        done = app.invoke("f")
        app.run()
        assert done.value.status is InvocationStatus.OK
        assert len(attempts) == 2  # the relaunch due at t~10 never ran
        assert app.sim.now < 10.0

    def test_retry_budget_bounds_total_retries(self):
        app, __, attempts = flaky_platform(
            fail_first=100,
            policy=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=5), retry_budget=1,
            ),
        )
        app.invoke_sync("flaky", 1)
        app.invoke_sync("flaky", 2)
        # 2 initial attempts + exactly 1 budgeted retry across the run.
        assert len(attempts) == 3
        assert app.metrics.counter("retry_budget_exhausted").value >= 1


class TestSandboxCrash:
    def test_crash_surfaces_fault_injected_error(self):
        app = taureau.Platform(seed=0)

        @app.function("long")
        def long_task(event, ctx):
            ctx.charge(10.0)
            return "done"

        app.with_chaos(FaultPlan().crash_sandbox(at_s=3.0))
        record = app.invoke_sync("long", None)
        assert record.status is InvocationStatus.ERROR
        assert isinstance(record.error, FaultInjected)
        assert record.error.kind == "sandbox_crash"
        assert app.metrics.counter("sandbox_crashes").value == 1
        assert [e.kind for e in app.chaos.events] == ["sandbox_crash"]

    def test_resilience_recovers_a_crashed_sandbox(self):
        app = taureau.Platform(seed=0)

        @app.function("long")
        def long_task(event, ctx):
            ctx.charge(10.0)
            return "done"

        app.with_resilience(ResiliencePolicy(retry=RetryPolicy(max_attempts=2)))
        app.with_chaos(FaultPlan().crash_sandbox(at_s=3.0))
        record = app.invoke_sync("long", None)
        assert record.status is InvocationStatus.OK
        assert record.response == "done"


class TestGuardedClients:
    def test_partition_raises_fault_injected(self):
        app = taureau.Platform(seed=0)
        kv = app.with_kvstore().kv
        app.with_chaos(FaultPlan().partition("baas.kv", 0.0, 10.0))
        with pytest.raises(FaultInjected) as excinfo:
            kv.put("k", 1)
        assert excinfo.value.component == "baas.kv"
        assert excinfo.value.kind == "partition"
        # After the window, the same op succeeds.
        app.run(until=10.0)
        assert kv.put("k", 1) == 1

    def test_degrade_charges_extra_latency(self):
        app = taureau.Platform(seed=0)
        app.with_kvstore()
        app.with_chaos(FaultPlan().degrade("baas.kv", 0.0, 100.0,
                                           extra_latency_s=0.25))

        @app.function("writer")
        def writer(event, ctx):
            ctx.service("kv").put("k", event, ctx=ctx)
            return "ok"

        record = app.invoke_sync("writer", 1)
        assert record.status is InvocationStatus.OK
        assert app.chaos.metrics.counter("injected_delay_s").value == \
            pytest.approx(0.25)

    def test_guard_retries_in_place_until_window_closes(self):
        app = taureau.Platform(seed=0)
        app.with_kvstore()
        app.with_resilience(ResiliencePolicy(retry=RetryPolicy(
            max_attempts=10, base_delay_s=1.0, multiplier=2.0, jitter=0.0,
        )))
        app.with_chaos(FaultPlan().baas_errors(
            start_s=0.0, end_s=5.0, error_rate=1.0, component="baas.kv",
        ))

        @app.function("writer")
        def writer(event, ctx):
            ctx.service("kv").put("k", event, ctx=ctx)
            return "ok"

        record = app.invoke_sync("writer", 1)
        assert record.status is InvocationStatus.OK
        family = app.chaos.metrics.labeled_counter(
            "retries_by", ("component", "outcome")
        )
        counts = {key: child.value for key, child in family.items()}
        assert counts[("baas.kv", "recovered")] == 1
        assert counts[("baas.kv", "retry")] >= 2
        # Backoffs were charged to the invocation, not skipped over.
        assert record.billed_duration_s >= 3.0


class TestOrchestrationRetries:
    def make(self):
        app = taureau.Platform(seed=0)

        @app.function("fail")
        def fail(event, ctx):
            ctx.charge(0.1)
            raise RuntimeError("nope")

        return app, app.orchestrator()

    def test_exhaustion_raises_execution_failed_with_causes(self):
        app, orchestrator = self.make()
        done, __ = orchestrator.run(Retry(Task("fail"), max_attempts=3), 1)
        app.run()
        error = done.exception
        assert isinstance(error, ExecutionFailed)
        assert isinstance(error, TaskFailed)  # Catch handlers still work
        assert error.node == "fail"
        assert error.attempts == 3
        assert len(error.causes) == 3
        assert "retries exhausted after 3 attempts" in str(error)
        assert "attempt 1:" in str(error)
        family = orchestrator.metrics.labeled_counter("retries_by", ("node",))
        assert {k: c.value for k, c in family.items()} == {("fail",): 3}

    def test_retry_policy_adds_backoff_between_attempts(self):
        app, orchestrator = self.make()
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0, jitter=0.0)
        done, __ = orchestrator.run(
            Retry(Task("fail"), max_attempts=3, policy=policy), 1
        )
        app.run()
        assert isinstance(done.exception, ExecutionFailed)
        # Two backoffs (1s + 2s) separate the three attempts.
        assert app.sim.now >= 3.0

    def test_named_retry_labels_the_metric(self):
        app, orchestrator = self.make()
        done, __ = orchestrator.run(
            Retry(Task("fail"), max_attempts=2, name="ingest"), 1
        )
        app.run()
        assert done.exception.node == "ingest"
        family = orchestrator.metrics.labeled_counter("retries_by", ("node",))
        assert {k: c.value for k, c in family.items()} == {("ingest",): 2}


class TestJiffyCapacityError:
    def make_controller(self):
        sim = Simulation(seed=0)
        pool = BlockPool(sim, node_count=2, blocks_per_node=2,
                         block_size_mb=4.0)
        controller = JiffyController(
            sim, pool=pool, default_ttl_s=36000.0, spill_store=BlobStore(sim)
        )
        return pool, controller

    def test_exhaustion_with_nothing_to_spill_names_the_tenant(self):
        __, controller = self.make_controller()
        pinned = controller.create("/pinned/data", "file", pinned=True,
                                   initial_blocks=3)
        assert pinned.block_count == 3
        controller.create("/hungry/data", "file")
        hungry = controller.open("/hungry/data")
        with pytest.raises(CapacityError) as excinfo:
            for __i in range(10):
                hungry.append(b"", size_mb=3.5)
        error = excinfo.value
        assert isinstance(error, PoolExhausted)  # old handlers still match
        assert error.tenant == "hungry"
        assert error.path == "/hungry/data"
        assert error.requested_mb == pytest.approx(4.0)
        assert error.total_mb == pytest.approx(16.0)
        assert "tenant 'hungry'" in str(error)
        assert controller.metrics.counter("capacity_errors").value == 1

    def test_spillable_pressure_does_not_raise(self):
        __, controller = self.make_controller()
        controller.create("/old/data", "file", initial_blocks=2)
        new = controller.create("/new/data", "file")
        for __i in range(3):
            new.append(b"", size_mb=3.5)
        assert controller.is_spilled("/old/data")
        assert controller.metrics.counter("capacity_errors").value == 0


class TestExperimentInvariants:
    def test_custom_invariant_failure_is_reported(self):
        def scenario(app):
            @app.function("work")
            def work(event, ctx):
                ctx.charge(0.1)
                return event

            app.invoke("work", 1)

        def always_true(app):
            return True

        def never_holds(app):
            return False, "deliberately failing"

        experiment = ChaosExperiment(
            scenario, plan=FaultPlan().crash_sandbox(at_s=1000.0), seed=0,
            invariants=[always_true, never_holds, sandboxes_conserved],
        )
        report = experiment.run()
        assert not report.ok
        assert [r.name for r in report.failures] == ["never_holds"]
        assert "FAIL never_holds: deliberately failing" in report.summary()
        assert "PASS always_true" in report.summary()

    def test_chaos_metrics_surface_in_dashboard(self):
        app = taureau.Platform(seed=0)

        @app.function("work")
        def work(event, ctx):
            ctx.charge(1.0)
            return event

        app.with_chaos(FaultPlan().crash_sandbox(at_s=0.5))
        app.invoke("work", 1)
        app.run()
        snapshot = app.snapshot()
        assert any(key.startswith("chaos.faults_injected_by") for key in snapshot)
        dashboard = app.dashboard()
        assert any(
            key.startswith("chaos.") for key in dashboard["metrics"]
        )
