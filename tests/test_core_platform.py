"""Integration-level tests for the FaaS platform simulator."""

import pytest

from taureau.cluster import Cluster
from taureau.core import (
    Calibration,
    FaasPlatform,
    FunctionSpec,
    InvocationStatus,
    PlatformConfig,
)
from taureau.sim import Simulation


def make_platform(seed=0, **config_kwargs):
    sim = Simulation(seed=seed)
    platform = FaasPlatform(sim, config=PlatformConfig(**config_kwargs))
    return sim, platform


def echo(event, ctx):
    ctx.charge(1.0)
    return {"echo": event}


class TestBasicInvocation:
    def test_invoke_returns_response(self):
        sim, platform = make_platform()
        platform.register(FunctionSpec(name="echo", handler=echo))
        record = platform.invoke_sync("echo", {"x": 1})
        assert record.status is InvocationStatus.OK
        assert record.response == {"echo": {"x": 1}}
        assert record.execution_duration_s == pytest.approx(1.0)

    def test_first_call_is_cold_second_is_warm(self):
        sim, platform = make_platform()
        platform.register(FunctionSpec(name="echo", handler=echo))
        first = platform.invoke_sync("echo", None)
        second = platform.invoke_sync("echo", None)
        assert first.cold_start and not second.cold_start
        assert first.end_to_end_latency_s > second.end_to_end_latency_s
        assert platform.metrics.counter("cold_starts").value == 1

    def test_keep_alive_zero_forces_all_cold(self):
        sim, platform = make_platform(keep_alive_s=0.0)
        platform.register(FunctionSpec(name="echo", handler=echo))
        records = [platform.invoke_sync("echo", None) for _ in range(3)]
        assert all(record.cold_start for record in records)

    def test_sandbox_expires_after_keep_alive(self):
        sim, platform = make_platform(keep_alive_s=10.0)
        platform.register(FunctionSpec(name="echo", handler=echo))
        platform.invoke_sync("echo", None)
        assert platform.warm_pool_size("echo") == 1
        sim.run(until=sim.now + 11.0)
        assert platform.warm_pool_size("echo") == 0
        assert platform.metrics.counter("sandbox_expirations").value == 1

    def test_decorator_registration(self):
        sim, platform = make_platform()

        @platform.function("hello", memory_mb=128)
        def hello(event, ctx):
            return f"hi {event}"

        record = platform.invoke_sync("hello", "bob")
        assert record.response == "hi bob"
        assert platform.spec("hello").memory_mb == 128

    def test_unknown_function_raises(self):
        __, platform = make_platform()
        with pytest.raises(KeyError):
            platform.invoke("ghost")

    def test_duration_model_supplies_base_time(self):
        sim, platform = make_platform()
        platform.register(
            FunctionSpec(
                name="modeled",
                handler=lambda event, ctx: "done",
                duration_model=lambda event, rng: 2.5,
            )
        )
        record = platform.invoke_sync("modeled", None)
        assert record.execution_duration_s == pytest.approx(2.5)


class TestFailureSemantics:
    def test_handler_exception_becomes_error_record(self):
        sim, platform = make_platform()

        def bad(event, ctx):
            ctx.charge(0.5)
            raise RuntimeError("handler bug")

        platform.register(FunctionSpec(name="bad", handler=bad))
        record = platform.invoke_sync("bad", None)
        assert record.status is InvocationStatus.ERROR
        assert isinstance(record.error, RuntimeError)
        assert platform.metrics.counter("errors").value == 1

    def test_timeout_kills_long_invocation(self):
        sim, platform = make_platform()

        def slow(event, ctx):
            ctx.charge(100.0)
            return "never seen"

        platform.register(FunctionSpec(name="slow", handler=slow, timeout_s=2.0))
        record = platform.invoke_sync("slow", None)
        assert record.status is InvocationStatus.TIMEOUT
        assert record.execution_duration_s == pytest.approx(2.0)

    def test_transparent_retry_recovers_flaky_function(self):
        sim, platform = make_platform()
        calls = {"n": 0}

        def flaky(event, ctx):
            ctx.charge(0.1)
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        platform.register(FunctionSpec(name="flaky", handler=flaky, max_retries=3))
        record = platform.invoke_sync("flaky", None)
        assert record.status is InvocationStatus.OK
        assert record.attempts == 3
        assert platform.metrics.counter("retries").value == 2

    def test_retries_exhausted_reports_last_error(self):
        sim, platform = make_platform()

        def always_bad(event, ctx):
            ctx.charge(0.1)
            raise ValueError("permanent")

        platform.register(
            FunctionSpec(name="bad", handler=always_bad, max_retries=2)
        )
        record = platform.invoke_sync("bad", None)
        assert record.status is InvocationStatus.ERROR
        assert record.attempts == 3

    def test_each_retry_attempt_is_billed(self):
        sim, platform = make_platform()

        def always_bad(event, ctx):
            ctx.charge(0.1)
            raise ValueError("permanent")

        platform.register(FunctionSpec(name="bad", handler=always_bad, max_retries=1))
        record = platform.invoke_sync("bad", None)
        assert record.billed_duration_s == pytest.approx(0.2)


class TestConcurrencyAndThrottling:
    def test_concurrency_limit_queues_excess(self):
        sim, platform = make_platform(concurrency_limit=1)
        platform.register(FunctionSpec(name="echo", handler=echo))
        events = [platform.invoke("echo", i) for i in range(3)]
        sim.run()
        records = [event.value for event in events]
        assert all(record.status is InvocationStatus.OK for record in records)
        # Serialized: each runs ~1s, so completions are spread apart.
        ends = sorted(record.end_time for record in records)
        assert ends[1] - ends[0] > 0.9
        assert ends[2] - ends[1] > 0.9

    def test_throttle_without_queue_rejects(self):
        sim, platform = make_platform(concurrency_limit=1, queue_on_throttle=False)
        platform.register(FunctionSpec(name="echo", handler=echo))
        events = [platform.invoke("echo", i) for i in range(3)]
        sim.run()
        statuses = [event.value.status for event in events]
        assert statuses.count(InvocationStatus.OK) == 1
        assert statuses.count(InvocationStatus.THROTTLED) == 2
        assert platform.metrics.counter("throttles").value == 2

    def test_queue_delay_recorded(self):
        sim, platform = make_platform(concurrency_limit=1)
        platform.register(FunctionSpec(name="echo", handler=echo))
        events = [platform.invoke("echo", i) for i in range(2)]
        sim.run()
        second = events[1].value
        assert second.queue_delay_s > 0.9


class TestClusterBackedPlatform:
    def test_memory_capacity_limits_sandboxes(self):
        sim = Simulation(seed=0)
        cluster = Cluster.homogeneous(1, cpu_cores=64, memory_mb=512)
        platform = FaasPlatform(sim, cluster=cluster)
        platform.register(
            FunctionSpec(name="echo", handler=echo, memory_mb=256)
        )
        events = [platform.invoke("echo", i) for i in range(4)]
        sim.run()
        records = [event.value for event in events]
        assert all(record.status is InvocationStatus.OK for record in records)
        # Only two sandboxes fit at once, so two requests waited.
        waited = [record for record in records if record.queue_delay_s > 0]
        assert len(waited) == 2

    def test_idle_sandboxes_evicted_under_pressure(self):
        sim = Simulation(seed=0)
        cluster = Cluster.homogeneous(1, cpu_cores=64, memory_mb=512)
        platform = FaasPlatform(sim, cluster=cluster)
        platform.register(FunctionSpec(name="a", handler=echo, memory_mb=512))
        platform.register(FunctionSpec(name="b", handler=echo, memory_mb=512))
        assert platform.invoke_sync("a", None).succeeded
        assert platform.warm_pool_size("a") == 1
        # b does not fit beside a's idle sandbox; the platform must evict it.
        assert platform.invoke_sync("b", None).succeeded
        assert platform.warm_pool_size("a") == 0
        assert platform.metrics.counter("sandbox_evictions").value == 1

    def test_every_sandbox_is_retired_once(self):
        sim = Simulation(seed=2)
        cluster = Cluster.homogeneous(1, cpu_cores=64, memory_mb=1024)
        platform = FaasPlatform(
            sim, cluster=cluster, config=PlatformConfig(keep_alive_s=20.0)
        )
        names = [f"fn{index}" for index in range(6)]
        for name in names:
            platform.register(FunctionSpec(name=name, handler=echo, memory_mb=256))
        for index in range(60):
            sim.schedule_at(index * 1.5, platform.invoke, names[index * 5 % 6])

        def conserved():
            # Created = retired + alive; every retirement here is a reclaim.
            metrics = platform.metrics
            alive = sum(len(pool) for pool in platform._sandboxes_on.values())
            return metrics.counter("cold_starts").value == (
                metrics.counter("sandbox_evictions").value + alive)

        sim.run(until=60.0)
        assert conserved()
        sim.run()
        assert conserved()
        metrics = platform.metrics
        pressure = (metrics.counter("sandbox_evictions").value
                    - metrics.counter("sandbox_expirations").value)
        assert pressure > 0  # the run did evict under memory pressure
        assert metrics.counter("sandbox_expirations").value > 0

    def test_contention_stretches_execution(self):
        sim = Simulation(seed=0)
        cluster = Cluster.homogeneous(1, cpu_cores=2, memory_mb=65536)
        platform = FaasPlatform(sim, cluster=cluster)
        platform.register(
            FunctionSpec(name="cpu", handler=echo, memory_mb=128, cpu_demand=2.0)
        )
        events = [platform.invoke("cpu", i) for i in range(2)]
        sim.run()
        durations = sorted(event.value.execution_duration_s for event in events)
        assert durations[0] == pytest.approx(1.0)  # first starts uncontended
        assert durations[1] == pytest.approx(2.0)  # second sees 4 cores demanded / 2

    def test_sandbox_memory_series_tracks_pool(self):
        sim = Simulation(seed=0)
        cluster = Cluster.homogeneous(1, cpu_cores=8, memory_mb=4096)
        platform = FaasPlatform(
            sim, cluster=cluster, config=PlatformConfig(keep_alive_s=5.0)
        )
        platform.register(FunctionSpec(name="echo", handler=echo, memory_mb=1024))
        platform.invoke_sync("echo", None)
        series = platform.metrics.series("sandbox_memory_mb")
        assert series.values[0] == 1024.0
        sim.run()  # let the keep-alive expire
        assert series.values[-1] == 0.0


class TestBilling:
    def test_duration_rounds_up_to_granularity(self):
        sim, platform = make_platform()

        def quick(event, ctx):
            ctx.charge(0.013)
            return None

        platform.register(FunctionSpec(name="quick", handler=quick, memory_mb=1024))
        record = platform.invoke_sync("quick", None)
        assert record.billed_duration_s == pytest.approx(0.1)
        calibration = platform.config.calibration
        expected = 0.1 * 1.0 * calibration.price_per_gb_s + calibration.price_per_request
        assert record.cost_usd == pytest.approx(expected)

    def test_cost_scales_with_memory(self):
        sim, platform = make_platform()
        for name, memory in (("small", 128), ("big", 1024)):
            platform.register(
                FunctionSpec(name=name, handler=echo, memory_mb=memory)
            )
        small = platform.invoke_sync("small", None)
        big = platform.invoke_sync("big", None)
        assert big.cost_usd > small.cost_usd

    def test_total_cost_accumulates(self):
        sim, platform = make_platform()
        platform.register(FunctionSpec(name="echo", handler=echo))
        a = platform.invoke_sync("echo", None)
        b = platform.invoke_sync("echo", None)
        assert platform.total_cost_usd() == pytest.approx(a.cost_usd + b.cost_usd)

    def test_custom_calibration_respected(self):
        sim = Simulation(seed=0)
        calibration = Calibration(billing_granularity_s=1.0, price_per_request=0.0)
        platform = FaasPlatform(
            sim, config=PlatformConfig(calibration=calibration)
        )

        def quick(event, ctx):
            ctx.charge(0.2)
            return None

        platform.register(FunctionSpec(name="quick", handler=quick, memory_mb=1024))
        record = platform.invoke_sync("quick", None)
        assert record.billed_duration_s == pytest.approx(1.0)


class TestServices:
    def test_services_visible_in_context(self):
        sim, platform = make_platform()
        platform.wire_service("greeter", {"greeting": "bonjour"})

        def uses_service(event, ctx):
            return ctx.service("greeter")["greeting"]

        platform.register(FunctionSpec(name="f", handler=uses_service))
        assert platform.invoke_sync("f", None).response == "bonjour"


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run_once(seed):
            sim, platform = make_platform(seed=seed)
            platform.register(FunctionSpec(name="echo", handler=echo))
            events = [platform.invoke("echo", i) for i in range(5)]
            sim.run()
            return [
                (event.value.end_time, event.value.cold_start) for event in events
            ]

        assert run_once(42) == run_once(42)
        assert run_once(42) != run_once(43)
