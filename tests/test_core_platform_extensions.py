"""Tests for reserved/provisioned concurrency and tenant-aware placement."""

import pytest

from taureau.cluster import Cluster
from taureau.core import (
    FaasPlatform,
    FunctionSpec,
    PlatformConfig,
    TenantAntiAffinityScheduler,
)
from taureau.sim import Simulation


def work(event, ctx):
    ctx.charge(1.0)
    return event


class TestReservedConcurrency:
    def test_per_function_cap_serializes_that_function_only(self):
        sim = Simulation(seed=0)
        platform = FaasPlatform(sim)
        platform.register(
            FunctionSpec(name="capped", handler=work, reserved_concurrency=1)
        )
        platform.register(FunctionSpec(name="free", handler=work))
        capped = [platform.invoke("capped", i) for i in range(3)]
        free = [platform.invoke("free", i) for i in range(3)]
        sim.run()
        capped_ends = sorted(event.value.end_time for event in capped)
        free_ends = sorted(event.value.end_time for event in free)
        # Capped runs back-to-back (~1s apart); free runs all in parallel.
        assert capped_ends[1] - capped_ends[0] > 0.9
        assert free_ends[2] - free_ends[0] < 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec(name="f", handler=work, reserved_concurrency=0)


class TestProvisionedConcurrency:
    def test_provisioned_sandboxes_never_expire(self):
        sim = Simulation(seed=0)
        platform = FaasPlatform(sim, config=PlatformConfig(keep_alive_s=10.0))
        platform.register(FunctionSpec(name="api", handler=work))
        platform.set_provisioned_concurrency("api", 3)
        sim.run(until=1000.0)  # far beyond the keep-alive window
        assert platform.warm_pool_size("api") == 3
        record = platform.invoke_sync("api", None)
        assert not record.cold_start

    def test_provisioned_sandboxes_survive_eviction_pressure(self):
        sim = Simulation(seed=0)
        cluster = Cluster.homogeneous(1, cpu_cores=64, memory_mb=1024)
        platform = FaasPlatform(sim, cluster=cluster)
        platform.register(FunctionSpec(name="vip", handler=work, memory_mb=512))
        platform.register(FunctionSpec(name="other", handler=work, memory_mb=512))
        platform.set_provisioned_concurrency("vip", 1)
        # other needs 512 MB; only 512 MB free, so no eviction of vip.
        record = platform.invoke_sync("other", None)
        assert record.succeeded
        assert platform.warm_pool_size("vip") == 1

    def test_provisioned_billing_accrues_while_idle(self):
        sim = Simulation(seed=0)
        platform = FaasPlatform(sim)
        platform.register(FunctionSpec(name="api", handler=work, memory_mb=1024))
        platform.set_provisioned_concurrency("api", 2)
        sim.run(until=3600.0)
        cost = platform.provisioned_cost_usd()
        calibration = platform.config.calibration
        expected = 2 * 1.0 * 3600.0 * calibration.price_per_provisioned_gb_s
        assert cost == pytest.approx(expected, rel=1e-6)
        assert platform.total_cost_usd() == 0.0  # no invocations billed

    def test_lowering_provisioned_retires_idle(self):
        sim = Simulation(seed=0)
        platform = FaasPlatform(sim)
        platform.register(
            FunctionSpec(name="api", handler=work, memory_mb=512)
        )
        platform.set_provisioned_concurrency("api", 3)
        assert platform.provisioned_count("api") == 3
        platform.set_provisioned_concurrency("api", 1)
        assert platform.provisioned_count("api") == 1
        assert platform.warm_pool_size("api") == 1
        # Standing-charge accounting follows the retirement immediately.
        assert platform._provisioned_memory_mb == 512.0
        sim.run(until=3600.0)
        calibration = platform.config.calibration
        expected = 1 * 0.5 * 3600.0 * calibration.price_per_provisioned_gb_s
        assert platform.provisioned_cost_usd() == pytest.approx(
            expected, rel=1e-6
        )

    def test_capacity_failure_accounts_the_sandboxes_it_created(self):
        sim = Simulation(seed=0)
        cluster = Cluster.homogeneous(1, cpu_cores=64, memory_mb=1024)
        platform = FaasPlatform(sim, cluster=cluster)
        platform.register(FunctionSpec(name="f", handler=work, memory_mb=256))
        with pytest.raises(RuntimeError, match="; 4 provisioned"):
            platform.set_provisioned_concurrency("f", 10)
        assert platform.provisioned_count("f") == 4
        assert platform._provisioned_memory_mb == 4 * 256.0
        sim.run(until=100.0)
        calibration = platform.config.calibration
        expected = 4 * 0.25 * 100.0 * calibration.price_per_provisioned_gb_s
        assert platform.provisioned_cost_usd() == pytest.approx(expected)
        platform.set_provisioned_concurrency("f", 0)
        assert platform.provisioned_count("f") == 0
        assert platform._provisioned_memory_mb == 0.0
        sim.run(until=200.0)
        assert platform.provisioned_cost_usd() == pytest.approx(expected)
        assert platform.provisioned_cost_usd() >= 0.0

    def test_unknown_function_rejected(self):
        platform = FaasPlatform(Simulation(seed=0))
        with pytest.raises(KeyError):
            platform.set_provisioned_concurrency("ghost", 1)


class TestTenantAntiAffinity:
    def _platform(self, scheduler):
        sim = Simulation(seed=0)
        cluster = Cluster.homogeneous(4, cpu_cores=16, memory_mb=4096)
        platform = FaasPlatform(
            sim, cluster=cluster,
            config=PlatformConfig(scheduler=scheduler, keep_alive_s=300.0),
        )
        for tenant in ("acme", "globex"):
            platform.register(
                FunctionSpec(
                    name=f"{tenant}-fn", handler=work, memory_mb=256,
                    tenant=tenant,
                )
            )
        return sim, platform, cluster

    def _co_resident_machines(self, platform, cluster):
        exposed = 0
        for machine in cluster.machines:
            resident = platform._tenants_on[machine.machine_id]
            live = [t for t, count in resident.items() if count > 0]
            if len(live) > 1:
                exposed += 1
        return exposed

    def test_separates_tenants_when_capacity_allows(self):
        sim, platform, cluster = self._platform(TenantAntiAffinityScheduler())
        events = [platform.invoke("acme-fn", i) for i in range(4)]
        events += [platform.invoke("globex-fn", i) for i in range(4)]
        sim.run(until=10.0)
        assert all(event.value.succeeded for event in events)
        assert self._co_resident_machines(platform, cluster) == 0

    def test_falls_back_to_sharing_under_pressure(self):
        sim, platform, cluster = self._platform(TenantAntiAffinityScheduler())
        # 4096/256 = 16 sandboxes per machine; 4 machines = 64 capacity.
        events = [platform.invoke("acme-fn", i) for i in range(40)]
        events += [platform.invoke("globex-fn", i) for i in range(40)]
        sim.run(until=30.0)
        assert all(event.value.succeeded for event in events)
        # Demand exceeds clean separation; some sharing is unavoidable.
        assert self._co_resident_machines(platform, cluster) > 0


class TestPeriodicInvocation:
    """Hong et al. design pattern (1): periodic invocation (§3.2)."""

    def _platform(self):
        sim = Simulation(seed=0)
        platform = FaasPlatform(sim)
        seen = []

        def tick(event, ctx):
            ctx.charge(0.01)
            seen.append((sim.now, event))
            return event

        platform.register(FunctionSpec(name="cron", handler=tick))
        return sim, platform, seen

    def test_fires_at_the_interval(self):
        sim, platform, seen = self._platform()
        platform.schedule_periodic(
            "cron", interval_s=60.0, payload_fn=lambda tick: {"tick": tick}
        )
        sim.run(until=301.0)
        assert [event for __, event in seen] == [
            {"tick": index} for index in range(5)
        ]
        fire_times = [round(when) for when, __ in seen]
        assert fire_times == [60, 120, 180, 240, 300]

    def test_start_after_overrides_first_firing(self):
        sim, platform, seen = self._platform()
        platform.schedule_periodic("cron", interval_s=100.0, start_after_s=5.0)
        sim.run(until=10.0)
        assert len(seen) == 1

    def test_cancel_stops_future_firings(self):
        sim, platform, seen = self._platform()
        trigger = platform.schedule_periodic("cron", interval_s=10.0)
        sim.schedule_at(35.0, trigger.cancel)
        sim.run(until=200.0)
        assert trigger.fired_count == 3
        assert trigger.cancelled

    def test_validation(self):
        sim, platform, __ = self._platform()
        with pytest.raises(ValueError):
            platform.schedule_periodic("cron", interval_s=0.0)
        with pytest.raises(KeyError):
            platform.schedule_periodic("ghost", interval_s=1.0)
