"""Unit tests for the virtualization ladder."""

import random

import pytest

from taureau.cluster import Cluster, Machine, ResourceVector
from taureau.sim import Simulation
from taureau.virt import LAYERS, LayerKind, UnitFactory, UnitState, layer


class TestLayerParameters:
    def test_all_four_layers_defined(self):
        assert set(LAYERS) == set(LayerKind)

    def test_startup_latency_strictly_decreases_up_the_ladder(self):
        ladder = [
            LayerKind.BARE_METAL,
            LayerKind.VIRTUAL_MACHINE,
            LayerKind.CONTAINER,
            LayerKind.FUNCTION,
        ]
        means = [layer(kind).startup_mean_s for kind in ladder]
        assert means == sorted(means, reverse=True)
        assert means[0] / means[-1] > 1000  # minutes vs tens of ms

    def test_isolation_weakens_up_the_ladder(self):
        assert (
            layer(LayerKind.BARE_METAL).isolation
            > layer(LayerKind.VIRTUAL_MACHINE).isolation
            > layer(LayerKind.CONTAINER).isolation
            > layer(LayerKind.FUNCTION).isolation
        )

    def test_density_increases_up_the_ladder(self):
        host_mb, app_mb = 65536.0, 256.0
        densities = [
            layer(kind).units_per_host(host_mb, app_mb)
            for kind in (
                LayerKind.VIRTUAL_MACHINE,
                LayerKind.CONTAINER,
                LayerKind.FUNCTION,
            )
        ]
        assert densities == sorted(densities)
        assert densities[-1] > densities[0]

    def test_sample_startup_latency_nonnegative_and_seeded(self):
        vlayer = layer(LayerKind.FUNCTION)
        draws = [vlayer.sample_startup_latency(random.Random(3)) for _ in range(3)]
        assert all(d >= 0 for d in draws)
        again = [vlayer.sample_startup_latency(random.Random(3)) for _ in range(3)]
        assert draws == again

    def test_units_per_host_rejects_zero_footprint(self):
        with pytest.raises(ValueError):
            layer(LayerKind.BARE_METAL).units_per_host(100.0, 0.0)


class TestUnitFactory:
    def test_boot_charges_layer_overhead(self):
        sim = Simulation(seed=1)
        machine = Machine(ResourceVector(16, 4096), "m0")
        factory = UnitFactory(sim)
        unit, ready = factory.boot(
            LayerKind.VIRTUAL_MACHINE, machine, ResourceVector(1, 1024)
        )
        assert machine.used.memory_mb == 1024 + 512
        assert unit.state is UnitState.PROVISIONING
        sim.run(until=ready)
        assert unit.state is UnitState.RUNNING
        assert sim.now == pytest.approx(unit.boot_latency)

    def test_stop_releases_resources(self):
        sim = Simulation(seed=1)
        machine = Machine(ResourceVector(16, 4096), "m0")
        factory = UnitFactory(sim)
        unit, ready = factory.boot(LayerKind.CONTAINER, machine, ResourceVector(1, 64))
        sim.run(until=ready)
        unit.stop()
        assert machine.used.memory_mb == 0
        with pytest.raises(ValueError):
            unit.stop()

    def test_boot_fleet_first_fit_packs_across_machines(self):
        sim = Simulation(seed=2)
        cluster = Cluster.homogeneous(2, cpu_cores=4, memory_mb=1000)
        factory = UnitFactory(sim)
        units, all_ready = factory.boot_fleet(
            LayerKind.FUNCTION,
            cluster.machines,
            ResourceVector(1, 200),
            count=8,
        )
        sim.run(until=all_ready)
        assert len(units) == 8
        assert all(unit.state is UnitState.RUNNING for unit in units)
        # 4 per machine by CPU.
        assert {unit.machine.machine_id for unit in units} == {
            machine.machine_id for machine in cluster.machines
        }

    def test_boot_fleet_overflow_raises(self):
        sim = Simulation(seed=2)
        cluster = Cluster.homogeneous(1, cpu_cores=2, memory_mb=1000)
        factory = UnitFactory(sim)
        with pytest.raises(RuntimeError, match="does not fit"):
            factory.boot_fleet(
                LayerKind.FUNCTION, cluster.machines, ResourceVector(1, 100), count=3
            )

    def test_function_units_ready_long_before_vms(self):
        sim = Simulation(seed=3)
        machine = Machine(ResourceVector(64, 262144), "m0")
        factory = UnitFactory(sim)
        fn_unit, __ = factory.boot(LayerKind.FUNCTION, machine, ResourceVector(1, 128))
        vm_unit, __ = factory.boot(
            LayerKind.VIRTUAL_MACHINE, machine, ResourceVector(1, 128)
        )
        sim.run()
        assert fn_unit.boot_latency < vm_unit.boot_latency / 50


class TestUnikernelLayer:
    """The §5.1 USETL contender: VM-class isolation at function speed."""

    def test_breaks_the_isolation_speed_tradeoff(self):
        unikernel = layer(LayerKind.UNIKERNEL)
        container = layer(LayerKind.CONTAINER)
        vm = layer(LayerKind.VIRTUAL_MACHINE)
        # Safer than a container AND faster to start than one.
        assert unikernel.isolation > container.isolation
        assert unikernel.startup_mean_s < container.startup_mean_s
        # Isolation in the hypervisor class, startup ~3000x below a VM.
        assert unikernel.isolation == vm.isolation
        assert vm.startup_mean_s / unikernel.startup_mean_s > 1000

    def test_packs_denser_than_functions(self):
        host_mb, app_mb = 65536.0, 64.0
        assert layer(LayerKind.UNIKERNEL).units_per_host(host_mb, app_mb) >= layer(
            LayerKind.FUNCTION
        ).units_per_host(host_mb, app_mb)

    def test_boots_on_machines_like_any_layer(self):
        sim = Simulation(seed=4)
        machine = Machine(ResourceVector(16, 4096), "m0")
        factory = UnitFactory(sim)
        unit, ready = factory.boot(
            LayerKind.UNIKERNEL, machine, ResourceVector(1, 64)
        )
        sim.run(until=ready)
        assert unit.state is UnitState.RUNNING
        assert unit.boot_latency < 0.02
