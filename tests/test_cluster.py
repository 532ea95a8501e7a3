"""Unit tests for the cluster substrate."""

import pytest

from taureau.cluster import (
    Cluster,
    InsufficientResources,
    Machine,
    ResourceVector,
)
from taureau.core import ComplementaryScheduler, FunctionSpec


class TestResourceVector:
    def test_arithmetic(self):
        a = ResourceVector(cpu_cores=2, memory_mb=1024)
        b = ResourceVector(cpu_cores=1, memory_mb=512)
        assert a + b == ResourceVector(3, 1536)
        assert a - b == ResourceVector(1, 512)
        assert b * 2 == ResourceVector(2, 1024)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(cpu_cores=-1)
        a = ResourceVector(cpu_cores=1)
        b = ResourceVector(cpu_cores=2)
        with pytest.raises(ValueError):
            a - b  # noqa: B018 - exercising __sub__ validation

    def test_dominant_share(self):
        demand = ResourceVector(cpu_cores=2, memory_mb=100)
        capacity = ResourceVector(cpu_cores=4, memory_mb=1000)
        assert demand.dominant_share(capacity) == 0.5

    def test_is_zero(self):
        assert ResourceVector().is_zero
        assert not ResourceVector(cpu_cores=0.1).is_zero


class TestMachine:
    def test_allocate_and_release(self):
        machine = Machine(ResourceVector(4, 4096), "m0")
        allocation = machine.allocate(ResourceVector(1, 1024), label="fn")
        assert machine.free == ResourceVector(3, 3072)
        allocation.release()
        assert machine.free == ResourceVector(4, 4096)
        assert not machine.allocations

    def test_overcommit_rejected(self):
        machine = Machine(ResourceVector(1, 1024), "m0")
        machine.allocate(ResourceVector(1, 512))
        with pytest.raises(InsufficientResources):
            machine.allocate(ResourceVector(1, 512))

    def test_double_release_rejected(self):
        machine = Machine(ResourceVector(4, 4096), "m0")
        allocation = machine.allocate(ResourceVector(1, 1024))
        allocation.release()
        with pytest.raises(ValueError):
            allocation.release()

    def test_utilization_is_dominant_share(self):
        machine = Machine(ResourceVector(4, 4096), "m0")
        machine.allocate(ResourceVector(1, 4096))
        assert machine.utilization() == 1.0

    def test_cpu_pressure(self):
        machine = Machine(ResourceVector(2, 4096), "m0")
        machine.allocate(ResourceVector(1, 0))
        assert machine.cpu_pressure() == 0.5


class TestCluster:
    def test_homogeneous_factory(self):
        cluster = Cluster.homogeneous(3, cpu_cores=8, memory_mb=1000)
        assert len(cluster) == 3
        assert cluster.total_capacity == ResourceVector(24, 3000)

    def test_utilization_aggregates(self):
        cluster = Cluster.homogeneous(2, cpu_cores=4, memory_mb=1000)
        cluster.machines[0].allocate(ResourceVector(4, 0))
        assert cluster.utilization() == 0.5

    def test_remove_busy_machine_rejected(self):
        cluster = Cluster.homogeneous(1)
        allocation = cluster.machines[0].allocate(ResourceVector(1, 1))
        with pytest.raises(ValueError):
            cluster.remove_machine(cluster.machines[0])
        allocation.release()
        cluster.remove_machine(cluster.machines[0])
        assert len(cluster) == 0

    def test_empty_cluster_utilization_zero(self):
        assert Cluster().utilization() == 0.0


class TestFloatDrift:
    """Fractional sizes leave float drift in a machine's running totals."""

    def test_releasing_fractional_allocations_in_turn_empties_the_machine(self):
        # 625.8 + 65.6 + 13.3, less each in turn, leaves -1.8e-14 MB.
        machine = Machine(ResourceVector(4, 4096), "m0")
        allocations = [
            machine.allocate(ResourceVector(0, memory_mb))
            for memory_mb in (625.8, 65.6, 13.3)
        ]
        for allocation in allocations:
            allocation.release()
        assert machine.used == ResourceVector()
        assert machine.free == ResourceVector(4, 4096)

    def test_a_machine_filled_past_capacity_by_drift_still_answers(self):
        # 0.1 + 0.1 + 0.1 MB fills 0.3 MB to 0.30000000000000004.
        machine = Machine(ResourceVector(1, 0.3), "m0")
        for __ in range(3):
            machine.allocate(ResourceVector(0, 0.1))
        assert machine.used.memory_mb > machine.capacity.memory_mb
        assert machine.free == ResourceVector(1, 0.0)
        assert not machine.can_fit(ResourceVector(0, 0.1))
        assert machine.fits(0.0, 0.0)
        with pytest.raises(InsufficientResources):
            machine.allocate(ResourceVector(0, 0.1))

    def test_complementary_placement_beside_a_drifted_cpu_total(self):
        # 0.1 + 0.1 + 0.1 cores fill 0.3 cores to 0.30000000000000004;
        # the tie-break reads the machine's free memory.
        machine = Machine(ResourceVector(0.3, 4096), "m0")
        for __ in range(3):
            machine.allocate(ResourceVector(0.1, 0))
        spec = FunctionSpec(name="f", handler=None, memory_mb=128)
        assert ComplementaryScheduler().place([machine], spec, {}) is machine
