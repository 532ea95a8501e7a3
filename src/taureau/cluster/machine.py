"""Physical machines and the cluster that pools them."""

from __future__ import annotations

import typing

from taureau.cluster.resources import InsufficientResources, ResourceVector

__all__ = ["Allocation", "Machine", "Cluster"]


class Allocation:
    """A live claim on one machine's resources.

    Release exactly once through :meth:`release`; the machine enforces
    this so accounting can never drift.
    """

    def __init__(self, machine: "Machine", demand: ResourceVector, label: str):
        self.machine = machine
        self.demand = demand
        self.label = label
        self.released = False

    def release(self) -> None:
        if self.released:
            raise ValueError(f"allocation {self.label!r} released twice")
        self.released = True
        self.machine._release(self)

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<Allocation {self.label!r} on {self.machine.machine_id}>"


class Machine:
    """A physical host with a fixed resource capacity."""

    def __init__(self, capacity: ResourceVector, machine_id: str):
        self.capacity = capacity
        self.machine_id = machine_id
        self.used = ResourceVector()
        self.allocations: set = set()

    @property
    def free(self) -> ResourceVector:
        return self.capacity - self.used

    def can_fit(self, demand: ResourceVector) -> bool:
        return demand.fits_within(self.free)

    def allocate(self, demand: ResourceVector, label: str = "") -> Allocation:
        if not self.can_fit(demand):
            raise InsufficientResources(
                f"{self.machine_id}: demand {demand} exceeds free {self.free}"
            )
        allocation = Allocation(self, demand, label)
        self.used = self.used + demand
        self.allocations.add(allocation)
        return allocation

    def _release(self, allocation: Allocation) -> None:
        self.allocations.discard(allocation)
        self.used = self.used - allocation.demand

    def utilization(self) -> float:
        """Dominant-share utilization in [0, 1]."""
        return self.used.dominant_share(self.capacity)

    def cpu_pressure(self) -> float:
        """Ratio of CPU demand to capacity; > 1 means contention."""
        if self.capacity.cpu_cores == 0:
            return 0.0
        return self.used.cpu_cores / self.capacity.cpu_cores

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<Machine {self.machine_id} used={self.used} cap={self.capacity}>"


class Cluster:
    """A pool of machines owned by the provider.

    The cluster only does bookkeeping; placement policy lives in the
    schedulers (:mod:`taureau.core.scheduler`) so policies can be swapped
    without touching the substrate.
    """

    def __init__(self, machines: typing.Optional[typing.Iterable[Machine]] = None):
        self.machines: list = list(machines or [])

    @classmethod
    def homogeneous(
        cls, count: int, cpu_cores: float = 16.0, memory_mb: float = 65536.0
    ) -> "Cluster":
        """A cluster of ``count`` identical machines, ``m0`` ... ``m<count-1>``."""
        capacity = ResourceVector(cpu_cores=cpu_cores, memory_mb=memory_mb)
        return cls(
            Machine(capacity, machine_id=f"m{index}") for index in range(count)
        )

    def add_machine(self, machine: Machine) -> None:
        self.machines.append(machine)

    def remove_machine(self, machine: Machine) -> None:
        if machine.allocations:
            raise ValueError(
                f"cannot remove {machine.machine_id}: {len(machine.allocations)} "
                "live allocations"
            )
        self.machines.remove(machine)

    @property
    def total_capacity(self) -> ResourceVector:
        total = ResourceVector()
        for machine in self.machines:
            total = total + machine.capacity
        return total

    @property
    def total_used(self) -> ResourceVector:
        total = ResourceVector()
        for machine in self.machines:
            total = total + machine.used
        return total

    def utilization(self) -> float:
        capacity = self.total_capacity
        if capacity.is_zero:
            return 0.0
        return self.total_used.dominant_share(capacity)

    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self):
        return iter(self.machines)
