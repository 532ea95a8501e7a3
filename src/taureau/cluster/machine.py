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
    """A physical host with a fixed resource capacity.

    The used CPU and memory are two running float totals, so a fit
    question and an allocation build no :class:`ResourceVector`.  Each
    total takes the float steps vector arithmetic took, and the fit test
    is ``demand <= (capacity - used) + 1e-9`` per dimension.  Float drift
    can carry a total a hair past zero or past capacity (625.8, 65.6 and
    13.3 MB released in turn leave -1.8e-14 MB; three 0.1 MB claims fill
    0.3 MB to 0.30000000000000004), so a release clamps each total at
    zero, :attr:`free` clamps each dimension at zero, and the fit test
    reads the raw differences; none of them raises.
    """

    def __init__(self, capacity: ResourceVector, machine_id: str):
        self.capacity = capacity
        self.machine_id = machine_id
        self._used_cpu = 0.0
        self._used_mb = 0.0
        self.allocations: set = set()

    @property
    def used(self) -> ResourceVector:
        return ResourceVector(self._used_cpu, self._used_mb)

    @property
    def free(self) -> ResourceVector:
        capacity = self.capacity
        return ResourceVector(max(capacity.cpu_cores - self._used_cpu, 0.0),
                              max(capacity.memory_mb - self._used_mb, 0.0))

    def fits(self, cpu_cores: float, memory_mb: float) -> bool:
        """Whether ``cpu_cores`` and ``memory_mb`` fit in what is free,
        to within 1e-9 in each dimension."""
        capacity = self.capacity
        return (
            cpu_cores <= (capacity.cpu_cores - self._used_cpu) + 1e-9
            and memory_mb <= (capacity.memory_mb - self._used_mb) + 1e-9
        )

    def can_fit(self, demand: ResourceVector) -> bool:
        return self.fits(demand.cpu_cores, demand.memory_mb)

    def allocate(self, demand: ResourceVector, label: str = "") -> Allocation:
        if not self.fits(demand.cpu_cores, demand.memory_mb):
            capacity = self.capacity
            raise InsufficientResources(
                f"{self.machine_id}: demand {demand} exceeds free "
                f"{capacity.cpu_cores - self._used_cpu} cores, "
                f"{capacity.memory_mb - self._used_mb} MB"
            )
        allocation = Allocation(self, demand, label)
        self._used_cpu += demand.cpu_cores
        self._used_mb += demand.memory_mb
        self.allocations.add(allocation)
        return allocation

    def _release(self, allocation: Allocation) -> None:
        self.allocations.discard(allocation)
        demand = allocation.demand
        self._used_cpu = max(self._used_cpu - demand.cpu_cores, 0.0)
        self._used_mb = max(self._used_mb - demand.memory_mb, 0.0)

    def utilization(self) -> float:
        """Dominant-share utilization in [0, 1]."""
        return self.used.dominant_share(self.capacity)

    def cpu_pressure(self) -> float:
        """Ratio of CPU demand to capacity; > 1 means contention."""
        if self.capacity.cpu_cores == 0:
            return 0.0
        return self._used_cpu / self.capacity.cpu_cores

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
