"""Execution units booted at a virtualization layer on simulated machines."""

from __future__ import annotations

import enum
import typing

from taureau.cluster import Allocation, Machine, ResourceVector
from taureau.sim import Event, Simulation
from taureau.virt.layers import LayerKind, VirtualizationLayer, layer

__all__ = ["UnitState", "ExecutionUnit", "UnitFactory"]


class UnitState(enum.Enum):
    PROVISIONING = "provisioning"
    RUNNING = "running"
    STOPPED = "stopped"


class ExecutionUnit:
    """One booted unit (server / VM / container / function sandbox)."""

    def __init__(
        self,
        vlayer: VirtualizationLayer,
        machine: Machine,
        allocation: Allocation,
        booted_at: float,
        boot_latency: float,
        unit_id: str,
    ):
        self.unit_id = unit_id
        self.layer = vlayer
        self.machine = machine
        self.allocation = allocation
        self.requested_at = booted_at
        self.boot_latency = boot_latency
        self.state = UnitState.PROVISIONING

    @property
    def ready_at(self) -> float:
        return self.requested_at + self.boot_latency

    def stop(self) -> None:
        if self.state is UnitState.STOPPED:
            raise ValueError(f"{self.unit_id} stopped twice")
        self.state = UnitState.STOPPED
        self.allocation.release()


class UnitFactory:
    """Boots execution units at a chosen layer against the sim clock.

    This is the measurement harness behind experiment E4: it provisions a
    unit, charging the layer's startup latency and memory overhead, and
    returns an event that fires when the unit is ready.
    """

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._rng = sim.rng.stream("virt.startup")

    def boot(
        self,
        kind: LayerKind,
        machine: Machine,
        app_demand: ResourceVector,
    ) -> typing.Tuple[ExecutionUnit, Event]:
        """Provision one unit; returns ``(unit, ready_event)``.

        The allocation includes the layer's fixed memory overhead, so
        density falls out of ordinary resource accounting.
        """
        vlayer = layer(kind)
        demand = ResourceVector(
            cpu_cores=app_demand.cpu_cores,
            memory_mb=app_demand.memory_mb + vlayer.memory_overhead_mb,
        )
        allocation = machine.allocate(demand, label=f"{kind.value}-unit")
        boot_latency = vlayer.sample_startup_latency(self._rng)
        unit = ExecutionUnit(
            vlayer, machine, allocation, self.sim.now, boot_latency,
            unit_id=f"u{next(self.sim.ids('u'))}",
        )
        ready = self.sim.timeout(boot_latency, value=unit)

        def mark_running(event: Event) -> None:
            if unit.state is UnitState.PROVISIONING:
                unit.state = UnitState.RUNNING

        ready.add_callback(mark_running)
        return unit, ready

    def boot_fleet(
        self,
        kind: LayerKind,
        machines: typing.Sequence[Machine],
        app_demand: ResourceVector,
        count: int,
    ) -> typing.Tuple[list, Event]:
        """Boot ``count`` units packed first-fit across ``machines``.

        Returns the unit list and an event that fires when all are ready.
        Raises if the fleet does not fit.
        """
        units = []
        ready_events = []
        for _index in range(count):
            target = next(
                (
                    machine
                    for machine in machines
                    if machine.can_fit(
                        ResourceVector(
                            app_demand.cpu_cores,
                            app_demand.memory_mb + layer(kind).memory_overhead_mb,
                        )
                    )
                ),
                None,
            )
            if target is None:
                raise RuntimeError(
                    f"fleet of {count} {kind.value} units does not fit; "
                    f"placed {len(units)}"
                )
            unit, ready = self.boot(kind, target, app_demand)
            units.append(unit)
            ready_events.append(ready)
        return units, self.sim.all_of(ready_events)
