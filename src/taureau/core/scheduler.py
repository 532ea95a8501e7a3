"""Sandbox placement policies.

The paper's "Look Forward" section (§6, SLA Guarantees) calls for
bin-packing heuristics that co-locate functions with *complementary*
resource needs so they do not contend.  The schedulers here are the
policies experiment E23 compares:

- :class:`FirstFitScheduler` — the naive baseline: fill machines in order,
  which piles CPU-hungry functions onto the same hosts;
- :class:`LeastLoadedScheduler` — spread by dominant-share utilization;
- :class:`ComplementaryScheduler` — the paper's suggestion: place where
  the *projected CPU pressure* stays lowest, so CPU-bound and
  memory-bound functions interleave.

A scheduler only picks machines; memory admission and CPU-pressure
bookkeeping live in the platform.
"""

from __future__ import annotations

import typing

from taureau.cluster import Machine
from taureau.core.function import FunctionSpec

__all__ = [
    "Scheduler",
    "FirstFitScheduler",
    "LeastLoadedScheduler",
    "ComplementaryScheduler",
    "TenantAntiAffinityScheduler",
]


class Scheduler:
    """Interface: choose a machine with room for the sandbox's memory."""

    def place(
        self,
        machines: typing.Sequence[Machine],
        spec: FunctionSpec,
        cpu_load: typing.Mapping[str, float],
        tenants: typing.Optional[typing.Mapping] = None,
    ) -> typing.Optional[Machine]:
        """The machine to host a new sandbox, or ``None`` if nothing fits.

        ``cpu_load`` maps machine id to the CPU cores currently demanded
        by *executing* invocations (may exceed capacity — that is what
        contention means).  ``tenants`` maps machine id to a Counter of
        resident sandbox tenants, for co-residency-aware policies.
        """
        raise NotImplementedError

    @staticmethod
    def _fits(machine: Machine, spec: FunctionSpec) -> bool:
        return machine.fits(0.0, spec.memory_mb)


class FirstFitScheduler(Scheduler):
    """Fill machines in index order; the contention-oblivious baseline."""

    def place(self, machines, spec, cpu_load, tenants=None):
        for machine in machines:
            if self._fits(machine, spec):
                return machine
        return None


class LeastLoadedScheduler(Scheduler):
    """Pick the machine with the lowest dominant-share utilization."""

    def place(self, machines, spec, cpu_load, tenants=None):
        candidates = [machine for machine in machines if self._fits(machine, spec)]
        if not candidates:
            return None
        return min(candidates, key=lambda machine: machine.utilization())


class ComplementaryScheduler(Scheduler):
    """Minimize projected CPU pressure after placement (paper §6).

    Scoring a candidate as ``(load + demand) / cores`` makes a
    memory-heavy, CPU-light function land happily next to CPU-bound ones
    while two CPU-bound functions repel each other — exactly the
    "complementary resource requirements" packing the paper sketches.
    """

    def place(self, machines, spec, cpu_load, tenants=None):
        candidates = [machine for machine in machines if self._fits(machine, spec)]
        if not candidates:
            return None

        def projected_pressure(machine: Machine) -> float:
            load = cpu_load.get(machine.machine_id, 0.0)
            if machine.capacity.cpu_cores <= 0:
                return float("inf")
            return (load + spec.cpu_demand) / machine.capacity.cpu_cores

        return min(
            candidates,
            key=lambda machine: (projected_pressure(machine), -machine.free.memory_mb),
        )


class TenantAntiAffinityScheduler(Scheduler):
    """Prefer machines hosting only the function's own tenant (paper §6).

    The security discussion notes that "functions of different tenants
    may run on the same physical hardware, increasing the likelihood of
    traditional side-channel attacks".  This policy places a sandbox on
    a machine with no *foreign* tenants whenever one fits (least-loaded
    among them); only when every candidate already hosts a foreign
    tenant does it fall back to least-loaded placement.  Experiment E25
    measures the co-residency exposure this removes and the utilization
    it costs.
    """

    def place(self, machines, spec, cpu_load, tenants=None):
        candidates = [machine for machine in machines if self._fits(machine, spec)]
        if not candidates:
            return None
        tenants = tenants or {}

        def foreign_tenants(machine: Machine) -> int:
            resident = tenants.get(machine.machine_id, {})
            return sum(
                1
                for tenant, count in resident.items()
                if tenant != spec.tenant and count > 0
            )

        def hosts_own_tenant(machine: Machine) -> bool:
            resident = tenants.get(machine.machine_id, {})
            return resident.get(spec.tenant, 0) > 0

        clean = [machine for machine in candidates if foreign_tenants(machine) == 0]
        pool = clean or candidates
        # Pack onto machines already dedicated to this tenant before
        # opening fresh ones — spreading would occupy every host and make
        # clean separation impossible for the next tenant.
        return min(
            pool,
            key=lambda machine: (
                0 if hosts_own_tenant(machine) else 1,
                machine.utilization(),
            ),
        )
