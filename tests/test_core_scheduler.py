"""Unit tests for sandbox placement policies."""

import collections
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from taureau.cluster import Cluster, InsufficientResources, Machine, ResourceVector
from taureau.core import (
    ComplementaryScheduler,
    FirstFitScheduler,
    FunctionSpec,
    LeastLoadedScheduler,
    TenantAntiAffinityScheduler,
)


def spec(memory_mb=256, cpu_demand=1.0):
    return FunctionSpec(
        name="f", handler=lambda e, c: None, memory_mb=memory_mb, cpu_demand=cpu_demand
    )


class TestFirstFit:
    def test_picks_first_machine_with_room(self):
        cluster = Cluster.homogeneous(3, cpu_cores=4, memory_mb=1000)
        cluster.machines[0].allocate(ResourceVector(0, 900))
        chosen = FirstFitScheduler().place(cluster.machines, spec(256), {})
        assert chosen is cluster.machines[1]

    def test_returns_none_when_full(self):
        cluster = Cluster.homogeneous(1, cpu_cores=4, memory_mb=100)
        assert FirstFitScheduler().place(cluster.machines, spec(256), {}) is None


class TestLeastLoaded:
    def test_prefers_emptier_machine(self):
        cluster = Cluster.homogeneous(2, cpu_cores=4, memory_mb=1000)
        cluster.machines[0].allocate(ResourceVector(0, 500))
        chosen = LeastLoadedScheduler().place(cluster.machines, spec(100), {})
        assert chosen is cluster.machines[1]


class TestComplementary:
    def test_avoids_cpu_hot_machines(self):
        cluster = Cluster.homogeneous(2, cpu_cores=4, memory_mb=10000)
        cpu_load = {cluster.machines[0].machine_id: 4.0}
        chosen = ComplementaryScheduler().place(
            cluster.machines, spec(cpu_demand=2.0), cpu_load
        )
        assert chosen is cluster.machines[1]

    def test_memory_light_cpu_heavy_interleave(self):
        # A memory-bound function (low CPU) happily co-locates with the
        # CPU-hot machine if that keeps pressure balanced elsewhere.
        cluster = Cluster.homogeneous(2, cpu_cores=4, memory_mb=10000)
        machine_a, machine_b = cluster.machines
        cpu_load = {machine_a.machine_id: 3.0, machine_b.machine_id: 0.5}
        chosen = ComplementaryScheduler().place(
            cluster.machines, spec(cpu_demand=3.0), cpu_load
        )
        assert chosen is machine_b

    def test_ties_broken_by_free_memory(self):
        cluster = Cluster.homogeneous(2, cpu_cores=4, memory_mb=1000)
        cluster.machines[0].allocate(ResourceVector(0, 400))
        chosen = ComplementaryScheduler().place(cluster.machines, spec(100), {})
        assert chosen is cluster.machines[1]


class ModelMachine:
    """A machine's used resources in vector arithmetic, the reference.

    It departs from plain vector arithmetic only where that raises a
    negative-vector ``ValueError``: a release and ``free`` clamp each
    dimension at zero, and the fit test compares ``demand <= (capacity -
    used) + 1e-9`` per dimension rather than building ``capacity - used``
    first (float drift can leave ``used`` a hair past capacity).
    """

    def __init__(self, capacity, machine_id):
        self.capacity = capacity
        self.machine_id = machine_id
        self.used = ResourceVector()
        self.live = 0

    @property
    def free(self):
        capacity, used = self.capacity, self.used
        return ResourceVector(max(capacity.cpu_cores - used.cpu_cores, 0.0),
                              max(capacity.memory_mb - used.memory_mb, 0.0))

    def can_fit(self, demand):
        capacity, used = self.capacity, self.used
        return (demand.cpu_cores <= (capacity.cpu_cores - used.cpu_cores) + 1e-9
                and demand.memory_mb <= (capacity.memory_mb - used.memory_mb) + 1e-9)

    def allocate(self, demand):
        if not self.can_fit(demand):
            raise InsufficientResources(self.machine_id)
        self.used = self.used + demand
        self.live += 1

    def release(self, demand):
        self.used = ResourceVector(max(self.used.cpu_cores - demand.cpu_cores, 0.0),
                                   max(self.used.memory_mb - demand.memory_mb, 0.0))
        self.live -= 1

    def utilization(self):
        return self.used.dominant_share(self.capacity)


def model_place(policy, machines, spec, cpu_load, tenants):
    """Each scheduler's choice, decided over model machines."""
    demand = ResourceVector(cpu_cores=0, memory_mb=spec.memory_mb)
    candidates = [machine for machine in machines if machine.can_fit(demand)]
    if not candidates:
        return None
    if policy is FirstFitScheduler:
        return candidates[0]
    if policy is LeastLoadedScheduler:
        return min(candidates, key=lambda machine: machine.utilization())
    if policy is ComplementaryScheduler:
        def pressure(machine):
            if machine.capacity.cpu_cores <= 0:
                return math.inf
            load = cpu_load.get(machine.machine_id, 0.0)
            return (load + spec.cpu_demand) / machine.capacity.cpu_cores

        return min(candidates,
                   key=lambda machine: (pressure(machine), -machine.free.memory_mb))

    def resident(machine):
        return tenants.get(machine.machine_id, {})

    clean = [machine for machine in candidates
             if not any(tenant != spec.tenant and count > 0
                        for tenant, count in resident(machine).items())]
    return min(clean or candidates, key=lambda machine: (
        0 if resident(machine).get(spec.tenant, 0) > 0 else 1,
        machine.utilization()))


def outcome(call):
    """``call()``'s value, or the type of what it raised."""
    try:
        return "value", call()
    except (ValueError, InsufficientResources) as error:
        return "raised", type(error)


POLICIES = (FirstFitScheduler, LeastLoadedScheduler, ComplementaryScheduler,
            TenantAntiAffinityScheduler)
#: Fractional sizes whose running sums drift: released in some orders,
#: about three in ten sets of them leave a negative total, and a machine
#: sized by such a sum can fill a hair past its capacity.
SIZES = [0.1, 0.2, 0.3, 0.7, 1.1, 2.2, 3.3, 13.3, 65.6, 625.8]
MEMORY = st.sampled_from(SIZES)
CORES = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.5])
CAPACITY = st.tuples(st.lists(CORES, min_size=1, max_size=3).map(sum),
                     st.lists(MEMORY, min_size=1, max_size=6).map(sum))
TENANTS = st.sampled_from(["a", "b", "c"])
#: One step: its kind (allocations drawn most often, removals least),
#: then a position, a demand, a tenant and the machines' CPU loads; each
#: kind reads the fields it needs.
STEPS = st.lists(st.tuples(
    st.sampled_from(["allocate"] * 4 + ["release"] * 2 + ["place", "remove"]),
    st.integers(0, 63), CORES, MEMORY, TENANTS,
    st.lists(CORES, min_size=4, max_size=4),
), min_size=8, max_size=40)


class TestPlacementAgainstVectorArithmetic:
    """Machines' float totals decide every fit as vector arithmetic did."""

    @settings(max_examples=300, deadline=None)
    @given(capacities=st.lists(CAPACITY, min_size=1, max_size=4), steps=STEPS,
           data=st.data())
    def test_machines_match_the_model(self, capacities, steps, data):
        cluster = Cluster(Machine(ResourceVector(cpu, memory), f"m{index}")
                          for index, (cpu, memory) in enumerate(capacities))
        model = [ModelMachine(machine.capacity, machine.machine_id)
                 for machine in cluster.machines]
        live = []  # (allocation, model machine, demand, tenant)
        tenants = collections.defaultdict(collections.Counter)

        def release(position):
            allocation, reference, demand, tenant = live.pop(position % len(live))
            allocation.release()
            reference.release(demand)
            tenants[allocation.machine.machine_id][tenant] -= 1

        def check():
            for machine, reference in zip(cluster.machines, model):
                assert machine.used == reference.used
                assert outcome(lambda: machine.free) == outcome(lambda: reference.free)
                assert machine.utilization() == reference.utilization()
                for size in SIZES:
                    probe = ResourceVector(0, size)
                    assert machine.can_fit(probe) == reference.can_fit(probe)

        for kind, position, cores, memory, tenant, loads in steps:
            machines = cluster.machines
            if kind == "allocate" and machines:
                index = position % len(machines)
                demand = ResourceVector(cores, memory)
                got = outcome(lambda: machines[index].allocate(demand))
                assert outcome(lambda: model[index].allocate(demand))[0] == got[0]
                if got[0] == "value":
                    live.append((got[1], model[index], demand, tenant))
                    tenants[machines[index].machine_id][tenant] += 1
            elif kind == "release" and live:
                release(position)
            elif kind == "remove" and machines:
                index = position % len(machines)
                got = outcome(lambda: cluster.remove_machine(machines[index]))
                assert got[0] == ("raised" if model[index].live else "value")
                if got[0] == "value":
                    del model[index]
            elif kind == "place":
                spec = FunctionSpec(name="f", handler=None, memory_mb=memory,
                                    cpu_demand=cores, tenant=tenant)
                cpu_load = {machine.machine_id: load
                            for machine, load in zip(machines, loads)}
                for policy in POLICIES:
                    got = outcome(lambda: policy().place(
                        machines, spec, cpu_load, tenants))
                    want = outcome(lambda: model_place(
                        policy, model, spec, cpu_load, tenants))
                    ids = [None if result is None or status == "raised"
                           else result.machine_id for status, result in (got, want)]
                    assert (got[0], ids[0]) == (want[0], ids[1])
            check()
        # Release what is left, in a drawn order, down to empty machines.
        while live:
            release(data.draw(st.integers(0, len(live) - 1)))
            check()
