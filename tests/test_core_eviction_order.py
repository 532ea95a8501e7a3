"""The platform's indexed eviction order, checked against a linear scan.

Under memory pressure a cold start evicts the oldest idle sandbox that
is not provisioned capacity.  :class:`FaasPlatform` takes that victim
off a heap.  The reference here is the full scan over every pool bucket
that the heap replaced: the first sandbox with the smallest
``created_at``, visiting pools in first-touch order and each pool in the
order its sandboxes were returned.  Seeded random operation sequences
(invoke bursts, time advances that finish work and expire sandboxes,
prewarms, provisioned concurrency, keep-alive overrides and machine
failures) must make every eviction pick the scan's victim, ties
included, with per-function and per-tenant (``app_sandboxing``) pools.
"""

import random

import pytest

from taureau.cluster import Cluster
from taureau.core import FaasPlatform, FunctionSpec, PlatformConfig
from taureau.core.platform import _EVICTABLE_SLACK
from taureau.sim import Simulation


def work(event, ctx):
    ctx.charge(event)


def scan_oldest_idle(platform):
    """The reference victim: a linear scan of every pool bucket."""
    oldest = None
    for sandboxes in platform._idle.values():
        for sandbox in sandboxes:
            if sandbox.provisioned:
                continue  # provisioned capacity is never evicted
            if oldest is None or sandbox.created_at < oldest.created_at:
                oldest = sandbox
    return oldest


def evictable_idle(platform):
    return [
        sandbox
        for sandboxes in platform._idle.values()
        for sandbox in sandboxes
        if not sandbox.provisioned
    ]


def check_evictions(platform):
    """Compare every eviction ``platform`` makes with the scan.

    Returns the list of ``(victim, equally_old_rivals)`` pairs seen.
    """
    seen = []
    pop = platform._pop_eviction_victim

    def checked_pop():
        expected = scan_oldest_idle(platform)
        victim = pop()
        assert victim is expected
        if victim is not None:
            rivals = sum(
                1 for sandbox in evictable_idle(platform)
                if sandbox is not victim and sandbox.created_at == victim.created_at
            )
            seen.append((victim, rivals))
        return victim

    platform._pop_eviction_victim = checked_pop
    return seen


def assert_index_bounded(platform):
    live = len(evictable_idle(platform))
    assert len(platform._evictable) <= 2 * live + _EVICTABLE_SLACK


def build(seed, app_sandboxing, machines=3, memory_mb=2048, functions=8):
    sim = Simulation(seed=seed)
    cluster = Cluster.homogeneous(machines, cpu_cores=8, memory_mb=memory_mb)
    platform = FaasPlatform(
        sim, cluster=cluster,
        config=PlatformConfig(keep_alive_s=40.0, app_sandboxing=app_sandboxing),
    )
    for index in range(functions):
        platform.register(FunctionSpec(
            name=f"fn{index}", handler=work,
            memory_mb=(256, 512, 768)[index % 3], tenant=f"t{index % 3}",
        ))
    return sim, cluster, platform


def drive(seed, app_sandboxing, steps=160):
    """One seeded random operation sequence; returns the evictions seen."""
    sim, cluster, platform = build(seed, app_sandboxing)
    seen = check_evictions(platform)
    rng = random.Random(seed)
    names = platform.function_names()
    for __ in range(steps):
        op = rng.random()
        name = rng.choice(names)
        if op < 0.45:
            # A burst at one instant: equal created_at across pools.
            for __ in range(rng.randint(1, 4)):
                platform.invoke(rng.choice(names), rng.choice((0.5, 2.0, 10.0)))
        elif op < 0.70:
            sim.run(until=sim.now + rng.choice((0.5, 3.0, 15.0, 45.0)))
        elif op < 0.80:
            platform.prewarm(name, rng.randint(1, 3))
        elif op < 0.87:
            try:
                platform.set_provisioned_concurrency(name, rng.randint(0, 2))
            except RuntimeError:
                pass  # no capacity left to provision
        elif op < 0.92:
            platform.set_keep_alive(name, rng.choice((None, 5.0, 100.0)))
        elif op < 0.97:
            platform.warm_pool_size(name)  # first touch of a pool bucket
        elif len(cluster.machines) > 1:
            platform.fail_machine(rng.choice(cluster.machines))
        assert_index_bounded(platform)
    sim.run(until=sim.now + 100.0)
    assert_index_bounded(platform)
    return seen


@pytest.mark.parametrize("app_sandboxing", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_every_eviction_matches_the_linear_scan(seed, app_sandboxing):
    seen = drive(seed, app_sandboxing)
    assert seen, "the sequence never evicted under memory pressure"


@pytest.mark.parametrize("app_sandboxing", [False, True])
def test_sequences_exercise_equal_age_ties(app_sandboxing):
    ties = sum(
        1 for seed in range(12)
        for __, rivals in drive(seed, app_sandboxing) if rivals
    )
    assert ties > 0


def test_equal_age_tie_breaks_on_pool_first_touch_then_return_order():
    sim, cluster, platform = build(0, False, machines=1, functions=0)
    for name, memory_mb in (("fn0", 512), ("fn1", 512), ("big", 1024)):
        platform.register(FunctionSpec(name=name, handler=work, memory_mb=memory_mb))
    seen = check_evictions(platform)
    platform.warm_pool_size("fn1")  # fn1's pool is touched first
    platform.invoke("fn0", 1.0)
    platform.invoke("fn1", 2.0)
    assert platform.prewarm("fn0", 2) == 2  # memory is now full
    sim.run(until=5.0)
    fn0_pool, fn1_pool = platform._idle["fn0"], platform._idle["fn1"]
    assert len(fn0_pool) == 3 and len(fn1_pool) == 1
    assert {sandbox.created_at for sandbox in evictable_idle(platform)} == {0.0}
    # fn1's sandbox was returned last but its pool was touched first;
    # within fn0's pool the first-returned prewarmed sandbox goes first.
    expected = [fn1_pool[0], fn0_pool[0]]
    platform.invoke("big", 0.1)
    assert [victim for victim, __ in seen] == expected


def test_index_stays_bounded_without_memory_pressure():
    sim = Simulation(seed=5)
    cluster = Cluster.homogeneous(2, cpu_cores=64, memory_mb=1 << 20)
    platform = FaasPlatform(
        sim, cluster=cluster, config=PlatformConfig(keep_alive_s=600.0)
    )
    for index in range(6):
        platform.register(FunctionSpec(name=f"fn{index}", handler=work))
    rng = random.Random(5)
    peak_index = peak_idle = 0
    invocations = 3000
    for __ in range(invocations):
        platform.invoke(f"fn{rng.randrange(6)}", 0.05)
        sim.run(until=sim.now + rng.expovariate(20.0))
        assert_index_bounded(platform)
        peak_index = max(peak_index, len(platform._evictable))
        peak_idle = max(peak_idle, len(evictable_idle(platform)))
    assert platform.metrics.counter("sandbox_evictions").value == 0
    # Every warm reuse leaves a stale entry behind; compaction keeps the
    # index near the idle pool instead of growing with the run.
    assert peak_index <= 2 * peak_idle + _EVICTABLE_SLACK
    assert peak_index < invocations // 10
