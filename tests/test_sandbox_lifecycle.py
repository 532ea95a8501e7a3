"""The sandbox lifecycle: one exit, one keep-alive check, provisioned sets.

Every sandbox leaves through ``FaasPlatform._retire(sandbox, cause)``,
which counts the cause once; a second retire raises ``SandboxError``.
An idle sandbox has at most one queued keep-alive check, and a retired
sandbox's check is cancelled, so it never holds a drained run open, and
the kernel's queue compaction frees it long before its deadline.  A
pool's provisioned count covers every live provisioned sandbox,
starting ones included.  A handler that crashes its own sandbox or
machine interrupts its attempt like any crash: the execution it was
running is never finished or billed.
"""

import collections
import pathlib
import sys
import types

import pytest

from taureau.chaos import FaultInjected, sandboxes_conserved
from taureau.cluster import Cluster, ResourceVector
from taureau.core import (
    FaasPlatform,
    FunctionSpec,
    InvocationStatus,
    PlatformConfig,
    SandboxError,
)
from taureau.obs import Tracer
from taureau.sim import Simulation, engine

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)


def quick(event, ctx):
    ctx.charge(0.05)


def make(keep_alive_s=600.0):
    sim = Simulation(seed=0)
    platform = FaasPlatform(
        sim,
        cluster=Cluster.homogeneous(2, cpu_cores=8, memory_mb=4096),
        config=PlatformConfig(keep_alive_s=keep_alive_s),
    )
    platform.register(FunctionSpec(name="f", handler=quick, memory_mb=256))
    return sim, platform


def live_provisioned(platform):
    return [sandbox for sandboxes in platform._sandboxes_on.values()
            for sandbox in sandboxes if sandbox.provisioned]


def assert_conserved(platform):
    """Each created sandbox is idle, executing or retired once, by cause."""
    ok, detail = sandboxes_conserved(types.SimpleNamespace(faas=platform))
    assert ok, detail
    return platform.sandboxes_retired


def test_the_conservation_invariant_reports_an_unaccounted_sandbox():
    sim, platform = make()
    platform.invoke("f")
    sim.run(until=10.0)  # long before the keep-alive window ends
    app = types.SimpleNamespace(faas=platform)
    assert sandboxes_conserved(app) == (
        True, "1 created, 1 idle, 0 executing, 0 retired; 0 evictions "
              "counted for 0 evicted or expired")
    # Checking reads the eviction counter; it does not create it.
    assert platform.metrics.find("sandbox_evictions") is None
    platform.sandboxes_created += 1
    assert sandboxes_conserved(app)[0] is False
    platform.sandboxes_created -= 1
    platform.sandboxes_retired["evicted"] += 1  # counted, but not evicted
    platform.sandboxes_created += 1
    assert sandboxes_conserved(app)[0] is False


def test_a_cancelled_trigger_does_not_hold_the_run_open():
    sim, platform = make(keep_alive_s=0.5)
    trigger = platform.schedule_periodic("f", 3600.0, start_after_s=1.0)
    sim.run(until=2.0)
    assert trigger.fired_count == 1
    trigger.cancel()
    trigger.cancel()
    assert trigger.cancelled
    sim.run()
    assert sim.now == 2.0
    assert trigger.fired_count == 1


def test_re_setting_the_count_mid_start_adds_no_sandbox():
    sim, platform = make()
    platform.set_provisioned_concurrency("f", 2)
    done = platform.invoke("f")  # takes an idle provisioned sandbox
    platform.set_provisioned_concurrency("f", 2)  # before it starts
    sim.run()
    assert done.value.succeeded and not done.value.cold_start
    assert len(live_provisioned(platform)) == 2
    assert platform.provisioned_count("f") == 2
    assert platform._provisioned_memory_mb == 512.0


def test_lowering_the_count_mid_start_demotes_the_starting_sandbox():
    sim, platform = make(keep_alive_s=30.0)
    platform.set_provisioned_concurrency("f", 1)
    done = platform.invoke("f")
    platform.set_provisioned_concurrency("f", 0)  # before it starts
    assert platform._provisioned_memory_mb == 0.0
    sim.run()
    assert done.value.succeeded
    assert not live_provisioned(platform)
    assert platform.provisioned_count("f") == 0
    assert platform._provisioned_memory_mb == 0.0
    # Demoted, it expires on its keep-alive like any warm sandbox.
    assert sim.now == done.value.end_time + 30.0
    assert assert_conserved(platform) == {"expired": 1}


def test_crashing_a_retired_sandbox_raises():
    sim, platform = make()
    platform.set_provisioned_concurrency("f", 1)
    sandbox = platform._idle["f"][0]
    assert platform.fail_sandbox(sandbox) is False
    with pytest.raises(SandboxError, match="retired twice"):
        platform.fail_sandbox(sandbox)
    assert platform._provisioned_memory_mb == 0.0
    assert platform.metrics.counter("sandbox_crashes").value == 1
    assert platform.provisioned_count("f") == 0
    assert assert_conserved(platform) == {"crashed": 1}


def test_an_idle_sandbox_has_one_keep_alive_check():
    sim, platform = make(keep_alive_s=10.0)
    checks = []
    expire = platform._expire

    def counted(*args):
        checks.append(sim.now)
        expire(*args)

    platform._expire = counted
    for index in range(50):
        sim.schedule_at(index * 1.0, platform.invoke, "f")
    sim.run()
    # One sandbox serves every call.  Its check re-arms at the current
    # deadline when it fires early, instead of one timer per return.
    assert len(checks) <= 6
    assert sim.now == checks[-1]
    assert assert_conserved(platform) == {"expired": 1}
    assert platform.sandboxes_created == 1


def test_a_shorter_keep_alive_re_arms_the_check_earlier():
    sim, platform = make(keep_alive_s=600.0)
    platform.invoke_sync("f")
    platform.set_keep_alive("f", 5.0)
    second = platform.invoke_sync("f")  # reuses the sandbox
    sim.run()
    assert not second.cold_start
    assert sim.now == second.end_time + 5.0
    assert assert_conserved(platform) == {"expired": 1}


def run_self_failing(fail, max_retries, tracing):
    """One invocation whose first execution crashes its own sandbox (or
    the sandbox's machine) from inside the handler."""
    sim, platform = make(keep_alive_s=30.0)
    if tracing:
        sim.tracer = Tracer(sim)
    executions = []

    def handler(event, ctx):
        executions.append(ctx.sandbox_id)
        if len(executions) == 1:
            own = next(sandbox for sandbox in platform._executing.values()
                       if sandbox.sandbox_id == ctx.sandbox_id)
            fail(platform, own)
        ctx.charge(1.0)
        return "done"

    platform.register(FunctionSpec(name="self-failing", handler=handler,
                                   memory_mb=256, max_retries=max_retries))
    done = platform.invoke("self-failing")
    sim.run()
    record = done.value
    executes = []
    if tracing:
        trace = sim.tracer.trace(record.trace_id)
        assert all(span.finished for span in trace.spans)
        executes = [span.status for span in trace.spans_named("faas.execute")]
    return platform, record, executions, executes


@pytest.mark.parametrize("tracing", [False, True])
def test_a_handler_that_fails_its_own_machine_is_re_executed(tracing):
    platform, record, executions, executes = run_self_failing(
        lambda platform, own: platform.fail_machine(own.machine),
        max_retries=0, tracing=tracing)
    assert record.status is InvocationStatus.OK
    assert record.response == "done"
    assert record.attempts == 2
    assert len(executions) == 2 and executions[0] != executions[1]
    # Only the re-execution is billed.
    assert record.billed_duration_s == pytest.approx(1.0)
    assert assert_conserved(platform) == {"machine_failed": 1, "expired": 1}
    if tracing:
        assert executes == ["error", "ok"]


@pytest.mark.parametrize("tracing", [False, True])
def test_a_handler_that_crashes_its_own_sandbox_fails_unbilled(tracing):
    platform, record, executions, executes = run_self_failing(
        lambda platform, own: platform.fail_sandbox(own),
        max_retries=0, tracing=tracing)
    assert record.status is InvocationStatus.ERROR
    assert isinstance(record.error, FaultInjected)
    assert record.attempts == 1 and len(executions) == 1
    assert record.billed_duration_s == 0.0
    assert platform.metrics.counter("errors").value == 1
    assert assert_conserved(platform) == {"crashed": 1}
    if tracing:
        assert executes == ["error"]


def test_a_handler_that_crashes_its_own_sandbox_is_retried():
    platform, record, executions, __ = run_self_failing(
        lambda platform, own: platform.fail_sandbox(own),
        max_retries=1, tracing=False)
    assert record.status is InvocationStatus.OK
    assert record.attempts == 2 and len(executions) == 2
    assert record.billed_duration_s == pytest.approx(1.0)
    assert assert_conserved(platform) == {"crashed": 1, "expired": 1}


def test_fractional_sandboxes_expire_without_a_negative_total():
    # Releasing 625.8, 65.6 and 13.3 MB in turn leaves the machine's
    # memory total at -1.8e-14 MB before the clamp.
    sim = Simulation(seed=0)
    platform = FaasPlatform(
        sim,
        cluster=Cluster.homogeneous(1, cpu_cores=4, memory_mb=4096),
        config=PlatformConfig(keep_alive_s=10.0),
    )
    for index, memory_mb in enumerate((625.8, 65.6, 13.3)):
        name = f"f{index}"
        platform.register(FunctionSpec(name=name, handler=quick, memory_mb=memory_mb))
        sim.schedule_at(float(index), platform.invoke, name)
    sim.run()
    assert assert_conserved(platform) == {"expired": 3}
    assert platform.cluster.machines[0].used == ResourceVector()


@pytest.mark.parametrize("name, retired", [
    ("faas_warm", {"expired": 420}),
    ("cold_evict", {"evicted": 2865, "expired": 128}),
    ("full_stack", {"expired": 407, "crashed": 29}),
])
def test_perfbench_workloads_conserve_sandboxes(name, retired):
    replay = workloads.make_workload(name, 1, 0.25)
    replay.setup()
    sim = replay.app.sim
    fire = replay.fire
    queue = []  # (queued, cancelled) entries every 100 arrivals

    def sampled_fire(index):
        if index % 100 == 0:
            queue.append((len(sim._heap), len(sim._cancelled)))
        fire(index)

    replay.fire = sampled_fire
    replay.run()
    faas = replay.app.faas
    assert assert_conserved(faas) == retired
    assert faas.sandboxes_created == sum(retired.values())
    # An evicted sandbox's cancelled check leaves the queue long before
    # its keep-alive deadline: the queue stays within 2 x live + slack.
    assert len(queue) == -(-len(replay.trace) // 100)
    for queued, cancelled in queue:
        assert queued <= 2 * (queued - cancelled) + engine._CANCELLED_SLACK
    assert not sim._cancelled


#: The registry methods that look a metric up by name; perfbench's
#: ``--trace 1`` counts the same ones as ``metrics.lookups``.
REGISTRY_LOOKUPS = ("counter", "gauge", "distribution", "histogram", "series",
                    "labeled_counter", "labeled_gauge", "labeled_histogram",
                    "find")


def test_cold_evict_builds_no_vector_per_fit_nor_looks_up_per_bind(
        monkeypatch):
    """The cold path's work, pinned as counts: they repeat exactly."""
    replay = workloads.make_workload("cold_evict", 1, 0.25)
    replay.setup()
    faas = replay.app.faas
    counts = collections.Counter()
    post_init = ResourceVector.__post_init__

    def counted_vector(vector):
        counts["vectors"] += 1
        post_init(vector)

    monkeypatch.setattr(ResourceVector, "__post_init__", counted_vector)
    registry = faas.metrics
    for name in REGISTRY_LOOKUPS:
        lookup = getattr(registry, name)

        def counted_lookup(*args, lookup=lookup, **kwargs):
            counts["lookups"] += 1
            return lookup(*args, **kwargs)

        setattr(registry, name, counted_lookup)
    replay.run()
    vectors, lookups = counts["vectors"], counts["lookups"]
    snapshot = registry.snapshot()
    cold_starts = snapshot["faas.cold_starts"]
    billed = sum(1 for key in snapshot if key.startswith("faas.billing.requests."))
    assert cold_starts > 2000
    # One demand vector per sandbox placed; fit questions build none.
    assert vectors <= cold_starts + 10
    # Four by-name billing counters per billed function; every labeled
    # child binds through a family handle.
    assert billed > 1000
    assert lookups <= 4 * billed + 50
