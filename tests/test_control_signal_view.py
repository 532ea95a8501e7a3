"""The control loop's per-tick reads, checked against the scans they replaced.

Every read the :class:`~taureau.control.ControlLoop` makes per tick costs
in proportion to what changed: the platform records which functions and
pool keys changed, the loop refreshes only those rows of its signal
table, histograms memoise their last percentile, the platform keeps
per-pool provisioned sets and per-function pending counts, and counter
deltas are keyed on the child metric.  The references here are the reads
those replaced: name-keyed deltas over freshly sorted families, the
O(pending) throttle-queue scan, a scan of every live sandbox for the
provisioned count and a percentile computed from sorted buckets, for
every function at every tick.  Seeded runs with throttling, per-tenant
(``app_sandboxing``) and per-function pools, prewarms, provisioned
concurrency moving up and down (capacity failures included), machine
failures and all three reference policies must show every
:class:`~taureau.control.SignalView` accessor the reference value at
every tick.

The change set is checked the same way: every function whose reference
reading moved since the previous tick, or that has parked work, must be
in ``active()``, and the same runs with views that call every function
active must take the same actions.

The recorder's ``durable.entries_open`` lane is checked the same way
against a recount of open journal entries.
"""

import math
import random

import pytest

import taureau
from taureau.chaos import FaultPlan, ResiliencePolicy, RetryPolicy
from taureau.control import (
    HybridKeepAlive,
    Policy,
    PredictivePrewarm,
    ReactiveConcurrency,
)
from taureau.core import FunctionSpec, PlatformConfig
from taureau.obs import BurnRatePolicy, RunRecorder, SloObjective

QUANTILES = (99.0, 50.0, 95.0, 0.0, 100.0)

#: ``(name, tenant, memory_mb, reserved_concurrency)``.
FUNCTIONS = (
    ("a0", "alpha", 256, None),
    ("a1", "alpha", 128, 1),
    ("b0", "beta", 512, 2),
    ("b1", "beta", 256, None),
    ("c0", "gamma", 128, 1),
)
WEIGHTS = (5, 3, 2, 2, 2)


def work(event, ctx):
    ctx.charge(event)


# -- the reference reads ------------------------------------------------


def scan_pending(faas, name):
    return sum(1 for attempt in faas._pending if attempt.spec.name == name)


def scan_provisioned(faas, name):
    """Provisioned sandboxes idle or executing (not starting)."""
    pool_key = faas._pool_key(faas.spec(name))
    idle = sum(1 for s in faas._idle.get(pool_key, ()) if s.provisioned)
    busy = sum(
        1
        for s in faas._executing.values()
        if s.provisioned and faas._pool_key(s.spec) == pool_key
    )
    return idle + busy


def sorted_percentile(hist, q):
    """``Histogram.percentile`` recomputed from freshly sorted buckets."""
    if q == 0.0:
        return hist.minimum
    if q == 100.0:
        return hist.maximum
    target = max(1, math.ceil((q / 100.0) * hist.count))
    cumulative = hist.zero_count
    if cumulative >= target:
        return 0.0
    for index, count in hist.bucket_items():
        cumulative += count
        if cumulative >= target:
            return min(max(hist.bucket_upper(index), hist.minimum), hist.maximum)
    return hist.maximum


class ReferenceView:
    """The signals as the loop used to read them, once per tick."""

    def __init__(self, app):
        self.faas = app.faas
        self._prev = {}
        self._alerts = []
        app.monitor.on_alert(lambda alert, event: self._alerts.append(
            (alert, event)))

    def _deltas(self, family):
        deltas = {}
        for key, child in sorted(family._children.items()):
            previous = self._prev.get(child.name, 0.0)
            self._prev[child.name] = child.value
            deltas[key] = child.value - previous
        return deltas

    def read(self):
        faas = self.faas
        metrics = faas.metrics
        names = faas.function_names()
        arrivals = {
            function: delta for (function,), delta in self._deltas(
                metrics.labeled_counter("arrivals_by", ("function",))
            ).items()
        }
        starts = self._deltas(
            metrics.labeled_counter("starts_by", ("function", "start"))
        )
        histograms = {}
        for family in ("interarrival_by", "e2e_latency_by"):
            children = metrics.labeled_histogram(family, ("function",))
            histograms[family] = {
                function: child
                for (function,), child in sorted(children._children.items())
            }
        alerts = tuple(self._alerts)
        self._alerts.clear()
        return {
            "names": names,
            "arrivals": arrivals,
            "cold": {f: d for (f, kind), d in starts.items() if kind == "cold"},
            "warm": {f: d for (f, kind), d in starts.items() if kind != "cold"},
            "queue": {name: scan_pending(faas, name) for name in names},
            "provisioned": {name: live_provisioned(faas, name) for name in names},
            "interarrival": histograms["interarrival_by"],
            "latency": histograms["e2e_latency_by"],
            "alerts": alerts,
        }


def live_provisioned(faas, name):
    """Provisioned sandboxes alive anywhere, mid-start ones included."""
    pool_key = faas._pool_key(faas.spec(name))
    return sum(
        1
        for sandboxes in faas._sandboxes_on.values()
        for sandbox in sandboxes
        if sandbox.provisioned and faas._pool_key(sandbox.spec) == pool_key
    )


class ViewChecker(Policy):
    """Installed first, so it reads the view before any policy actuates."""

    name = "view-checker"

    def __init__(self, app):
        self.app = app
        self.reference = ReferenceView(app)
        self.ticks = 0
        self.ticks_with_pending = 0
        self.ticks_mid_start = 0
        self.ticks_with_alerts = 0
        self.ticks_partly_active = 0
        #: Each function's table-backed readings at the previous tick.
        self.readings = {}

    def check_active(self, signals, ref):
        """Every function that may read differently is in ``active()``."""
        faas = self.app.faas
        names = ref["names"]
        active = signals.active()
        assert list(active) == [name for name in names if name in active]
        for name in names:
            pool = faas._idle.get(faas._pool_key(faas.spec(name)), ())
            gaps = ref["interarrival"].get(name)
            latency = ref["latency"].get(name)
            reading = (
                ref["queue"][name],
                faas.running_for(name),
                len(pool),
                ref["provisioned"][name],
                faas.keep_alive_for(name),
                faas.concurrency_limit_for(name),
                gaps.count if gaps is not None else 0,
                latency.count if latency is not None else 0,
            )
            moved = (
                reading != self.readings.get(name)
                or ref["queue"][name] > 0
                or ref["arrivals"].get(name, 0.0)
                or ref["cold"].get(name, 0.0)
                or ref["warm"].get(name, 0.0)
            )
            if moved:
                assert name in active, (signals.now, name)
            self.readings[name] = reading
        self.ticks_partly_active += len(active) < len(names)

    def tick(self, signals, actuator):
        faas = self.app.faas
        ref = self.reference.read()
        names = ref["names"]
        invoker = faas._resilience
        assert signals.functions() == tuple(names)
        self.check_active(signals, ref)
        assert signals.queue_depth() == sum(ref["queue"].values())
        assert signals.alerts == ref["alerts"]
        assert signals.alerting() == any(
            event.kind == "fire" for __, event in ref["alerts"])
        for name in names:
            arrivals = ref["arrivals"].get(name, 0.0)
            cold = ref["cold"].get(name, 0.0)
            warm = ref["warm"].get(name, 0.0)
            assert signals.arrivals(name) == arrivals
            assert signals.arrival_rate(name) == arrivals / signals.interval_s
            assert signals.cold_starts(name) == cold
            assert signals.warm_starts(name) == warm
            assert signals.cold_fraction(name) == (
                cold / (cold + warm) if cold + warm else 0.0)
            assert signals.queue_depth(name) == ref["queue"][name]
            assert signals.provisioned(name) == ref["provisioned"][name]
            assert signals.running(name) == faas.running_for(name)
            pool = faas._idle.get(faas._pool_key(faas.spec(name)), ())
            assert signals.warm_pool(name) == len(pool)
            assert signals.keep_alive(name) == faas.keep_alive_for(name)
            assert signals.concurrency_limit(name) == (
                faas.concurrency_limit_for(name))
            assert signals.breaker_open(name) == (
                invoker.breaker_state(name) != "closed")
            gaps = ref["interarrival"].get(name)
            count = gaps.count if gaps is not None else 0
            assert signals.interarrival_count(name) == count
            for q in QUANTILES:
                assert signals.interarrival_percentile(name, q) == (
                    sorted_percentile(gaps, q) if count else 0.0)
            assert signals.interarrival_mean(name) == (
                gaps.mean if count else 0.0)
            latency = ref["latency"].get(name)
            assert signals.latency_mean(name) == (
                latency.mean if latency is not None and latency.count else 0.0)
            if scan_provisioned(faas, name) != ref["provisioned"][name]:
                self.ticks_mid_start += 1
        self.ticks += 1
        self.ticks_with_pending += bool(sum(ref["queue"].values()))
        self.ticks_with_alerts += bool(ref["alerts"])


def drive(seed, app_sandboxing, horizon_s=60.0, rate_hz=12.0,
          all_active=False):
    """One seeded run with every per-tick read checked.

    ``all_active`` hands the policies views that call every function
    active.  Returns the checker and the provisioned requests that ran
    out of capacity.
    """
    app = taureau.Platform(
        seed=seed, machines=3, machine_memory_mb=2048.0, tracing=False,
        config=PlatformConfig(keep_alive_s=15.0, app_sandboxing=app_sandboxing),
    )
    for name, tenant, memory_mb, reserved in FUNCTIONS:
        app.register(FunctionSpec(
            name=name, handler=work, tenant=tenant, memory_mb=memory_mb,
            reserved_concurrency=reserved,
        ))
    app.with_resilience(ResiliencePolicy(retry=RetryPolicy(max_attempts=2)))
    app.with_monitoring(slos=[SloObjective(
        "fast", objective=0.99, window_s=20.0,
        latency="faas.e2e_latency_s", threshold_s=0.25,
        burn_policies=(BurnRatePolicy(5.0, 20.0, 2.0, severity="page"),),
    )], interval_s=1.0)
    checker = ViewChecker(app)
    app.with_control(policies=[
        checker,
        ReactiveConcurrency(high_queue=2, max_limit=4),
        PredictivePrewarm(min_arrivals=2, max_prewarm=3),
        HybridKeepAlive(min_samples=4),
    ], interval_s=0.5)
    if all_active:
        build_view = app.control.build_view

        def all_active_view():
            view = build_view()
            view._active = view.functions()
            return view

        app.control.build_view = all_active_view

    rng = random.Random(seed)
    names = [name for name, *__ in FUNCTIONS]
    clock = 0.0
    while clock < horizon_s:
        clock += rng.expovariate(rate_hz)
        name = rng.choices(names, WEIGHTS)[0]
        app.sim.schedule_at(clock, app.invoke, name,
                            rng.choice((0.02, 0.05, 0.2, 0.6)))

    failures = []

    def provision(name, count):
        faas = app.faas
        assert faas.provisioned_count(name) == live_provisioned(faas, name)
        try:
            faas.set_provisioned_concurrency(name, count)
        except RuntimeError:
            failures.append((name, count))
        assert faas.provisioned_count(name) == live_provisioned(faas, name)

    for __ in range(24):
        app.sim.schedule_at(
            rng.uniform(0.0, horizon_s), provision, rng.choice(names),
            rng.choice((0, 1, 2, 3, 40)),
        )
    for __ in range(6):
        app.sim.schedule_at(rng.uniform(0.0, horizon_s), app.faas.prewarm,
                            rng.choice(names), rng.randint(1, 3))
    app.sim.schedule_at(
        horizon_s / 2, lambda: app.faas.fail_machine(app.cluster.machines[0]))
    app.run()
    return checker, failures


@pytest.mark.parametrize("app_sandboxing", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_every_signal_matches_the_reference_reads(seed, app_sandboxing):
    checker, failures = drive(seed, app_sandboxing)
    assert checker.ticks >= 100
    assert checker.ticks_with_pending, "the throttle queue was never parked"
    assert failures, "no provisioned request ran out of capacity"
    assert checker.ticks_with_alerts, "no burn-rate alert reached the loop"
    # A provisioned sandbox between leaving the pool and starting is
    # neither idle nor executing: the old scan skipped it, the count
    # (checked against the live reference above) includes it.
    assert checker.ticks_mid_start, "no tick caught a provisioned warm start"
    assert checker.ticks_partly_active, "every tick called every function active"


@pytest.mark.parametrize("app_sandboxing", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_active_views_take_the_actions_of_all_function_views(
        seed, app_sandboxing):
    checker, __ = drive(seed, app_sandboxing)
    everything, __ = drive(seed, app_sandboxing, all_active=True)
    actions = checker.app.control.actuator.actions
    assert actions == everything.app.control.actuator.actions
    kinds = {(action.policy, action.verb, action.value is None)
             for action in actions}
    assert ("reactive", "concurrency_limit", False) in kinds  # a raise
    assert ("reactive", "concurrency_limit", True) in kinds  # its clearing
    assert ("predictive", "prewarm", False) in kinds
    assert ("hybrid-keepalive", "keep_alive", False) in kinds


def isolated_events(app_sandboxing):
    """One platform event per tick window, each alone in moving a signal.

    Every platform site that marks a function or pool as changed gets a
    tick where it is the only one to mark it, so a missing mark shows up
    as a stale reading: a re-registration (new concurrency limit, then a
    new tenant), a finish that retires its sandbox (keep-alive 0), a
    crash with no retry left, a machine failure under an executing
    provisioned sandbox, and a provisioned warm start that straddles a
    tick.
    """
    app = taureau.Platform(
        seed=4, machines=2, machine_memory_mb=2048.0, tracing=False,
        config=PlatformConfig(keep_alive_s=15.0, app_sandboxing=app_sandboxing),
    )
    for name, tenant, memory_mb in (("a0", "alpha", 256), ("a1", "alpha", 128),
                                    ("b0", "beta", 256), ("k0", "gamma", 128),
                                    ("c0", "gamma", 128)):
        app.register(FunctionSpec(name=name, handler=work, tenant=tenant,
                                  memory_mb=memory_mb))
    app.with_resilience(ResiliencePolicy(retry=RetryPolicy(max_attempts=0)))
    app.with_monitoring(slos=[], interval_s=1.0)
    checker = ViewChecker(app)
    app.with_control(policies=[checker], interval_s=1.0)
    faas = app.faas
    at = app.sim.schedule_at

    def executing(name):
        return next(sandbox for attempt, sandbox in faas._executing.items()
                    if attempt.spec.name == name)

    at(0.5, app.invoke, "a0", 3.0)
    at(1.5, faas.set_provisioned_concurrency, "a1", 1)
    at(2.5, app.register, FunctionSpec(
        name="a1", handler=work, tenant="alpha", memory_mb=128,
        reserved_concurrency=2))
    at(4.5, app.register, FunctionSpec(
        name="b0", handler=work, tenant="alpha", memory_mb=256))
    at(5.5, faas.set_keep_alive, "k0", 0.0)
    at(6.5, app.invoke, "k0", 2.0)  # finishes alone and is retired
    at(9.5, app.invoke, "c0", 5.0)
    at(11.5, lambda: faas.fail_sandbox(executing("c0")))  # no retry left
    at(22.5, app.invoke, "a1", 5.0)  # takes the provisioned sandbox
    at(24.5, lambda: faas.fail_machine(executing("a1").machine))
    at(30.5, faas.set_provisioned_concurrency, "a1", 1)
    at(31.998, app.invoke, "a1", 1.0)  # starts 4 ms later, after the tick
    app.run()
    return checker


@pytest.mark.parametrize("app_sandboxing", [False, True])
def test_a_lone_event_still_refreshes_its_rows(app_sandboxing):
    checker = isolated_events(app_sandboxing)
    assert checker.ticks >= 40
    assert checker.ticks_mid_start, "no tick caught the provisioned warm start"


def test_recorder_open_entries_lane_equals_a_recount(monkeypatch):
    app = taureau.Platform(seed=7, tracing=False)
    app.with_kvstore()

    @app.function("write", memory_mb=128)
    def write(event, ctx):
        ctx.charge(0.2)
        ctx.service("kv").put(f"k{event % 8}", event, ctx=ctx)
        return event

    app.with_chaos(FaultPlan()
                   .crash_sandbox(rate_hz=0.5, start_s=0.0, end_s=30.0)
                   .baas_errors(start_s=5.0, end_s=12.0, error_rate=0.5,
                                component="baas.kv"))
    app.with_resilience(ResiliencePolicy(retry=RetryPolicy(max_attempts=3)))
    app.with_durability()
    journal = app.durable.journal
    lane_reads = []
    original_tick = RunRecorder.tick

    def checked_tick(recorder):
        original_tick(recorder)
        recount = sum(
            1 for entry in journal.entries.values() if not entry.completed)
        lane = recorder._series["durable.entries_open"]
        assert lane[-1] == recount
        lane_reads.append(recount)

    # The kernel's loop holds the tick registered at install, so the
    # check wraps the class's tick before with_recorder().
    monkeypatch.setattr(RunRecorder, "tick", checked_tick)
    app.with_recorder(interval_s=0.5)
    recorder = app.recorder
    for index in range(120):
        app.sim.schedule_at(index * 0.25, app.invoke, "write", index)
    app.run()
    assert len(lane_reads) == recorder.ticks > 40
    assert max(lane_reads) > 0
    assert app.durable.metrics.counter("recoveries").value > 0
    assert journal.open_count() == 0
