"""The KV, chaos and durable metric handles are invisible in output.

``KvStore``, ``ChaosController.guard`` and ``DurabilityManager`` bind
the metrics they record per operation once instead of looking them up
by name on every call.  Each metric must still come into being exactly
when its first sample is recorded (or, for the guard's ``retries_by``
family, at the first guard call that finds a window installed), so
every registry's ``snapshot()`` keys, their order and their values
match a lookup-per-call platform.  The pinned lists below are the
output of that lookup-per-call platform on two seeded scenarios.
"""

import taureau
from taureau.baas import ConditionFailed
from taureau.chaos import FaultPlan, ResiliencePolicy, RetryPolicy
from taureau.core import InvocationStatus


def windowed():
    """A KV brown-out over [3, 4) under a two-retry, unjittered policy.

    ``crud`` runs every KV operation before the window opens; its
    guard calls are the first, so ``retries_by`` exists before any
    fault.  ``straddle`` journals a put just before the window, then
    reads inside it: the read exhausts its retries, the attempt fails,
    and durable recovery re-runs it, replaying the put.  The recovered
    attempt's read and ``late``'s read both fault near the window's end
    and recover in place.
    """
    app = taureau.Platform(seed=11)
    app.with_kvstore()
    app.with_resilience(ResiliencePolicy(retry=RetryPolicy(
        max_attempts=2, base_delay_s=0.05, multiplier=2.0, jitter=0.0)))
    app.with_chaos(FaultPlan().baas_errors(
        start_s=3.0, end_s=4.0, error_rate=1.0, component="baas.kv"))
    app.with_durability()
    kv = app.kv

    @app.function("crud")
    def crud(event, ctx):
        try:
            kv.get("missing", ctx=ctx)  # raises before it records anything
        except KeyError:
            pass
        version = kv.put("a", event, ctx=ctx)
        kv.get("a", ctx=ctx)
        item = kv.get_item("a", ctx=ctx)
        kv.put_if_version("a", event + 1, item.version, ctx=ctx)
        try:
            kv.put_if_version("a", event + 2, version, ctx=ctx)
        except ConditionFailed:
            pass
        kv.put("b", [event] * 3, ctx=ctx)
        kv.delete("b", ctx=ctx)
        return "ok"

    @app.function("straddle")
    def straddle(event, ctx):
        kv.put("s", event, ctx=ctx)
        ctx.charge(0.2)
        return kv.get("s", ctx=ctx)

    @app.function("late")
    def late(event, ctx):
        return kv.get("a", ctx=ctx)

    records = []
    for when, name, payload in ((0.2, "crud", 1), (2.5, "straddle", 7),
                                (3.55, "late", None), (6.0, "crud", 10)):
        app.sim.schedule_at(
            when, lambda name=name, payload=payload:
            records.append(app.invoke(name, payload)))
    app.run()
    return app, [event.value for event in records]


def unwindowed():
    """A chaos plan with one sandbox crash and no window.

    Every guard call returns before it records anything.  The crash
    kills ``writer`` after its two journaled effects; durable recovery
    re-runs it and replays both.  ``kv`` only ever puts and deletes,
    and ``idle`` is never used.
    """
    app = taureau.Platform(seed=11)
    app.with_kvstore()
    app.with_kvstore(name="idle")
    app.with_resilience(ResiliencePolicy(retry=RetryPolicy(max_attempts=2)))
    app.with_chaos(FaultPlan().crash_sandbox(at_s=1.0))
    app.with_durability()
    kv = app.kv
    kv.put("seed", 0)

    @app.function("writer")
    def writer(event, ctx):
        kv.put("k", event, ctx=ctx)
        kv.delete("k", ctx=ctx)
        ctx.charge(1.0)
        return "ok"

    record = app.invoke_sync("writer", 3)
    return app, record


def pairs(registry) -> list:
    return list(registry.snapshot().items())


# ``snapshot()`` of :func:`windowed`'s registries, as (key, value) pairs.
WINDOWED_KV = [
    ("baas.kv.puts", 7.0),
    ("baas.kv.gets", 6.0),
    ("baas.kv.condition_failures", 2.0),
    ("baas.kv.deletes", 2.0),
    ("baas.kv.io_size_mb",
     {"count": 19, "mean": 3.192299290707237e-05,
      "p50": 2.781638572244057e-05, "p99": 0.000156402587890625}),
    ('baas.kv.ops_by{op="delete"}', 2.0),
    ('baas.kv.ops_by{op="get"}', 6.0),
    ('baas.kv.ops_by{op="put"}', 7.0),
    ('baas.kv.ops_by{op="put_if_version"}', 4.0),
]
WINDOWED_CHAOS = [
    ('chaos.retries_by{component="baas.kv",outcome="exhausted"}', 1.0),
    ('chaos.retries_by{component="baas.kv",outcome="recovered"}', 2.0),
    ('chaos.retries_by{component="baas.kv",outcome="retry"}', 6.0),
    ('chaos.faults_injected_by{kind="baas_error"}', 7.0),
]
WINDOWED_DURABLE = [
    ("durable.entries_opened", 4.0),
    ("durable.effects_journaled", 9.0),
    ("durable.effects_replayed", 1.0),
    ("durable.recoveries", 1.0),
    ("durable.recoveries_exhausted", 0.0),
    ("durable.billing_credit_slices", 4.0),
    ("durable.messages_deduped", 0.0),
    ("durable.checkpoint_hits", 0.0),
    ("durable.checkpoint_writes", 0.0),
    ('durable.recoveries_by{kind="baas_error"}', 1.0),
]

# ``snapshot()`` of :func:`unwindowed`'s registries.
UNWINDOWED_KV = [
    ("baas.kv.puts", 2.0),
    ("baas.kv.deletes", 1.0),
    ("baas.kv.io_size_mb",
     {"count": 3, "mean": 1.7801920572916668e-05,
      "p50": 2.6702880859375e-05, "p99": 2.6702880859375e-05}),
    ('baas.kv.ops_by{op="delete"}', 1.0),
    ('baas.kv.ops_by{op="put"}', 2.0),
]
UNWINDOWED_IDLE = []
UNWINDOWED_CHAOS = [
    ('chaos.faults_injected_by{kind="sandbox_crash"}', 1.0),
]
UNWINDOWED_DURABLE = [
    ("durable.entries_opened", 1.0),
    ("durable.effects_journaled", 2.0),
    ("durable.effects_replayed", 2.0),
    ("durable.recoveries", 1.0),
    ("durable.recoveries_exhausted", 0.0),
    ("durable.billing_credit_slices", 0.0),
    ("durable.messages_deduped", 0.0),
    ("durable.checkpoint_hits", 0.0),
    ("durable.checkpoint_writes", 0.0),
    ('durable.recoveries_by{kind="sandbox_crash"}', 1.0),
]


class TestWindowedScenario:
    def test_every_invocation_succeeds(self):
        __, records = windowed()
        assert [record.status for record in records] == [InvocationStatus.OK] * 4
        assert records[1].response == 7

    def test_kv_snapshot_matches_lookup_per_call(self):
        app, __ = windowed()
        assert pairs(app.kv.metrics) == WINDOWED_KV

    def test_chaos_snapshot_matches_lookup_per_call(self):
        # retries_by exists from crud's first guard call, so it precedes
        # faults_injected_by, which the first fault creates.
        app, __ = windowed()
        assert pairs(app.chaos.metrics) == WINDOWED_CHAOS

    def test_durable_snapshot_matches_lookup_per_call(self):
        app, __ = windowed()
        assert pairs(app.durable.metrics) == WINDOWED_DURABLE


class TestUnwindowedScenario:
    def test_guard_without_a_window_creates_nothing(self):
        app, record = unwindowed()
        assert record.status is InvocationStatus.OK
        assert record.attempts == 2
        assert app.chaos.metrics.find("retries_by") is None
        assert pairs(app.chaos.metrics) == UNWINDOWED_CHAOS

    def test_kv_snapshots_match_lookup_per_call(self):
        # No get and no failed condition: neither counter exists, and the
        # unused store records nothing at all.
        app, __ = unwindowed()
        assert pairs(app.kv.metrics) == UNWINDOWED_KV
        assert pairs(app.subsystem("idle").metrics) == UNWINDOWED_IDLE

    def test_durable_snapshot_matches_lookup_per_call(self):
        app, __ = unwindowed()
        assert pairs(app.durable.metrics) == UNWINDOWED_DURABLE
