"""The unified ``taureau.Platform`` facade: wiring, delegation, tracing."""

import pytest

import taureau
from taureau.core.platform import FaasPlatform
from taureau.orchestration import Sequence, Task


class TestConstruction:
    def test_tracing_installed_by_default(self):
        app = taureau.Platform(seed=1)
        assert app.sim.tracer is app.tracer
        assert app.tracer is not None

    def test_tracing_can_be_disabled(self):
        app = taureau.Platform(seed=1, tracing=False)
        assert app.tracer is None
        assert app.sim.tracer is None
        with pytest.raises(RuntimeError):
            app.trace()

    def test_cluster_backend(self):
        app = taureau.Platform(seed=1, machines=2, machine_cores=4.0)
        assert app.cluster is not None
        assert len(app.cluster.machines) == 2
        assert app.faas.cluster is app.cluster

    def test_old_constructors_still_work(self):
        # The facade composes, never replaces: hand-assembly remains valid.
        sim = taureau.Simulation(seed=1)
        platform = FaasPlatform(sim)
        platform.register_handler = None  # attribute poke, not an API claim
        assert platform.sim is sim


class TestDelegation:
    def test_decorator_register_invoke(self):
        app = taureau.Platform(seed=5)

        @app.function("double", memory_mb=128.0)
        def double(event, ctx):
            ctx.charge(0.001)
            return event * 2

        record = app.invoke_sync("double", 21)
        assert record.response == 42
        assert record.trace_id.startswith("trace-")
        assert app.total_cost_usd() > 0

    def test_periodic_and_run(self):
        app = taureau.Platform(seed=5)
        hits = []

        @app.function("tick")
        def tick(event, ctx):
            hits.append(app.sim.now)

        trigger = app.schedule_periodic("tick", interval_s=1.0)
        app.run(until=3.5)
        trigger.cancel()
        assert len(hits) == 3

    def test_orchestrator_joins_the_trace(self):
        app = taureau.Platform(seed=5)

        @app.function("step")
        def step(event, ctx):
            ctx.charge(0.001)
            return (event or 0) + 1

        orchestrator = app.orchestrator()
        output, execution = orchestrator.run_sync(
            Sequence([Task("step"), Task("step")]), 0
        )
        assert output == 2
        trace = app.trace(execution.trace_id)
        assert trace.root.name == "orchestration.run"
        invokes = trace.spans_named("faas.invoke.step")
        assert len(invokes) == 2
        assert all(s.parent_id == trace.root.span_id for s in invokes)


class TestSubsystems:
    def test_jiffy_service_wiring(self):
        app = taureau.Platform(seed=9)
        app.with_jiffy()

        @app.function("stage")
        def stage(event, ctx):
            jiffy = ctx.service("jiffy")
            jiffy.create("/f", ctx=ctx)
            jiffy.append("/f", event, ctx=ctx)
            return jiffy.read_all("/f", ctx=ctx)

        record = app.invoke_sync("stage", "x")
        assert record.response == ["x"]

    def test_kv_and_blob_wiring(self):
        app = taureau.Platform(seed=9)
        app.with_kvstore()
        app.with_blobstore()

        @app.function("writer")
        def writer(event, ctx):
            ctx.service("kv").put("k", event, ctx=ctx)
            return ctx.service("kv").get("k", ctx=ctx)

        record = app.invoke_sync("writer", "v")
        assert record.response == "v"

    def test_merged_snapshot_spans_subsystems(self):
        app = taureau.Platform(seed=9)
        app.with_jiffy()
        runtime = app.with_pulsar().pulsar
        runtime.cluster.create_topic("t")

        @app.function("emit")
        def emit(event, ctx):
            ctx.service("pulsar").producer("t").send(event)

        app.invoke_sync("emit", "m")
        app.run()
        snapshot = app.snapshot()
        assert snapshot["faas.invocations"] == 1.0
        assert any(key.startswith("pulsar.") for key in snapshot)

    def test_last_trace_shortcut(self):
        app = taureau.Platform(seed=9)

        @app.function("f")
        def f(event, ctx):
            return "ok"

        record = app.invoke_sync("f")
        assert app.last_trace().trace_id == record.trace_id


class TestFluentChaining:
    def test_every_builder_returns_the_platform(self):
        app = taureau.Platform(seed=14)
        chained = (
            app.with_jiffy()
            .with_pulsar()
            .with_kvstore()
            .with_blobstore()
            .with_database()
            .with_notifications()
            .with_resilience()
            .with_monitoring()
            .with_control()
        )
        assert chained is app

    def test_subsystem_properties(self):
        from taureau.control import ControlLoop

        app = (taureau.Platform(seed=14)
               .with_jiffy().with_pulsar().with_kvstore().with_blobstore()
               .with_database().with_notifications().with_control())
        assert app.jiffy is not None
        assert app.pulsar is app._subsystems["pulsar"]
        assert app.kv is app._subsystems["kv"]
        assert app.blob is app._subsystems["blob"]
        assert app.db is app._subsystems["db"]
        assert app.sns is app._subsystems["sns"]
        assert isinstance(app.control, ControlLoop)
        assert app.chaos is None  # no plan installed
        assert app.subsystem("kv") is app.kv
        with pytest.raises(KeyError):
            app.subsystem("ghost")

    def test_with_control_twice_rejected(self):
        app = taureau.Platform(seed=14).with_control()
        with pytest.raises(RuntimeError, match="already installed"):
            app.with_control()

    def test_quickstart_chain_from_the_issue(self):
        # The canonical chain the API redesign promises.
        app = (taureau.Platform(seed=7)
               .with_jiffy()
               .with_pulsar()
               .with_monitoring()
               .with_control())
        assert app.monitor is not None and app.control is not None

        @app.function("noop")
        def noop(event, ctx):
            return event

        assert app.invoke_sync("noop", 1).response == 1


class TestCallSignatureHygiene:
    def build(self):
        app = taureau.Platform(seed=15)

        @app.function("echo")
        def echo(event, ctx):
            ctx.charge(0.001)
            return event

        return app

    def test_parent_is_keyword_only(self):
        app = self.build()
        parent = app.invoke_sync("echo", "a")
        span = app.trace(parent.trace_id).root
        with pytest.raises(TypeError):
            app.invoke_sync("echo", "b", span)
        with pytest.raises(TypeError):
            app.faas.invoke_sync("echo", "b", span)
        keyword = app.invoke_sync("echo", "c", parent=span)
        assert keyword.succeeded
        assert keyword.trace_id == parent.trace_id

    def test_invoke_rejects_positional_parent_like_invoke_sync(self):
        app = self.build()
        parent = app.invoke_sync("echo", "a")
        span = app.trace(parent.trace_id).root
        with pytest.raises(TypeError):
            app.invoke("echo", "b", span)
        with pytest.raises(TypeError):
            app.faas.invoke("echo", "b", span)
        event = app.invoke("echo", "c", parent=span)
        app.run()
        assert event.value.succeeded

    def test_periodic_knobs_are_keyword_only(self):
        app = self.build()
        with pytest.raises(TypeError):
            app.schedule_periodic("echo", 1.0, lambda tick: tick)
        trigger = app.schedule_periodic(
            "echo", 1.0, payload_fn=lambda tick: tick, jitter=0.5
        )
        app.run(until=6.2)
        trigger.cancel()
        assert len(trigger.events) >= 4
