"""End-to-end distributed tracing: span model, propagation, analysis.

Covers the observability subsystem's contracts: deterministic span
identity, explicit context propagation across FaaS → Jiffy → Pulsar,
the exact critical-path decomposition, cost attribution, Chrome
trace_event export, and byte-identical traces across same-seed runs.
"""

import json

import pytest

import taureau
from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform, PlatformConfig, ThrottledError
from taureau.obs import (
    Span,
    SpanContext,
    Trace,
    Tracer,
    TraceStore,
    critical_path,
    validate_chrome_trace,
)
from taureau.pulsar import PulsarFunction
from taureau.sim import MetricRegistry, Simulation


class TestSpanModel:
    def test_finish_sets_end_and_status(self):
        span = Span("t", "s0", None, "work", start=1.0, seq=0)
        assert not span.finished
        span.finish(3.5, status="error")
        assert span.finished
        assert span.duration_s == 2.5
        assert span.status == "error"

    def test_double_finish_rejected(self):
        span = Span("t", "s0", None, "work", start=0.0, seq=0)
        span.finish(1.0)
        with pytest.raises(ValueError):
            span.finish(2.0)

    def test_end_before_start_rejected(self):
        span = Span("t", "s0", None, "work", start=5.0, seq=0)
        with pytest.raises(ValueError):
            span.finish(4.0)

    def test_tracer_mints_deterministic_ids(self):
        sim = Simulation(seed=1)
        tracer = Tracer(sim)
        root = tracer.start_span("a")
        child = tracer.start_span("b", parent=root)
        other = tracer.start_span("c")
        assert root.trace_id == "trace-0"
        assert child.trace_id == "trace-0"
        assert child.parent_id == root.span_id
        assert other.trace_id == "trace-1"

    def test_propagation_via_span_context(self):
        sim = Simulation(seed=1)
        tracer = Tracer(sim)
        root = tracer.start_span("a")
        # A SpanContext is all a remote party needs to join the trace.
        joined = tracer.start_span("b", parent=root.context())
        assert joined.trace_id == root.trace_id
        assert joined.parent_id == root.span_id

    def test_minted_ids_render_from_the_sequence(self):
        tracer = Tracer(Simulation(seed=1))
        root = tracer.start_span("a")
        child = tracer.record("b", root, 0.0, 1.0)
        grandchild = tracer.start_span("c", parent=child)
        for seq, span in enumerate([root, child, grandchild]):
            assert span.span_id == f"s{seq}"
        assert root.parent_id is None
        assert child.parent_id == root.span_id == "s0"
        assert grandchild.parent_id == child.span_id == "s1"
        assert grandchild.context() == SpanContext("trace-0", "s2")

    def test_context_parents_and_hand_built_spans_keep_their_ids(self):
        tracer = Tracer(Simulation(seed=1))
        foreign = SpanContext("trace-9", "remote-7")
        joined = tracer.start_span("joined", parent=foreign)
        recorded = tracer.record("recorded", foreign, 0.0, 1.0)
        for span in (joined, recorded):
            assert (span.trace_id, span.parent_id) == ("trace-9", "remote-7")
        assert (joined.span_id, recorded.span_id) == ("s0", "s1")
        built = Span("t", "r", None, "root", 0.0, 5)
        child = Span("t", "a", "r", "A", 1.0, 6, {"k": 1})
        assert (built.span_id, built.parent_id) == ("r", None)
        assert (child.span_id, child.parent_id) == ("a", "r")
        assert child.context() == SpanContext("t", "a")
        assert built.attributes == {} and child.attributes == {"k": 1}

    def test_trace_tree_queries(self):
        sim = Simulation(seed=1)
        store = TraceStore()
        tracer = Tracer(sim, store)
        root = tracer.start_span("root").finish(10.0)
        tracer.start_span("child", parent=root).finish(4.0)
        trace = store.trace(root.trace_id)
        assert trace.root is trace.span_named("root")
        assert [s.name for s in trace.children(trace.root)] == ["child"]
        assert trace.duration_s == 10.0


class TestCriticalPath:
    def _trace(self, spans):
        return Trace("t", spans)

    def test_self_times_sum_to_root_duration(self):
        # root [0,10] with children A [1,4] and B [3,9]: the blocking
        # chain is root → B (A finished after B started, so it never
        # bounded the end).  Self-times must sum to exactly 10.
        root = Span("t", "r", None, "root", 0.0, 0)
        root.finish(10.0)
        a = Span("t", "a", "r", "A", 1.0, 1)
        a.finish(4.0)
        b = Span("t", "b", "r", "B", 3.0, 2)
        b.finish(9.0)
        path = critical_path(self._trace([root, a, b]))
        assert [e.span.name for e in path] == ["root", "B"]
        assert path.total_s == pytest.approx(10.0)
        assert path.self_time_of("B") == pytest.approx(6.0)
        assert path.self_time_of("root") == pytest.approx(4.0)

    def test_sequential_chain(self):
        root = Span("t", "r", None, "root", 0.0, 0)
        root.finish(10.0)
        first = Span("t", "a", "r", "first", 0.0, 1)
        first.finish(4.0)
        second = Span("t", "b", "r", "second", 4.0, 2)
        second.finish(10.0)
        path = critical_path(self._trace([root, first, second]))
        assert [e.span.name for e in path] == ["root", "first", "second"]
        assert path.self_time_of("root") == pytest.approx(0.0)
        assert path.total_s == pytest.approx(10.0)

    def test_zero_length_spans_are_skipped(self):
        root = Span("t", "r", None, "root", 0.0, 0)
        root.finish(5.0)
        marker = Span("t", "m", "r", "marker", 5.0, 1)
        marker.finish(5.0)
        path = critical_path(self._trace([root, marker]))
        assert [e.span.name for e in path] == ["root"]
        assert path.total_s == pytest.approx(5.0)

    def test_unfinished_root_rejected(self):
        root = Span("t", "r", None, "root", 0.0, 0)
        with pytest.raises(ValueError):
            critical_path(self._trace([root]))


class TestPlatformTracing:
    def _traced_platform(self):
        sim = Simulation(seed=11)
        sim.tracer = Tracer(sim)
        platform = FaasPlatform(sim)
        return sim, platform

    def test_invocation_trace_shape_and_latency_accounting(self):
        sim, platform = self._traced_platform()

        def handler(event, ctx):
            ctx.charge(0.02)
            return "ok"

        platform.register(FunctionSpec(name="f", handler=handler))
        record = platform.invoke_sync("f")
        trace = sim.tracer.trace(record.trace_id)
        root = trace.root
        assert root.name == "faas.invoke.f"
        execute = trace.span_named("faas.execute")
        assert execute.parent_id == root.span_id
        cold = trace.span_named("faas.cold_start")
        assert cold.parent_id == root.span_id
        # The acceptance invariant: critical-path self-times sum exactly
        # to the recorded end-to-end latency.
        path = trace.critical_path()
        assert path.total_s == pytest.approx(record.end_to_end_latency_s)

    def test_invoke_and_invoke_sync_agree_on_result_shape(self):
        sim, platform = self._traced_platform()
        platform.register(
            FunctionSpec(name="f", handler=lambda event, ctx: "ok")
        )
        done = platform.invoke("f")
        async_record = sim.run(until=done)
        sync_record = platform.invoke_sync("f")
        assert type(async_record) is type(sync_record)
        assert async_record.trace_id == "trace-0"
        assert sync_record.trace_id == "trace-1"

    def test_untraced_invocation_has_empty_trace_id(self):
        sim = Simulation(seed=11)
        platform = FaasPlatform(sim)
        platform.register(
            FunctionSpec(name="f", handler=lambda event, ctx: "ok")
        )
        record = platform.invoke_sync("f")
        assert record.trace_id == ""

    def test_handler_side_spans_via_charge_io_and_trace_span(self):
        sim, platform = self._traced_platform()

        def handler(event, ctx):
            with ctx.trace_span("phase.parse"):
                ctx.charge(0.001)
            ctx.charge_io(0.002, "io.read", path="/x")
            return "ok"

        platform.register(FunctionSpec(name="f", handler=handler))
        record = platform.invoke_sync("f")
        trace = sim.tracer.trace(record.trace_id)
        execute = trace.span_named("faas.execute")
        parse = trace.span_named("phase.parse")
        io = trace.span_named("io.read")
        assert parse.parent_id == execute.span_id
        assert io.parent_id == execute.span_id
        assert io.attributes["path"] == "/x"
        # Handler-side spans tile the accrued-time line deterministically.
        assert parse.duration_s == pytest.approx(0.001)
        assert io.start == pytest.approx(parse.end)

    def test_throttled_error_names_function_and_concurrency(self):
        sim, platform = self._traced_platform()
        platform.config.concurrency_limit = 1
        platform.config.queue_on_throttle = False
        platform.register(
            FunctionSpec(
                name="slow",
                handler=lambda event, ctx: ctx.charge(1.0),
            )
        )
        first = platform.invoke("slow")
        second = platform.invoke("slow")
        sim.run(until=first)
        record = sim.run(until=second)
        assert isinstance(record.error, ThrottledError)
        message = str(record.error)
        assert "slow" in message
        assert "1 running" in message

    def test_cost_attribution_covers_the_bill(self):
        sim, platform = self._traced_platform()

        def handler(event, ctx):
            ctx.charge(0.01)
            ctx.charge_io(0.005, "io.read")
            return "ok"

        platform.register(FunctionSpec(name="f", handler=handler))
        record = platform.invoke_sync("f")
        trace = sim.tracer.trace(record.trace_id)
        attribution = trace.cost_attribution()
        billed_gb_s = sum(
            s.attributes["gb_s"] for s in trace.spans_named("faas.billing")
        )
        assert sum(v["gb_s"] for v in attribution.values()) == pytest.approx(
            billed_gb_s
        )
        assert sum(v["cost_usd"] for v in attribution.values()) == pytest.approx(
            record.cost_usd
        )
        # The I/O span carries its proportional share of the bill.
        assert attribution["io.read"]["cost_usd"] > 0


class TestFullStackPropagation:
    def _build(self, seed=7):
        app = taureau.Platform(seed=seed)
        jiffy = app.with_jiffy().jiffy
        runtime = app.with_pulsar().pulsar
        runtime.cluster.create_topic("events")
        seen = []
        runtime.deploy(
            PulsarFunction(
                name="sink",
                process=lambda payload, ctx: seen.append(payload) or None,
                input_topics=["events"],
            )
        )

        @app.function("pipeline")
        def pipeline(event, ctx):
            scratch = ctx.service("jiffy")
            scratch.create("/stage", ctx=ctx)
            scratch.append("/stage", event, ctx=ctx)
            ctx.service("pulsar").producer("events").send(
                event, parent=ctx.span_context()
            )
            return "done"

        _ = jiffy
        return app, seen

    def test_span_parentage_across_faas_jiffy_pulsar(self):
        app, seen = self._build()
        record = app.invoke_sync("pipeline", "hello")
        app.run()  # drain persist/dispatch and the sink function
        assert seen == ["hello"]

        trace = app.trace(record.trace_id)
        root = trace.root
        assert root.name == "faas.invoke.pipeline"
        execute = trace.span_named("faas.execute")
        assert execute.parent_id == root.span_id

        jiffy_spans = [s for s in trace.spans if s.name.startswith("jiffy.")]
        assert jiffy_spans, "handler Jiffy I/O must join the trace"
        assert all(s.parent_id == execute.span_id for s in jiffy_spans)

        publish = trace.span_named("pulsar.publish.events")
        assert publish.parent_id == execute.span_id
        persist = trace.span_named("pulsar.persist")
        assert persist.parent_id == publish.span_id
        dispatch = trace.span_named("pulsar.dispatch")
        assert dispatch.parent_id == publish.span_id
        # The stream function joins the same trace via message.trace.
        fn_span = trace.span_named("pulsar.fn.sink")
        assert fn_span.trace_id == record.trace_id
        assert fn_span.parent_id == publish.span_id

    def test_same_seed_runs_export_byte_identical_traces(self):
        documents = []
        for _round in range(2):
            app, _seen = self._build(seed=21)
            record = app.invoke_sync("pipeline", "hello")
            app.run()
            trace = app.trace(record.trace_id)
            documents.append(
                (trace.render(), json.dumps(trace.to_chrome_trace(),
                                            sort_keys=True))
            )
        assert documents[0][0] == documents[1][0]
        assert documents[0][1] == documents[1][1]

    def test_chrome_export_is_schema_valid(self):
        app, _seen = self._build()
        record = app.invoke_sync("pipeline", "hello")
        app.run()
        document = app.trace(record.trace_id).to_chrome_trace()
        assert validate_chrome_trace(document) == []
        # The export round-trips through JSON (no exotic values).
        assert validate_chrome_trace(json.loads(json.dumps(document))) == []


class TestMetricNamespaces:
    def test_short_and_dotted_names_alias_one_counter(self):
        registry = MetricRegistry(namespace="faas")
        short = registry.counter("invocations")
        dotted = registry.counter("faas.invocations")
        assert short is dotted
        short.add(3)
        assert registry.snapshot() == {"faas.invocations": 3.0}

    def test_platform_metrics_are_canonical(self):
        sim = Simulation(seed=3)
        platform = FaasPlatform(sim)
        platform.register(
            FunctionSpec(name="f", handler=lambda event, ctx: "ok")
        )
        platform.invoke_sync("f")
        snapshot = platform.metrics.snapshot()
        assert all(key.startswith("faas.") for key in snapshot)
        assert snapshot["faas.invocations"] == 1.0
