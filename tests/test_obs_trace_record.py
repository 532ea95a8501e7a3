"""``Tracer.record`` files a finished span in one step.

The one-step path must mint the same ids and file the same spans as
opening a span with ``start_span`` and closing it with ``finish``, and a
call it rejects must leave no trace behind: no span filed, no span id
or trace id used up.
"""

import pytest

from taureau.obs import SpanContext, Tracer
from taureau.sim import Simulation


class TwoStepTracer(Tracer):
    """The oracle: ``record`` as ``start_span`` followed by ``finish``."""

    def record(self, name, parent, start, end, status="ok", **attributes):
        span = self.start_span(name, parent=parent, start=start, **attributes)
        span.finish(end, status=status)
        return span


def script(tracer) -> list:
    """Roots, children and ``SpanContext`` parents, open spans beside
    recorded ones, with and without attributes, under several statuses."""
    sim = tracer.sim
    root = tracer.start_span("root", function="f", tenant="t0")
    spans = [root]
    spans.append(tracer.record("queue", root, 0.0, 0.5))
    spans.append(tracer.record("cold", parent=root, start=0.5, end=0.9,
                               memory_mb=256))
    execute = tracer.start_span("execute", parent=root, start=0.9,
                                sandbox_id="sb0", attempt=0)
    spans.append(execute)
    spans.append(tracer.record("baas.kv.get", execute, 0.9, 0.9,
                               store="kv", key="k"))
    spans.append(tracer.record("baas.kv.put", execute.context(), 0.9, 1.2,
                               status="error", key="k", store="kv"))
    spans.append(tracer.record("marker", None, 1.0, 1.0, status="skipped",
                               target="(no target)", detail=None))
    spans.append(tracer.record("window", None, 0.0, 30.0,
                               component="baas.kv", error_rate=0.3,
                               extra_latency_s=0.0))
    execute.finish(1.4)
    spans.append(tracer.record("billing", root, 1.4, 1.4, gb_s=0.25,
                               cost_usd=1e-6, billed_duration_s=0.5,
                               attempt=0))
    root.finish(1.4, status="ok")
    sim.run(until=2.0)
    foreign = SpanContext("trace-7", "s99")
    spans.append(tracer.record("stitched", foreign, 2.0, 2.5,
                               status="timeout"))
    late = tracer.start_span("late")
    spans.append(late)
    spans.append(tracer.record("late.child", late, 2.0, 3.0, status="error"))
    spans.append(tracer.record("bare", late.context(), 2.5, 2.75))
    late.finish(3.0, status="error")
    return spans


def fields(span) -> tuple:
    return (span.trace_id, span.span_id, span.parent_id, span.name,
            span.start, span.end, span.status,
            list(span.attributes.items()))


class TestOneStepRecord:
    def test_matches_the_two_step_oracle(self):
        one = Tracer(Simulation(seed=3))
        two = TwoStepTracer(Simulation(seed=3))
        assert [fields(span) for span in script(one)] == \
            [fields(span) for span in script(two)]
        assert one.store.trace_ids() == two.store.trace_ids()
        for trace_id in two.store.trace_ids():
            assert [fields(span) for span in one.trace(trace_id).spans] == \
                [fields(span) for span in two.trace(trace_id).spans]

    def test_recorded_span_is_finished_and_filed(self):
        tracer = Tracer(Simulation(seed=1))
        span = tracer.record("once", None, 1.0, 2.5, status="error", a=1)
        assert span.finished and span.duration_s == 1.5
        assert tracer.last_trace().spans == [span]
        assert span.attributes == {"a": 1}
        with pytest.raises(ValueError, match="finished twice"):
            span.finish(3.0)


class TestFailedRecordFilesNothing:
    def test_child_span_is_not_filed(self):
        tracer = Tracer(Simulation(seed=1))
        root = tracer.start_span("root")
        with pytest.raises(ValueError,
                           match=r"^span 'child': end 1.0 precedes start 5.0$"):
            tracer.record("child", parent=root, start=5.0, end=1.0)
        assert tracer.trace(root.trace_id).spans == [root]
        # The span id was not used up.
        assert tracer.record("next", root, 5.0, 6.0).span_id == "s1"

    def test_root_span_uses_up_no_trace_id(self):
        tracer = Tracer(Simulation(seed=1))
        with pytest.raises(ValueError, match="precedes start"):
            tracer.record("orphan", None, 2.0, 1.0, key="k")
        assert tracer.store.trace_ids() == []
        span = tracer.record("first", None, 1.0, 2.0)
        assert (span.trace_id, span.span_id) == ("trace-0", "s0")


class TestCompactAttributes:
    """A minted span keeps its attributes as a value tuple beside a key
    tuple its tracer shares, and turns them into one dict when read."""

    def test_attributes_keep_call_order_and_one_dict(self):
        tracer = Tracer(Simulation(seed=1))
        span = tracer.record("io", None, 0.0, 1.0, store="kv", key="k", size=3)
        attributes = span.attributes
        assert list(attributes.items()) == [("store", "kv"), ("key", "k"),
                                            ("size", 3)]
        assert span.attributes is attributes
        attributes["extra"] = 1
        span.set_attribute("key", "k2")
        assert span.attributes is attributes
        assert list(span.attributes.items()) == [
            ("store", "kv"), ("key", "k2"), ("size", 3), ("extra", 1)]

    def test_set_attribute_before_any_read_persists(self):
        tracer = Tracer(Simulation(seed=1))
        opened = tracer.start_span("open", tenant="t0")
        bare = tracer.start_span("bare")
        opened.set_attribute("attempt", 2)
        bare.set_attribute("attempt", 0)
        assert opened.attributes == {"tenant": "t0", "attempt": 2}
        assert bare.attributes == {"attempt": 0}

    def test_one_key_set_shares_one_key_tuple(self):
        tracer = Tracer(Simulation(seed=1))
        root = tracer.start_span("root")
        first = tracer.record("kv", root, 0.0, 1.0, store="kv", key="a")
        second = tracer.record("kv", root, 1.0, 2.0, store="kv", key="b")
        opened = tracer.start_span("kv", parent=root, store="kv", key="c")
        swapped = tracer.record("kv", root, 2.0, 3.0, key="d", store="kv")
        assert first._keys is second._keys is opened._keys
        assert swapped._keys == ("key", "store")
        # No attributes: nothing packed and nothing interned.
        assert root._keys == root._values == ()
        assert () not in tracer._key_sets
        # The table belongs to the tracer: another tracer packs its own.
        other = Tracer(Simulation(seed=1)).record("kv", None, 0.0, 1.0,
                                                  store="kv", key="a")
        assert other._keys == first._keys and other._keys is not first._keys
        assert [second.attributes, swapped.attributes] == [
            {"store": "kv", "key": "b"}, {"key": "d", "store": "kv"}]
