"""Per-layer boundary timing for the traced run.

Every wrapper here lives in the benchmark and is installed on *instances*
after wiring, around the public methods each layer exposes (plus the one
cross-layer call the resilience layer makes into the platform,
``FaasPlatform._invoke_once``).  Nothing in ``taureau`` is patched at
class level, so the traced run exercises exactly the code the untraced
run does; its ``sim_digest`` must equal the untraced one.

Spans are kept in memory (flat arrays) and written out when the run
ends.  Each span records its name, host start and end, parent span and
the arrival id when the boundary sees one.  A layer's self time is its
spans' durations minus the child spans they cover.

Kernel callbacks scheduled through ``Simulation.schedule_at`` are
wrapped at scheduling time and count toward the layer whose module owns
the callable; event dispatch is unpacked so each event callback counts
toward its own module too.  ``sim.self_s`` is the kernel's own share:
the run phase outside every top-level span, plus the self time of
callbacks the kernel owns.  Callables of modules no layer claims land in
``residual_s``, so the layer self times plus the residual add up to the
traced run phase.
"""

from __future__ import annotations

import array
import collections
import itertools
import json
import pathlib
import time

import numpy

from taureau.sim import Simulation

__all__ = ["LAYER_TABLE", "SpanRecorder", "install", "install_setup_timers",
           "layer_metrics", "layer_report", "write_spans"]

#: Metric key -> (layer, end-to-end metric it should move and where).
LAYER_TABLE = {
    "sim.self_s": ("sim", "arrivals_per_s on faas_warm"),
    "metrics.lookup_s": ("sim.metrics",
                         "arrivals_per_s on faas_warm and full_stack"),
    "core.invoke_s": ("core", "arrivals_per_s on faas_warm; "
                              "sim_latency_p999_s"),
    "core.event_s": ("core", "arrivals_per_s on faas_warm; "
                             "sim_latency_p999_s"),
    "placement.s": ("placement", "arrivals_per_s on cold_evict"),
    "baas.kv.s": ("baas", "arrivals_per_s on full_stack"),
    "obs.tracer_s": ("obs", "arrivals_per_s and peak_rss_mb on full_stack"),
    "obs.monitor_s": ("obs", "arrivals_per_s and peak_rss_mb on full_stack"),
    "obs.recorder_s": ("obs", "arrivals_per_s and peak_rss_mb on full_stack"),
    "chaos.guard_s": ("chaos", "arrivals_per_s and ok_frac on full_stack"),
    "chaos.fire_s": ("chaos", "arrivals_per_s and ok_frac on full_stack"),
    "resilience.s": ("chaos", "arrivals_per_s and ok_frac on full_stack"),
    "durable.s": ("durable", "arrivals_per_s and peak_rss_mb on full_stack"),
    "control.s": ("control", "arrivals_per_s on full_stack"),
    "pulsar.send_s": ("pulsar", "arrivals_per_s on stream_sketch"),
    "pulsar.event_s": ("pulsar", "arrivals_per_s on stream_sketch"),
    "sketch.s": ("sketches", "arrivals_per_s on stream_sketch"),
    "handler.s": ("benchmark", "none (user code must not move)"),
    "residual_s": ("residual", "none (callables no layer claims)"),
}

#: Module prefix of a scheduled callable -> the key its time counts to.
#: First match wins, so more specific prefixes come first.
_CALLBACK_KEYS = (
    ("taureau.sim.", "sim.self_s"),
    ("taureau.core.", "core.event_s"),
    ("taureau.cluster.", "placement.s"),
    ("taureau.obs.slo", "obs.monitor_s"),
    ("taureau.obs.record", "obs.recorder_s"),
    ("taureau.obs.", "obs.tracer_s"),
    ("taureau.chaos.resilience", "resilience.s"),
    ("taureau.chaos.policies", "resilience.s"),
    ("taureau.chaos.", "chaos.fire_s"),
    ("taureau.durable.", "durable.s"),
    ("taureau.control.", "control.s"),
    ("taureau.pulsar.", "pulsar.event_s"),
    ("taureau.sketches.", "sketch.s"),
    ("taureau.baas.", "baas.kv.s"),
)

_REGISTRY_LOOKUPS = (
    "counter", "gauge", "distribution", "histogram", "series",
    "labeled_counter", "labeled_gauge", "labeled_histogram", "find",
)
_KV_METHODS = ("get", "get_item", "put", "put_if_version", "delete",
               "counter_add")
_DURABLE_METHODS = ("open_entry", "message_entry", "binding", "finalize",
                    "apply", "should_recover", "recovery_delay",
                    "billable_slices")


def _payload_index(position: int):
    """Arrival id of a call whose ``position``-th argument is a payload
    tuple starting with the arrival index."""

    def arrival(args):
        payload = args[position] if len(args) > position else None
        return payload[0] if isinstance(payload, tuple) else -1

    return arrival


class SpanRecorder:
    """In-memory span log plus per-key self time, calls and tallies."""

    def __init__(self, bench_modules=()):
        self.clock = time.perf_counter
        self.bench_modules = frozenset(bench_modules)
        self.active = False
        self.key_names: list = []
        self._key_ids: dict = {}
        self._module_keys: dict = {}
        self._ids = itertools.count()
        self.span_ids = array.array("q")
        self.name_ids = array.array("H")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.arrivals = array.array("q")
        #: Open spans: [span id, key, child seconds].
        self.stack: list = []
        self.self_s: dict = collections.defaultdict(float)
        self.calls: collections.Counter = collections.Counter()
        self.tallies: collections.Counter = collections.Counter()
        self.top_s = 0.0
        self.top_calls = 0

    def _key_id(self, key: str) -> int:
        key_id = self._key_ids.get(key)
        if key_id is None:
            key_id = self._key_ids[key] = len(self.key_names)
            self.key_names.append(key)
        return key_id

    def wrap(self, key: str, fn, arrival=None, tally=None):
        """``fn`` timed as a span under ``key`` while :attr:`active`.

        ``arrival(args)`` names the arrival the call serves;
        ``tally(args, result)`` adds a count to ``tallies[key]``.
        """
        key_id = self._key_id(key)
        clock = self.clock
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        ids = self._ids
        span_ids, name_ids = self.span_ids, self.name_ids
        starts, ends = self.starts, self.ends
        parents, arrivals = self.parents, self.arrivals

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [next(ids), key, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[key] += duration - frame[2]
                if parent is None:
                    self.top_s += duration
                    self.top_calls += 1
                    calls[key] += 1
                else:
                    parent[2] += duration
                    if parent[1] != key:
                        calls[key] += 1
                if tally is not None:
                    self.tallies[key] += tally(args, result)
                span_ids.append(frame[0])
                name_ids.append(key_id)
                starts.append(start)
                ends.append(end)
                parents.append(parent[0] if parent is not None else -1)
                arrivals.append(arrival(args) if arrival is not None else -1)

        return wrapper

    # ------------------------------------------------------------------
    # Kernel callbacks
    # ------------------------------------------------------------------

    def _module_key(self, module) -> str:
        key = self._module_keys.get(module)
        if key is None:
            key = "residual_s"
            if module in self.bench_modules:
                key = "handler.s"
            else:
                for prefix, candidate in _CALLBACK_KEYS:
                    if module and module.startswith(prefix):
                        key = candidate
                        break
            self._module_keys[module] = key
        return key

    def callback(self, callback):
        """``callback`` wrapped under the key of the module that owns it."""
        module = getattr(callback, "__module__", None)
        if module is None:  # functools.partial and friends
            module = getattr(getattr(callback, "func", None), "__module__", None)
        return self.wrap(self._module_key(module), callback)

    def install_kernel(self, sim) -> None:
        """Wrap every callable scheduled on ``sim`` from now on."""
        schedule_at = sim.schedule_at
        process_event = sim._process_event
        dispatch = self.wrap("sim.self_s", self._dispatcher(process_event))

        def traced_schedule_at(when, callback, *args):
            if getattr(callback, "__func__", None) is Simulation._process_event:
                return schedule_at(when, dispatch, *args)
            return schedule_at(when, self.callback(callback), *args)

        sim.schedule_at = traced_schedule_at

    def _dispatcher(self, process_event):
        """Event dispatch with each event callback wrapped by its module."""

        def dispatch(event):
            callbacks = event.callbacks
            if callbacks and self.active:
                event.callbacks = [self.callback(cb) for cb in callbacks]
            process_event(event)

        return dispatch


def _wrap_attr(recorder, obj, name, key, **kwargs) -> None:
    setattr(obj, name, recorder.wrap(key, getattr(obj, name), **kwargs))


def install(recorder: SpanRecorder, workload) -> None:
    """Install the boundary wrappers on a set-up workload's instances."""
    app = workload.app
    faas = app.faas
    _wrap_attr(recorder, app, "invoke", "core.invoke_s",
               arrival=_payload_index(1))
    # The resilience layer calls back into the platform here; wrapping
    # it keeps the platform's work out of resilience.s.
    _wrap_attr(recorder, faas, "_invoke_once", "core.invoke_s",
               arrival=_payload_index(1))
    for name in ("fail_sandbox", "fail_machine"):
        _wrap_attr(recorder, faas, name, "core.event_s")
    _wrap_attr(recorder, faas.config.scheduler, "place", "placement.s",
               tally=lambda args, result: result is not None)
    for registry in app.registries() + list(workload.extra_registries()):
        for name in _REGISTRY_LOOKUPS:
            _wrap_attr(recorder, registry, name, "metrics.lookup_s")
    if app.tracer is not None:
        for name in ("start_span", "record"):
            _wrap_attr(recorder, app.tracer, name, "obs.tracer_s")
    if app.kv is not None:
        for name in _KV_METHODS:
            _wrap_attr(recorder, app.kv, name, "baas.kv.s")
    if app.chaos is not None:
        _wrap_attr(recorder, app.chaos, "guard", "chaos.guard_s")
    if app.resilience is not None:
        _wrap_attr(recorder, app.resilience, "invoke", "resilience.s",
                   arrival=_payload_index(1))
    if app.durable is not None:
        for name in _DURABLE_METHODS:
            _wrap_attr(recorder, app.durable, name, "durable.s")
    wrapped_handlers: dict = {}
    for name in faas.function_names():
        spec = faas.spec(name)
        handler = spec.handler
        if handler not in wrapped_handlers:
            wrapped_handlers[handler] = recorder.wrap(
                "handler.s", handler, arrival=_payload_index(0))
        spec.handler = wrapped_handlers[handler]
    workload.fire = recorder.wrap("handler.s", workload.fire,
                                  arrival=lambda args: args[0])
    if not workload.faas:
        _wrap_attr(recorder, workload.producer, "send", "pulsar.send_s",
                   arrival=_payload_index(0))
        _wrap_attr(recorder, workload.aggregator, "add_many", "handler.s")
        workload.on_sketch.append(
            lambda sketch: _wrap_attr(
                recorder, sketch, "add_many", "sketch.s",
                tally=lambda args, result: len(args[0])))


def install_setup_timers(recorder: SpanRecorder, app) -> None:
    """Before wiring: time chaos-plan compilation from outside."""
    with_chaos = app.with_chaos

    def timed_with_chaos(plan):
        start = time.perf_counter()
        try:
            return with_chaos(plan)
        finally:
            recorder.tallies["chaos.compile_s"] += time.perf_counter() - start

    app.with_chaos = timed_with_chaos


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

def _find(registry, name: str) -> float:
    """A counter's value (0 when the registry or counter is absent)."""
    metric = registry.find(name) if registry is not None else None
    return float(metric.value) if metric is not None else 0.0


def _snapshot_sum(registries, fragment: str, needle: str) -> float:
    total = 0.0
    for registry in registries:
        for key, value in registry.snapshot().items():
            if fragment in key and needle in key:
                total += float(value)
    return total


def layer_metrics(recorder: SpanRecorder, workload, run_s: float,
                  outcomes) -> dict:
    """Every per-layer metric of one traced replay, as ``name -> value``.

    Times come from the span recorder; counts come from the program's
    own public metrics after the run.
    """
    app = workload.app
    self_s = dict(recorder.self_s)
    self_s["sim.self_s"] = (self_s.get("sim.self_s", 0.0)
                            + run_s - recorder.top_s)
    entries = recorder.top_calls
    faas = app.metrics
    lookups = recorder.calls["metrics.lookup_s"]
    placement_calls = recorder.calls["placement.s"]
    queue_delay = faas.find("queue_delay_s")
    kv = app.kv.metrics if app.kv is not None else None
    chaos = app.chaos
    durable = app.durable.metrics if app.durable is not None else None
    control = app.control
    pulsar = app.pulsar.metrics if app.pulsar is not None else None
    function = getattr(workload, "function", "")
    store = app.tracer.store if app.tracer is not None else None
    evictions = (_find(faas, "sandbox_evictions")
                 - _find(faas, "sandbox_expirations"))
    metrics = {
        "sim.entries": entries,
        "sim.self_s": self_s["sim.self_s"],
        "sim.ns_per_entry": self_s["sim.self_s"] / max(entries, 1) * 1e9,
        "metrics.lookups": lookups,
        "metrics.lookup_s": self_s.get("metrics.lookup_s", 0.0),
        "workload.generate_s": workload.generate_s,
        "workload.arrivals": len(workload.trace),
        "core.invoke_s": self_s.get("core.invoke_s", 0.0),
        "core.event_s": self_s.get("core.event_s", 0.0),
        "core.cold_starts": _find(faas, "cold_starts"),
        "core.evictions": evictions,
        "core.expirations": _find(faas, "sandbox_expirations"),
        "core.retries": _find(faas, "retries"),
        "core.queue_delay_p99_s": (queue_delay.p99 if queue_delay is not None
                                   and len(queue_delay) else 0.0),
        "sim_cold_frac": float(numpy.mean(outcomes.cold)),
        "sim_cost_usd": float(numpy.sum(outcomes.cost_usd)),
        "placement.calls": placement_calls,
        "placement.s": self_s.get("placement.s", 0.0),
        "placement.hit_ratio": (recorder.tallies["placement.s"]
                                / placement_calls if placement_calls else 0.0),
        "baas.kv.reads": _find(kv, "gets"),
        "baas.kv.writes": _find(kv, "puts"),
        "baas.kv.s": self_s.get("baas.kv.s", 0.0),
        "baas.kv.faults": (_snapshot_sum([chaos.metrics], "faults_injected_by",
                                         '"baas_error"') if chaos else 0.0),
        "obs.spans": (sum(len(store.trace(trace_id))
                          for trace_id in store.trace_ids())
                      if store is not None else 0),
        "obs.tracer_s": self_s.get("obs.tracer_s", 0.0),
        "obs.monitor_ticks": app.monitor.ticks if app.monitor else 0,
        "obs.monitor_s": self_s.get("obs.monitor_s", 0.0),
        "obs.recorder_ticks": app.recorder.ticks if app.recorder else 0,
        "obs.recorder_s": self_s.get("obs.recorder_s", 0.0),
        "chaos.compile_s": recorder.tallies["chaos.compile_s"],
        "chaos.faults_compiled": (len(chaos.fault_schedule())
                                  if chaos else 0),
        "chaos.faults_fired": (sum(1 for event in chaos.events
                                   if event.target != "(no target)")
                               if chaos else 0),
        "chaos.guard_calls": recorder.calls["chaos.guard_s"],
        "chaos.guard_s": self_s.get("chaos.guard_s", 0.0),
        "chaos.fire_s": self_s.get("chaos.fire_s", 0.0),
        "resilience.calls": recorder.calls["resilience.s"],
        "resilience.s": self_s.get("resilience.s", 0.0),
        "resilience.retries": (_snapshot_sum(
            [faas, chaos.metrics], "retries_by", 'outcome="retry"')
            if chaos else 0.0),
        "durable.entries": _find(durable, "entries_opened"),
        "durable.effects_journaled": _find(durable, "effects_journaled"),
        "durable.effects_replayed": _find(durable, "effects_replayed"),
        "durable.recoveries": _find(durable, "recoveries"),
        "durable.s": self_s.get("durable.s", 0.0),
        "control.ticks": control.ticks if control else 0,
        "control.actions": len(control.actuator.actions) if control else 0,
        "control.s": self_s.get("control.s", 0.0),
        "pulsar.sends": recorder.calls["pulsar.send_s"],
        "pulsar.send_s": self_s.get("pulsar.send_s", 0.0),
        "pulsar.event_s": self_s.get("pulsar.event_s", 0.0),
        "pulsar.batches": _find(pulsar, f"{function}.batches"),
        "pulsar.redeliveries": (_find(pulsar, f"{function}.process_errors")
                                - _find(pulsar, f"{function}.dead_lettered")),
        "sketch.add_many_calls": recorder.calls["sketch.s"],
        "sketch.items": recorder.tallies["sketch.s"],
        "sketch.s": self_s.get("sketch.s", 0.0),
        "handler.s": self_s.get("handler.s", 0.0),
        "residual_s": self_s.get("residual_s", 0.0),
        "trace.run_s": run_s,
    }
    return {name: float(value) for name, value in metrics.items()}


def layer_report(metrics: dict) -> list:
    """Layers ranked by self time, with their share of the run phase."""
    run_s = metrics["trace.run_s"]
    totals: dict = collections.defaultdict(float)
    keys: dict = collections.defaultdict(list)
    for key, (layer, _moves) in LAYER_TABLE.items():
        totals[layer] += metrics[key]
        keys[layer].append(key)
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return [
        {
            "layer": layer,
            "self_s": seconds,
            "share": seconds / run_s if run_s > 0 else 0.0,
            "metrics": keys[layer],
            "should_move": sorted({LAYER_TABLE[key][1] for key in keys[layer]}),
        }
        for layer, seconds in ranked
    ]


def write_spans(recorder: SpanRecorder, path: pathlib.Path) -> pathlib.Path:
    """The span dump: one compressed ``.npz`` of flat span columns."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = recorder.starts[0] if len(recorder.starts) else 0.0
    with open(path, "wb") as handle:
        numpy.savez_compressed(
            handle,
            span_id=numpy.frombuffer(recorder.span_ids, dtype=numpy.int64),
            name_id=numpy.frombuffer(recorder.name_ids, dtype=numpy.uint16),
            start_s=numpy.frombuffer(recorder.starts) - origin,
            end_s=numpy.frombuffer(recorder.ends) - origin,
            parent=numpy.frombuffer(recorder.parents, dtype=numpy.int64),
            arrival=numpy.frombuffer(recorder.arrivals, dtype=numpy.int64),
            names=numpy.array(json.dumps(recorder.key_names)),
        )
    return path
