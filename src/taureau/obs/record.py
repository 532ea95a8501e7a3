"""The run recorder: one virtual-clock daemon, one versioned artifact.

Le Taureau's thesis is that the serverless landscape only makes sense
*deconstructed* — you have to see where time, money and failures go as a
run unfolds, not just in a terminal aggregate.  Every signal needed for
that already exists in taureau (labeled metrics, SLO burn rates, chaos
fault events, control actions, spans, flamegraph folds); what was
missing is a recorder that samples them *over virtual time* and packages
one run as a portable document.

:class:`RunRecorder` registers as a kernel daemon (the same
``Simulation.daemon_scheduled`` discipline as
:class:`~taureau.obs.Monitor` and :class:`~taureau.control.ControlLoop`,
so an idle recorder never keeps a drained simulation alive) and, every
``interval_s`` simulated seconds, appends one row to a set of columnar
series: queue depth and warm-pool size per function, the cold-start
fraction of the tick, per-topic broker backlog, SLO error-ratio /
budget / burn-rate lanes, and circuit-breaker states.  At any point
:meth:`RunRecorder.artifact` folds the sampled series together with the
event streams (alerts, faults, control actions, breaker transitions),
a bounded set of span trees with their critical paths, the flamegraph
profile, the cost table and the dashboard snapshot into a versioned
:class:`RunArtifact` that round-trips through a single JSON file.

Determinism contract: every sampled value comes off the virtual clock
and the deterministic metric surface, so two same-seed runs produce
byte-identical artifact JSON (and therefore byte-identical HTML reports
— see :mod:`taureau.obs.report`).  The recorder never *creates* metrics
(it only reads via :meth:`~taureau.sim.metrics.MetricRegistry.find`),
so attaching it cannot perturb exporter output.
"""

from __future__ import annotations

import json
import typing

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactVersionError",
    "RunArtifact",
    "RunRecorder",
]

#: Schema version stamped into (and checked out of) every artifact.
ARTIFACT_VERSION = 1

#: Circuit-breaker states as plottable lane values.
_BREAKER_LEVELS = {"closed": 0, "half_open": 1, "open": 2}

#: How many span trees an artifact embeds (store order) — bounded so a
#: million-invocation run stays a megabyte, not a terabyte.
MAX_TRACES = 50
#: Per-function and per-topic series are recorded for at most this many
#: names (deployment / creation order); aggregate lanes always record
#: everything.  Keeps tick cost O(lanes), independent of workload scale.
MAX_FUNCTION_LANES = 16
MAX_TOPIC_LANES = 32


class ArtifactVersionError(ValueError):
    """A loaded artifact was written by an incompatible schema version."""


def _jsonable(value):
    """``value`` coerced to the JSON-safe subset, recursively.

    Tuples become lists and unknown objects their ``str()`` — so an
    artifact compares equal to its own save/load round-trip.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return str(value)


class RunArtifact:
    """A versioned, JSON-serializable record of one simulated run.

    ``data`` is a plain dict (already JSON-normalized); the schema is::

        artifact_version: int
        run_info:  {seed, virtual_time_s, config_digest}
        interval_s: recorder cadence
        samples:   {times: [t...], series: {lane_name: [v...]}}
        events:    {alerts: [...], faults: [...], actions: [...],
                    breakers: [...]}
        traces:    [{trace_id, spans: [...], critical_path: [span ids]}]
        flamegraph: folded-stack lines
        cost:      {by_function: {...}, by_tenant: {...}}
        dashboard: the Platform.dashboard() document
        topology:  {machines, brokers, bookies, jiffy_nodes, services,
                    functions}

    Two artifacts are equal iff their data dicts are equal, which the
    :meth:`save`/:meth:`load` round-trip preserves exactly.
    """

    def __init__(self, data: dict):
        self.data = _jsonable(data)

    @property
    def version(self) -> int:
        return self.data["artifact_version"]

    @property
    def run_info(self) -> dict:
        return self.data["run_info"]

    def __eq__(self, other) -> bool:
        return isinstance(other, RunArtifact) and self.data == other.data

    def __ne__(self, other) -> bool:  # pragma: no cover - symmetry
        return not self.__eq__(other)

    def to_json(self) -> str:
        """The canonical byte-stable encoding (sorted keys, no spaces)."""
        return json.dumps(
            self.data, sort_keys=True, separators=(",", ":")
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunArtifact":
        data = json.loads(text)
        version = data.get("artifact_version") if isinstance(data, dict) else None
        if version != ARTIFACT_VERSION:
            raise ArtifactVersionError(
                f"artifact version {version!r} does not match this "
                f"reader's version {ARTIFACT_VERSION}"
            )
        artifact = cls.__new__(cls)
        artifact.data = data
        return artifact

    def save(self, path) -> None:
        """Write the artifact to ``path`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "RunArtifact":
        """Read an artifact; raises :class:`ArtifactVersionError` on skew."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


class RunRecorder:
    """Samples a platform on the virtual clock into a :class:`RunArtifact`.

    Parameters
    ----------
    platform:
        The :class:`taureau.Platform` to observe (read-only).
    interval_s:
        Sampling cadence in simulated seconds.

    The recorder is pure observation: it reads instantaneous platform
    state and cumulative metric values (via ``find`` — never creating
    metrics), so installing it cannot change simulated behaviour, only
    add daemon entries to the event queue.
    """

    def __init__(self, platform, interval_s: float = 1.0):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.platform = platform
        self.sim = platform.sim
        self.interval_s = interval_s
        self.ticks = 0
        self._scheduled = False
        #: Sample times, one entry per tick.
        self._times: typing.List[float] = []
        #: Columnar series, each list padded to len(_times).
        self._series: typing.Dict[str, typing.List[float]] = {}
        #: Cumulative counter snapshots for per-tick deltas, keyed by
        #: lane or counter name.
        self._prev: typing.Dict[str, float] = {}
        #: Last seen breaker state per function (transition detection).
        self._breaker_prev: typing.Dict[str, str] = {}
        #: Synthesized breaker transition events.
        self._breaker_events: typing.List[dict] = []

    # ------------------------------------------------------------------
    # Scheduling (the Monitor/ControlLoop daemon discipline)
    # ------------------------------------------------------------------

    def ensure_running(self) -> None:
        """(Re)arm the sampling loop; idempotent, called by the facade."""
        if not self._scheduled:
            self._scheduled = True
            self.sim.schedule_daemon(self.interval_s, self._tick)

    def _tick(self) -> None:
        self.sim.daemon_fired()
        self._scheduled = False
        self.tick()
        # Re-arm only while foreground work remains — a recorder must
        # not keep a drained simulation (or a fellow daemon) alive.
        if self.sim.has_foreground_work():
            self.ensure_running()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _record(self, lane: str, value: float) -> None:
        series = self._series.get(lane)
        if series is None:
            # A lane born mid-run backfills zeros for the ticks it missed.
            series = [0.0] * (len(self._times) - 1)
            self._series[lane] = series
        series.append(float(value))

    def _delta(self, key, value: float) -> float:
        previous = self._prev.get(key, 0.0)
        self._prev[key] = value
        return value - previous

    def tick(self) -> None:
        """Append one sample row at the current virtual time."""
        self.ticks += 1
        self._times.append(self.sim.now)
        self._sample_faas()
        self._sample_pulsar()
        self._sample_slo()
        self._sample_breakers()
        self._sample_durable()
        # Lanes that produced no value this tick (e.g. a topic drained
        # away) pad with zero so every series stays time-aligned.
        width = len(self._times)
        for series in self._series.values():
            if len(series) < width:
                series.append(0.0)

    def _lane_functions(self) -> typing.List[str]:
        return self.platform.faas.function_names()[:MAX_FUNCTION_LANES]

    def _sample_faas(self) -> None:
        faas = self.platform.faas
        self._record("faas.queue_depth", faas.pending_count())
        warm_total = 0
        for name in self._lane_functions():
            queue = faas.pending_count(name)
            warm = faas.warm_pool_size(name)
            warm_total += warm
            self._record(f'queue{{function="{name}"}}', queue)
            self._record(f'warm_pool{{function="{name}"}}', warm)
            self._record(f'running{{function="{name}"}}', faas.running_for(name))
        self._record("faas.warm_pool", warm_total)
        cold_starts = faas.metrics.find("cold_starts")
        cold_delta = self._delta(
            "faas.cold_starts",
            cold_starts.value if cold_starts is not None else 0.0,
        )
        start_delta = self._delta("faas.starts", faas.start_count)
        self._record(
            "faas.cold_fraction",
            cold_delta / start_delta if start_delta > 0 else 0.0,
        )

    def _sample_pulsar(self) -> None:
        runtime = self.platform.pulsar
        cluster = getattr(runtime, "cluster", None)
        if cluster is None:
            return
        backlog: typing.Dict[str, int] = {}
        for broker in cluster.brokers:
            if not broker.alive:
                continue
            for topic_name, topic in broker.topics.items():
                backlog[topic_name] = backlog.get(topic_name, 0) + len(
                    topic.backlog
                )
        self._record("pulsar.backlog", sum(backlog.values()))
        for topic_name in list(backlog)[:MAX_TOPIC_LANES]:
            self._record(
                f'backlog{{topic="{topic_name}"}}', backlog[topic_name]
            )

    def _sample_slo(self) -> None:
        monitor = self.platform.monitor
        if monitor is None:
            return
        for slo in monitor.slos:
            ratio = monitor.error_ratio(slo, slo.window_s)
            self._record(f'slo_error_ratio{{slo="{slo.name}"}}', ratio)
            self._record(
                f'slo_budget_remaining{{slo="{slo.name}"}}',
                monitor.error_budget_remaining(slo),
            )
            if slo.burn_policies:
                window = min(p.short_window_s for p in slo.burn_policies)
                burn = monitor.burn_rate(slo, window)
            else:
                burn = ratio / slo.budget
            self._record(f'slo_burn_rate{{slo="{slo.name}"}}', burn)

    def _sample_breakers(self) -> None:
        invoker = self.platform.resilience
        if invoker is None:
            return
        for name in self._lane_functions():
            state = invoker.breaker_state(name)
            self._record(
                f'breaker{{function="{name}"}}', _BREAKER_LEVELS.get(state, 0)
            )
            previous = self._breaker_prev.get(name, "closed")
            if state != previous:
                self._breaker_prev[name] = state
                self._breaker_events.append({
                    "time": self.sim.now,
                    "function": name,
                    "from": previous,
                    "to": state,
                })

    def _sample_durable(self) -> None:
        manager = self.platform.durable
        if manager is None:
            return
        self._record("durable.entries_open", manager.journal.open_count())
        for counter_name in (
            "effects_journaled", "effects_replayed", "recoveries",
        ):
            metric = manager.metrics.find(counter_name)
            value = metric.value if metric is not None else 0.0
            self._record(
                f"durable.{counter_name}",
                self._delta(f"durable.{counter_name}", value),
            )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def overhead(self) -> dict:
        """Deterministic bookkeeping counters (ticks, lanes, points).

        Wall-clock overhead is a *host* property and therefore measured
        outside the simulation — ``benchmarks/bench_report_overhead.py``
        (E41) gates it below 5% on the E39 replay.
        """
        return {
            "ticks": self.ticks,
            "lanes": len(self._series),
            "points": sum(len(series) for series in self._series.values()),
            "breaker_events": len(self._breaker_events),
        }

    def artifact(self) -> RunArtifact:
        """Fold everything sampled (and the final state) into an artifact."""
        platform = self.platform
        data = {
            "artifact_version": ARTIFACT_VERSION,
            "run_info": platform.run_info(),
            "interval_s": self.interval_s,
            "samples": {
                "times": list(self._times),
                "series": {
                    lane: list(series)
                    for lane, series in sorted(self._series.items())
                },
            },
            "events": self._event_streams(),
            "traces": self._trace_trees(),
            "flamegraph": self._flamegraph(),
            "cost": self._cost(),
            "dashboard": platform.dashboard(),
            "topology": self._topology(),
        }
        return RunArtifact(data)

    def _event_streams(self) -> dict:
        platform = self.platform
        alerts = []
        if platform.monitor is not None:
            alerts = [
                {
                    "time": event.time,
                    "name": event.name,
                    "kind": event.kind,
                    "severity": event.severity,
                }
                for event in platform.monitor.events
            ]
        faults = []
        if platform.chaos is not None:
            faults = [
                {
                    "time": event.time,
                    "kind": event.kind,
                    "target": event.target,
                    "detail": event.detail,
                }
                for event in platform.chaos.events
            ]
        actions = []
        if platform.control is not None:
            actions = [
                {
                    "time": action.time,
                    "policy": action.policy,
                    "verb": action.verb,
                    "function": action.function,
                    "value": action.value,
                }
                for action in platform.control.actuator.actions
            ]
        return {
            "alerts": alerts,
            "faults": faults,
            "actions": actions,
            "breakers": list(self._breaker_events),
        }

    def _trace_trees(self) -> list:
        tracer = self.platform.tracer
        if tracer is None:
            return []
        from taureau.obs.analysis import critical_path

        trees = []
        for trace_id in tracer.store.trace_ids()[:MAX_TRACES]:
            trace = tracer.store.trace(trace_id)
            spans = [
                {
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "status": span.status,
                    "attrs": _jsonable(span.attributes),
                }
                for span in trace.spans
            ]
            try:
                path = [entry.span.span_id for entry in critical_path(trace)]
            except ValueError:
                path = []
            trees.append({
                "trace_id": trace_id,
                "spans": spans,
                "critical_path": path,
            })
        return trees

    def _flamegraph(self) -> list:
        if self.platform.tracer is None:
            return []
        return self.platform.profile()

    def _cost(self) -> dict:
        if self.platform.tracer is None:
            return {"by_function": {}, "by_tenant": {}}
        return self.platform.profiler().cost_table()

    def _topology(self) -> dict:
        platform = self.platform
        machines = []
        if platform.cluster is not None:
            machines = [
                machine.machine_id for machine in platform.cluster.machines
            ]
        brokers: list = []
        bookies: list = []
        runtime = platform.pulsar
        cluster = getattr(runtime, "cluster", None)
        if cluster is not None:
            brokers = [
                {"id": broker.broker_id, "alive": broker.alive}
                for broker in cluster.brokers
            ]
            bookies = [
                {"id": bookie.bookie_id, "alive": bookie.alive}
                for bookie in cluster.bookies
            ]
        jiffy_nodes: list = []
        controller = platform._subsystems.get("jiffy")
        pool = getattr(controller, "pool", None)
        if pool is not None:
            jiffy_nodes = [
                {"id": node.node_id, "alive": node.alive}
                for node in pool.nodes
            ]
        return {
            "machines": machines,
            "brokers": brokers,
            "bookies": bookies,
            "jiffy_nodes": jiffy_nodes,
            "services": list(platform.faas.services),
            "functions": platform.faas.function_names(),
        }
