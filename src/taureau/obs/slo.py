"""Virtual-time recording rules, SLO objectives and burn-rate alerting.

The serverless survey literature (Li et al., arXiv:2112.12921) calls
SLO-driven monitoring the missing primitive of FaaS stacks: users see
cold starts, throttles and billing surprises but have no platform-level
way to *bound* them.  This module adds that layer to the simulation
itself: a :class:`Monitor` ticks on the virtual clock, evaluates
:class:`RecordingRule`\\ s (rate / ratio / quantile over sliding
windows) and :class:`SloObjective`\\ s (error-budget accounting with
multi-window burn-rate alerts), and fires alert events *inside* the
simulation — deterministically, so two same-seed runs produce
byte-identical alert sequences and downstream policies (autoscaling,
admission control) can consume alerts as ordinary control signals.

Everything is windowed against cumulative snapshots: counters are
sampled per tick into a ring buffer and windows are deltas between ring
entries; histograms use :meth:`~taureau.sim.metrics.Histogram.state`
snapshots and bucket-wise subtraction (mergeable implies subtractable).
No raw samples are retained anywhere.  A snapshot's at-or-below count
for an SLO threshold is computed once and kept with the snapshot, so
evaluating an SLO walks a snapshot's buckets at most once.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing

from taureau.sim.metrics import Histogram, MetricRegistry

__all__ = [
    "RecordingRule",
    "BurnRatePolicy",
    "SloObjective",
    "Alert",
    "AlertEvent",
    "Monitor",
    "MonitorReentrancyError",
]


class MonitorReentrancyError(RuntimeError):
    """An alert callback re-entered :meth:`Monitor.tick`.

    Alert listeners run *inside* an evaluation pass; calling ``tick()``
    from one would re-sample the metric windows mid-evaluation and
    corrupt the window deltas.  Schedule follow-up work on the
    simulation instead (``sim.schedule_after(0, ...)``).
    """


@dataclasses.dataclass(frozen=True)
class RecordingRule:
    """A derived series evaluated every monitor tick.

    ``kind`` selects the expression:

    - ``"rate"`` — per-second increase of counter ``source`` over the
      trailing ``window_s``;
    - ``"ratio"`` — increase of ``source`` divided by increase of
      ``denominator`` over the window (0 when the denominator is flat);
    - ``"quantile"`` — the ``q``-th percentile of histogram ``source``
      restricted to observations inside the window.

    Results land in the monitor's ``results`` registry as a
    :class:`~taureau.sim.metrics.TimeSeries` named ``name``.
    """

    name: str
    kind: str
    source: str
    window_s: float = 60.0
    denominator: typing.Optional[str] = None
    q: float = 99.0

    def __post_init__(self):
        if self.kind not in ("rate", "ratio", "quantile"):
            raise ValueError(f"rule {self.name!r}: unknown kind {self.kind!r}")
        if self.window_s <= 0:
            raise ValueError(f"rule {self.name!r}: window_s must be positive")
        if self.kind == "ratio" and not self.denominator:
            raise ValueError(f"rule {self.name!r}: ratio needs a denominator")


@dataclasses.dataclass(frozen=True)
class BurnRatePolicy:
    """One multi-window burn-rate alert condition (Google SRE workbook).

    The alert fires when the error budget burns at ``factor``x the
    sustainable rate over *both* the short and the long window — the
    short window makes the alert resolve quickly once the problem
    stops, the long window suppresses blips.
    """

    short_window_s: float
    long_window_s: float
    factor: float
    severity: str = "page"

    def __post_init__(self):
        if not 0 < self.short_window_s <= self.long_window_s:
            raise ValueError(
                "need 0 < short_window_s <= long_window_s "
                f"({self.short_window_s}, {self.long_window_s})"
            )
        if self.factor <= 0:
            raise ValueError("burn-rate factor must be positive")


@dataclasses.dataclass
class SloObjective:
    """A service-level objective with error-budget accounting.

    Two source shapes:

    - *event SLO* — ``good`` and ``total`` name counters; the objective
      is the good/total ratio (e.g. non-error invocations);
    - *latency SLO* — ``latency`` names a histogram and ``threshold_s``
      the target; "good" is the bucket-exact count of observations at
      or below the threshold.

    ``objective`` is the target good ratio (0.999 = "three nines");
    ``window_s`` is the budget-accounting window; ``burn_policies``
    (default: a fast 14.4x page over 60s/300s and a slow 6x ticket over
    300s/1800s — timescales chosen for simulated workloads) drive the
    alerts.
    """

    name: str
    objective: float
    window_s: float = 3600.0
    good: typing.Optional[str] = None
    total: typing.Optional[str] = None
    latency: typing.Optional[str] = None
    threshold_s: typing.Optional[float] = None
    burn_policies: typing.Tuple[BurnRatePolicy, ...] = (
        BurnRatePolicy(60.0, 300.0, 14.4, severity="page"),
        BurnRatePolicy(300.0, 1800.0, 6.0, severity="ticket"),
    )

    def __post_init__(self):
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"slo {self.name!r}: objective must be in (0, 1), got "
                f"{self.objective}"
            )
        event_slo = self.good is not None and self.total is not None
        latency_slo = self.latency is not None and self.threshold_s is not None
        if event_slo == latency_slo:
            raise ValueError(
                f"slo {self.name!r}: set either good+total counters or "
                f"latency histogram + threshold_s"
            )

    @property
    def budget(self) -> float:
        """The allowed error ratio (1 - objective)."""
        return 1.0 - self.objective


@dataclasses.dataclass
class Alert:
    """One firing (and possibly resolved) burn-rate alert."""

    name: str
    severity: str
    fired_at: float
    resolved_at: typing.Optional[float] = None

    @property
    def active(self) -> bool:
        return self.resolved_at is None


@dataclasses.dataclass(frozen=True)
class AlertEvent:
    """One entry of the append-only alert log (``fire`` or ``resolve``)."""

    name: str
    kind: str
    time: float
    severity: str


class _HistogramSample(typing.NamedTuple):
    """One windowed :meth:`Histogram.state` and its at-or-below counts."""

    state: tuple
    #: ``threshold -> samples at or below it``, filled on first query.
    below: dict


class _Window:
    """A ring of cumulative ``(time, value)`` samples for delta queries."""

    def __init__(self, horizon_s: float):
        self.horizon_s = horizon_s
        self._times: list = []
        self._values: list = []

    def push(self, time: float, value) -> None:
        self._times.append(time)
        self._values.append(value)
        # Keep one sample at or before the horizon so windows that start
        # between samples still have a baseline.
        cutoff = time - self.horizon_s
        drop = 0
        while drop + 1 < len(self._times) and self._times[drop + 1] <= cutoff:
            drop += 1
        if drop:
            del self._times[:drop]
            del self._values[:drop]

    def at_or_before(self, time: float):
        """The latest sample at or before ``time`` (step semantics)."""
        # Samples are pushed at the monitor's nondecreasing clock.
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            return None
        return self._times[index], self._values[index]


class _AlertState:
    """Hysteresis for one (slo, policy) pair."""

    def __init__(self, slo: SloObjective, policy: BurnRatePolicy):
        self.slo = slo
        self.policy = policy
        self.name = (
            f"{slo.name}:burn{policy.factor:g}x"
            f"[{policy.short_window_s:g}s/{policy.long_window_s:g}s]"
        )
        self.current: typing.Optional[Alert] = None


class Monitor:
    """The virtual-time rule engine: ticks, evaluates, fires alerts.

    Parameters
    ----------
    sim:
        The shared simulation; ticks ride on its event heap.
    registries:
        Either an iterable of :class:`MetricRegistry` or a zero-argument
        callable returning one — the callable form lets subsystems
        attached *after* the monitor show up (the facade uses it).
    interval_s:
        Evaluation period in simulated seconds.

    :meth:`ensure_running` registers :meth:`tick` with
    :meth:`Simulation.every <taureau.sim.Simulation.every>`: it ticks
    while the simulation has foreground work, so ``sim.run()`` still
    terminates, and resumes whenever new work is scheduled.
    """

    def __init__(
        self,
        sim,
        registries: typing.Union[
            typing.Iterable[MetricRegistry],
            typing.Callable[[], typing.Iterable[MetricRegistry]],
        ],
        interval_s: float = 1.0,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.sim = sim
        self.interval_s = interval_s
        if callable(registries):
            self._registries = registries
        else:
            frozen = list(registries)
            self._registries = lambda: frozen
        #: Recording-rule outputs, one TimeSeries per rule name.
        self.results = MetricRegistry(namespace="monitor")
        self.rules: typing.List[RecordingRule] = []
        self.slos: typing.List[SloObjective] = []
        #: Every alert ever fired, in fire order.
        self.alerts: typing.List[Alert] = []
        #: Append-only fire/resolve log (the determinism contract's unit).
        self.events: typing.List[AlertEvent] = []
        #: Callbacks invoked as ``callback(alert, event)`` on fire/resolve —
        #: the hook autoscalers and admission controllers attach to.
        self.listeners: typing.List[typing.Callable] = []
        self.ticks = 0
        self._windows: typing.Dict[str, _Window] = {}
        self._alert_states: typing.List[_AlertState] = []
        self._loop = None
        self._in_tick = False

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def add_rule(self, rule: RecordingRule) -> RecordingRule:
        if any(existing.name == rule.name for existing in self.rules):
            raise ValueError(f"recording rule {rule.name!r} already exists")
        self.rules.append(rule)
        horizon = rule.window_s
        self._reserve_window(rule.source, horizon)
        if rule.denominator:
            self._reserve_window(rule.denominator, horizon)
        return rule

    def add_slo(self, slo: SloObjective) -> SloObjective:
        if any(existing.name == slo.name for existing in self.slos):
            raise ValueError(f"slo {slo.name!r} already exists")
        self.slos.append(slo)
        horizon = max(
            [slo.window_s]
            + [policy.long_window_s for policy in slo.burn_policies]
        )
        for source in (slo.good, slo.total, slo.latency):
            if source:
                self._reserve_window(source, horizon)
        for policy in slo.burn_policies:
            self._alert_states.append(_AlertState(slo, policy))
        return slo

    def on_alert(self, callback: typing.Callable) -> typing.Callable:
        """Register ``callback(alert, event)`` for fire/resolve events.

        Any number of callbacks may be registered; they are dispatched
        in registration order on every fire/resolve (deterministic —
        the order is part of the determinism contract).  Callbacks run
        inside the evaluation pass, so re-entering :meth:`tick` from one
        raises :class:`MonitorReentrancyError`.  Returns ``callback``
        so the method can be used as a decorator.
        """
        self.listeners.append(callback)
        return callback

    def _reserve_window(self, source: str, horizon_s: float) -> None:
        window = self._windows.get(source)
        if window is None:
            self._windows[source] = _Window(horizon_s)
        else:
            window.horizon_s = max(window.horizon_s, horizon_s)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def ensure_running(self) -> None:
        """Start the tick loop on the simulation's clock; idempotent."""
        if self._loop is None:
            self._loop = self.sim.every(self.interval_s, self.tick)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Evaluate everything once at the current virtual time."""
        if self._in_tick:
            raise MonitorReentrancyError(
                "Monitor.tick() re-entered from an alert callback; "
                "schedule follow-up work with sim.schedule_after instead"
            )
        self._in_tick = True
        try:
            now = self.sim.now
            self.ticks += 1
            self._sample_sources(now)
            for rule in self.rules:
                value = self._evaluate_rule(rule, now)
                if value is not None:
                    self.results.series(rule.name).record(now, value)
            for slo in self.slos:
                self._record_slo(slo, now)
            for state in self._alert_states:
                self._evaluate_alert(state, now)
        finally:
            self._in_tick = False

    def _lookup(self, name: str):
        for registry in self._registries():
            metric = registry.find(name)
            if metric is not None:
                return metric
        return None

    def _sample_sources(self, now: float) -> None:
        for source, window in self._windows.items():
            metric = self._lookup(source)
            if metric is None:
                # Lazily created metrics: a missing counter is a zero.
                window.push(now, 0.0)
            elif isinstance(metric, Histogram):
                window.push(now, _HistogramSample(metric.state(), {}))
            elif hasattr(metric, "value"):
                window.push(now, float(metric.value))
            elif getattr(metric, "values", None):
                window.push(now, float(metric.values[-1]))
            else:
                window.push(now, 0.0)

    def _delta(self, source: str, window_s: float, now: float):
        """``(then_value, now_value)`` cumulative pair for a window."""
        window = self._windows[source]
        newest = window.at_or_before(now)
        if newest is None:
            return None
        baseline = window.at_or_before(now - window_s)
        if baseline is None:
            baseline = (window._times[0], window._values[0])
        return baseline[1], newest[1]

    def _counter_increase(
        self, source: str, window_s: float, now: float
    ) -> float:
        pair = self._delta(source, window_s, now)
        if pair is None:
            return 0.0
        then_value, now_value = pair
        return max(0.0, now_value - then_value)

    def _evaluate_rule(
        self, rule: RecordingRule, now: float
    ) -> typing.Optional[float]:
        if rule.kind == "rate":
            return self._counter_increase(rule.source, rule.window_s, now) / (
                rule.window_s
            )
        if rule.kind == "ratio":
            denom = self._counter_increase(rule.denominator, rule.window_s, now)
            if denom <= 0.0:
                return 0.0
            return self._counter_increase(rule.source, rule.window_s, now) / denom
        # quantile
        metric = self._lookup(rule.source)
        if not isinstance(metric, Histogram):
            return None
        pair = self._delta(rule.source, rule.window_s, now)
        if pair is None or not isinstance(pair[0], _HistogramSample):
            return None
        return metric.percentile_since(pair[0].state, rule.q)

    # -- SLO accounting ----------------------------------------------------

    def _good_total(
        self, slo: SloObjective, window_s: float, now: float
    ) -> typing.Tuple[float, float]:
        if slo.latency is not None:
            metric = self._lookup(slo.latency)
            if not isinstance(metric, Histogram):
                return 0.0, 0.0
            pair = self._delta(slo.latency, window_s, now)
            if pair is None or not isinstance(pair[0], _HistogramSample):
                return 0.0, 0.0
            then, __ = pair
            total = metric.count - then.state[0]
            then_below = then.below.get(slo.threshold_s)
            if then_below is None:
                then_below = then.below[slo.threshold_s] = (
                    _count_at_or_below_state(
                        metric, then.state, slo.threshold_s
                    )
                )
            now_below = metric.count_at_or_below(slo.threshold_s)
            return float(now_below - then_below), float(total)
        good = self._counter_increase(slo.good, window_s, now)
        total = self._counter_increase(slo.total, window_s, now)
        return good, total

    def error_ratio(
        self, slo: SloObjective, window_s: float,
        now: typing.Optional[float] = None,
    ) -> float:
        """The bad/total ratio over the trailing window (0 when idle)."""
        good, total = self._good_total(
            slo, window_s, self.sim.now if now is None else now
        )
        if total <= 0.0:
            return 0.0
        return max(0.0, 1.0 - good / total)

    def burn_rate(
        self, slo: SloObjective, window_s: float,
        now: typing.Optional[float] = None,
    ) -> float:
        """Error-budget consumption speed: 1.0 burns exactly the budget."""
        return self.error_ratio(slo, window_s, now) / slo.budget

    def error_budget_remaining(self, slo: SloObjective) -> float:
        """Fraction of the window's error budget still unspent (can go
        negative when the objective is blown)."""
        return 1.0 - self.burn_rate(slo, slo.window_s)

    def _record_slo(self, slo: SloObjective, now: float) -> None:
        self.results.series(f"slo.{slo.name}.error_ratio").record(
            now, self.error_ratio(slo, slo.window_s, now)
        )
        self.results.series(f"slo.{slo.name}.budget_remaining").record(
            now, self.error_budget_remaining(slo)
        )

    def _evaluate_alert(self, state: _AlertState, now: float) -> None:
        policy = state.policy
        short = self.burn_rate(state.slo, policy.short_window_s, now)
        long = self.burn_rate(state.slo, policy.long_window_s, now)
        breaching = short >= policy.factor and long >= policy.factor
        if breaching and state.current is None:
            state.current = Alert(state.name, policy.severity, fired_at=now)
            self.alerts.append(state.current)
            self._emit(state.current, "fire", now)
        elif not breaching and state.current is not None:
            state.current.resolved_at = now
            self._emit(state.current, "resolve", now)
            state.current = None

    def _emit(self, alert: Alert, kind: str, now: float) -> None:
        event = AlertEvent(alert.name, kind, now, alert.severity)
        self.events.append(event)
        for listener in self.listeners:
            listener(alert, event)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def active_alerts(self) -> typing.List[Alert]:
        return [alert for alert in self.alerts if alert.active]

    def rule_values(self) -> dict:
        """Latest value of every recording rule that has produced one."""
        values: dict = {}
        for rule in self.rules:
            series = self.results.series(rule.name)
            if len(series):
                values[rule.name] = series.values[-1]
        return values

    def slo_status(self) -> dict:
        """Per-SLO budget state for dashboards."""
        status: dict = {}
        for slo in self.slos:
            status[slo.name] = {
                "objective": slo.objective,
                "window_s": slo.window_s,
                "error_ratio": self.error_ratio(slo, slo.window_s),
                "budget_remaining": self.error_budget_remaining(slo),
                "active_alerts": sorted(
                    alert.name
                    for alert in self.active_alerts()
                    if alert.name.startswith(f"{slo.name}:")
                ),
            }
        return status


def _count_at_or_below_state(
    histogram: Histogram, state: tuple, threshold: float
) -> int:
    """``count_at_or_below`` evaluated against an earlier snapshot."""
    __, zero, counts = state
    if threshold < 0:
        return 0
    below = zero
    for index, count in counts.items():
        if histogram.bucket_upper(index) <= threshold * (1.0 + 1e-12):
            below += count
    return below
