"""Reference autoscaling policies — the survey's cold-start mitigations.

Each policy is a pure function of the :class:`~taureau.control.SignalView`
it is handed plus its own (deterministic) internal state; all writes go
through the :class:`~taureau.control.Actuator`.  A shared rule, tested
explicitly: **no policy scales a function up while its circuit breaker
is open or half-open** — capacity added behind an open breaker is
capacity the breaker exists to shed, and the two control loops would
fight (the breaker sheds load, the autoscaler reads the drop as
headroom, adds capacity, repeat).

Each policy iterates :meth:`~taureau.control.SignalView.active` plus the
functions its carried state still moves, never every registered
function: a function it skips is one on which it would take no action
and whose state it would not change.
"""

from __future__ import annotations

import math
import typing

__all__ = [
    "Policy",
    "ReactiveConcurrency",
    "PredictivePrewarm",
    "HybridKeepAlive",
]


class Policy:
    """Base class: one :meth:`tick` per control interval.

    Subclasses set :attr:`name` (used in action-log attribution and
    PolicyLab rows) and implement ``tick(signals, actuator)``.
    """

    name = "policy"

    def tick(self, signals, actuator) -> None:
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class ReactiveConcurrency(Policy):
    """Scale on queue depth and burn-rate alerts (reactive autoscaling).

    When a function's parked queue crosses ``high_queue`` — or any SLO
    burn-rate alert fired this tick while the function has queued work —
    the policy raises its concurrency cap by ``step`` (when one is in
    force) and pre-warms sandboxes to cover the queued backlog.  After
    ``cooldown_ticks`` consecutive calm ticks it clears the override,
    returning the function to its deploy-time ``reserved_concurrency``.
    """

    name = "reactive"

    def __init__(self, *, high_queue: int = 4, low_queue: int = 0,
                 step: int = 4, max_limit: int = 512,
                 cooldown_ticks: int = 3, prewarm_cap: int = 8):
        if high_queue < 1 or step < 1:
            raise ValueError("high_queue and step must be at least 1")
        self.high_queue = high_queue
        self.low_queue = low_queue
        self.step = step
        self.max_limit = max_limit
        self.cooldown_ticks = cooldown_ticks
        self.prewarm_cap = prewarm_cap
        self._raised: typing.Dict[str, bool] = {}
        self._calm: typing.Dict[str, int] = {}

    def tick(self, signals, actuator) -> None:
        alert_firing = signals.alerting()
        # An inactive function has an empty queue, so only a raised one
        # (whose calm count advances) can need anything.
        for name in signals.active(also=self._raised):
            if signals.breaker_open(name):
                # Never add capacity behind an open breaker.
                continue
            queue = signals.queue_depth(name)
            if queue >= self.high_queue or (alert_firing and queue > 0):
                self._calm[name] = 0
                limit = signals.concurrency_limit(name)
                if limit is not None and limit < self.max_limit:
                    actuator.set_concurrency_limit(
                        name, min(self.max_limit, limit + self.step)
                    )
                    self._raised[name] = True
                deficit = queue - signals.warm_pool(name)
                if deficit > 0:
                    actuator.prewarm(name, min(deficit, self.prewarm_cap))
            elif self._raised.get(name):
                calm = self._calm.get(name, 0) + 1
                self._calm[name] = calm
                if calm >= self.cooldown_ticks and queue <= self.low_queue:
                    actuator.set_concurrency_limit(name, None)
                    del self._raised[name]
                    self._calm[name] = 0


class PredictivePrewarm(Policy):
    """Forecast next-interval demand and pre-warm before it arrives.

    A one-step linear forecast on each function's arrival rate: when the
    rate is rising (a diurnal ramp), project one control interval ahead,
    convert the projected rate into expected concurrency via the
    function's observed mean latency (Little's law), and pre-warm the
    gap between that and the capacity already warm/provisioned/running.
    Flat or falling rates pre-warm nothing, so steady state costs zero.
    """

    name = "predictive"

    def __init__(self, *, lead_intervals: float = 1.0,
                 target_coverage: float = 1.0, max_prewarm: int = 16,
                 min_arrivals: int = 4, min_latency_s: float = 0.01):
        if lead_intervals <= 0 or target_coverage <= 0:
            raise ValueError("lead_intervals and target_coverage must be positive")
        self.lead_intervals = lead_intervals
        self.target_coverage = target_coverage
        self.max_prewarm = max_prewarm
        self.min_arrivals = min_arrivals
        self.min_latency_s = min_latency_s
        self._prev_rate: typing.Dict[str, float] = {}
        # Functions whose last recorded rate is non-zero (ordered set).
        self._nonzero: typing.Dict[str, None] = {}

    def tick(self, signals, actuator) -> None:
        # An inactive function had no arrival, so its rate is 0: it cannot
        # be ramping, and only its recorded rate moves (to 0.0).  Every
        # function is active on its first tick, which records its rate.
        stale = self._nonzero
        self._nonzero = {}
        for name in signals.active():
            rate = signals.arrival_rate(name)
            previous = self._prev_rate.get(name)
            self._prev_rate[name] = rate
            stale.pop(name, None)
            if rate:
                self._nonzero[name] = None
            if previous is None or signals.interarrival_count(name) < self.min_arrivals:
                continue  # not enough history to forecast
            slope = rate - previous  # per interval
            if slope <= 0:
                continue  # only ramps warrant standing capacity
            if signals.breaker_open(name):
                continue
            predicted = rate + slope * self.lead_intervals
            service_s = max(signals.latency_mean(name), self.min_latency_s)
            desired = math.ceil(
                predicted * service_s * self.target_coverage
            )
            have = (
                signals.warm_pool(name)
                + signals.provisioned(name)
                + signals.running(name)
            )
            gap = desired - have
            if gap > 0:
                actuator.prewarm(name, min(gap, self.max_prewarm))
        for name in stale:
            self._prev_rate[name] = 0.0


class HybridKeepAlive(Policy):
    """Tune each function's keep-alive to its interarrival distribution.

    The hybrid histogram policy from "Serverless in the Wild" (Shahrad
    et al., ATC'20), as catalogued by the surveys: keep a sandbox warm
    just past the ``quantile``-th percentile of the function's observed
    interarrival gaps (times a ``safety`` factor), clamped to
    ``[min_s, max_s]``.  Bursty-but-frequent functions get short
    windows; sparse functions get windows long enough to bridge their
    typical gap.  In taureau's billing model idle warmth is free to the
    *user* (only execution GB-s and standing provisioned/pre-warm
    charges are billed), so this policy improves cold-start fraction at
    identical user cost — the provider-side memory pressure it adds is
    visible in ``faas.sandbox_memory_mb``.
    """

    name = "hybrid-keepalive"

    def __init__(self, *, quantile: float = 95.0, safety: float = 1.25,
                 min_s: float = 1.0, max_s: float = 900.0,
                 min_samples: int = 8, tolerance: float = 0.1):
        if not 0 < quantile <= 100:
            raise ValueError("quantile must be in (0, 100]")
        if min_s < 0 or max_s < min_s:
            raise ValueError("need 0 <= min_s <= max_s")
        self.quantile = quantile
        self.safety = safety
        self.min_s = min_s
        self.max_s = max_s
        self.min_samples = min_samples
        self.tolerance = tolerance

    def tick(self, signals, actuator) -> None:
        # The target moves only with the interarrival histogram (an
        # arrival) and the keep-alive only with an override; both make
        # the function active.
        for name in signals.active():
            if signals.interarrival_count(name) < self.min_samples:
                continue
            gap = signals.interarrival_percentile(name, self.quantile)
            target = min(self.max_s, max(self.min_s, gap * self.safety))
            # Quantize to avoid churning the override on histogram noise.
            target = round(target, 2)
            current = signals.keep_alive(name)
            if abs(target - current) > self.tolerance * max(current, 1e-9):
                actuator.set_keep_alive(name, target)
