"""The read-only view of platform state a policy sees each tick.

A :class:`SignalView` is built by the :class:`~taureau.control.ControlLoop`
once per tick and shared by every installed policy.  It carries three
kinds of signal:

- **per-tick deltas** of the labeled platform counters
  (``arrivals_by{function}``, ``starts_by{function,start}``) — the rate
  signals reactive and predictive policies key on;
- **cumulative distributions** — each function's interarrival histogram
  and end-to-end latency histogram, for keep-alive tuning and service
  time estimates;
- **instantaneous state** — queue depths, running counts, warm pools,
  provisioned capacity, circuit-breaker state, and the SLO burn-rate
  alerts that fired since the previous tick (collected through
  ``Monitor.on_alert``).

Everything except circuit-breaker state is plain data computed at
view-build time; breaker state is read from the resilience layer when
asked, since breakers never move while policies tick.  Policies cannot
mutate platform state through the view (actuation goes through the
:class:`~taureau.control.Actuator`).

:meth:`SignalView.active` names the functions whose signals may differ
from the previous tick's.  A policy may iterate it, plus whatever its
own carried state needs, instead of :meth:`SignalView.functions`, as
long as it would take no action on, and change no state for, any
function it skips.
"""

from __future__ import annotations

import typing

__all__ = ["SignalView"]


class SignalView:
    """Read-only per-tick signals, keyed by function name."""

    __slots__ = (
        "now",
        "interval_s",
        "_functions",
        "_arrivals",
        "_cold",
        "_warm",
        "_queue",
        "_running",
        "_warm_pool",
        "_provisioned",
        "_keep_alive",
        "_conc_limit",
        "_interarrival",
        "_latency",
        "_alerts",
        "_breaker",
        "_active",
        "_positions",
    )

    def __init__(self, *, now, interval_s, functions, arrivals, cold, warm,
                 queue, running, warm_pool, provisioned, keep_alive,
                 conc_limit, interarrival, latency, alerts, breaker,
                 active=None, positions=None):
        self.now = now
        self.interval_s = interval_s
        self._functions = tuple(functions)
        self._active = self._functions if active is None else tuple(active)
        #: ``name -> deployment position``; derived from ``functions``
        #: on first use when not given.
        self._positions = positions
        self._arrivals = arrivals
        self._cold = cold
        self._warm = warm
        self._queue = queue
        self._running = running
        self._warm_pool = warm_pool
        self._provisioned = provisioned
        self._keep_alive = keep_alive
        self._conc_limit = conc_limit
        self._interarrival = interarrival
        self._latency = latency
        self._alerts = tuple(alerts)
        self._breaker = breaker

    # -- population --------------------------------------------------------

    def functions(self) -> tuple:
        """Registered function names, in deployment order."""
        return self._functions

    def active(self, also: typing.Iterable[str] = ()) -> tuple:
        """The functions whose signals may have changed, in deployment order.

        Those are the functions with any arrival, start, finish, queue,
        pool or override change since the previous tick, those
        registered since then, and those with parked work; every other
        function reads as it did last tick, with zero deltas.  ``also``
        adds names a policy carries state for.  A view built without
        ``active`` treats every function as active.
        """
        if not also:
            return self._active
        names = set(self._active)
        names.update(also)
        if len(names) == len(self._active):
            return self._active
        if self._positions is None:
            self._positions = {
                name: index for index, name in enumerate(self._functions)
            }
        return tuple(sorted(names, key=self._positions.__getitem__))

    # -- rate signals (deltas since the previous tick) ---------------------

    def arrivals(self, name: str) -> float:
        """Invocations of ``name`` that arrived since the last tick."""
        return self._arrivals.get(name, 0.0)

    def arrival_rate(self, name: str) -> float:
        """Arrivals per second over the last tick interval."""
        if self.interval_s <= 0:
            return 0.0
        return self._arrivals.get(name, 0.0) / self.interval_s

    def cold_starts(self, name: str) -> float:
        """Cold starts of ``name`` since the last tick."""
        return self._cold.get(name, 0.0)

    def warm_starts(self, name: str) -> float:
        """Warm starts of ``name`` since the last tick."""
        return self._warm.get(name, 0.0)

    def cold_fraction(self, name: str) -> float:
        """Cold / (cold + warm) starts since the last tick (0 when idle)."""
        cold = self._cold.get(name, 0.0)
        total = cold + self._warm.get(name, 0.0)
        return cold / total if total else 0.0

    # -- instantaneous platform state --------------------------------------

    def queue_depth(self, name: typing.Optional[str] = None) -> int:
        """Parked (queued-on-throttle) attempts, total or per function."""
        if name is None:
            return sum(self._queue.values())
        return self._queue.get(name, 0)

    def running(self, name: str) -> int:
        """Currently executing invocations of ``name``."""
        return self._running.get(name, 0)

    def warm_pool(self, name: str) -> int:
        """Idle sandboxes reusable by ``name``."""
        return self._warm_pool.get(name, 0)

    def provisioned(self, name: str) -> int:
        """Provisioned sandboxes (idle or executing) for ``name``."""
        return self._provisioned.get(name, 0)

    def keep_alive(self, name: str) -> float:
        """The function's effective keep-alive window right now."""
        return self._keep_alive.get(name, 0.0)

    def concurrency_limit(self, name: str) -> typing.Optional[int]:
        """The effective per-function cap (``None`` = unlimited)."""
        return self._conc_limit.get(name)

    # -- distributions (cumulative over the whole run) ---------------------

    def interarrival_count(self, name: str) -> int:
        """Observed interarrival gaps for ``name`` (run cumulative)."""
        hist = self._interarrival.get(name)
        return hist.count if hist is not None else 0

    def interarrival_mean(self, name: str) -> float:
        hist = self._interarrival.get(name)
        return hist.mean if hist is not None and hist.count else 0.0

    def interarrival_percentile(self, name: str, q: float) -> float:
        """The ``q``-th percentile interarrival gap (0 with no samples)."""
        hist = self._interarrival.get(name)
        return hist.percentile(q) if hist is not None and hist.count else 0.0

    def latency_mean(self, name: str) -> float:
        """Mean end-to-end latency of ``name`` so far (service estimate)."""
        hist = self._latency.get(name)
        return hist.mean if hist is not None and hist.count else 0.0

    # -- alerts & resilience -----------------------------------------------

    @property
    def alerts(self) -> tuple:
        """``(alert, event)`` pairs fired/resolved since the last tick."""
        return self._alerts

    def alerting(self, severity: typing.Optional[str] = None) -> bool:
        """True when any alert *fired* since the last tick."""
        return any(
            event.kind == "fire"
            and (severity is None or event.severity == severity)
            for __, event in self._alerts
        )

    def breaker_open(self, name: str) -> bool:
        """True when the function's circuit breaker is not closed.

        Covers ``open`` and ``half_open``: a half-open breaker is still
        probing, and scale-up while it probes would fight the breaker's
        backoff.  Always False when no resilience layer is installed.
        A loop-built view reads the breaker's current state.
        """
        return self._breaker.get(name, "closed") != "closed"
