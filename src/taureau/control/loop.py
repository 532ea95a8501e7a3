"""The control loop: tick on the virtual clock, sense, decide, actuate.

:class:`ControlLoop` mirrors the :class:`~taureau.obs.Monitor`'s
scheduling discipline — it self-reschedules only while the simulation
has other pending work (so ``sim.run()`` still terminates) and the
facade re-arms it whenever new work is injected.  Each tick builds one
:class:`~taureau.control.SignalView` from the platform's metric
registries and hands it, with the shared
:class:`~taureau.control.Actuator`, to every installed policy in
installation order.  Policy order is therefore part of the determinism
contract, exactly like ``Monitor`` listener order.
"""

from __future__ import annotations

import typing

from taureau.control.actuator import Actuator
from taureau.control.signals import SignalView

__all__ = ["ControlLoop"]


class ControlLoop:
    """Feeds installed policies signals and an actuator, every tick."""

    def __init__(self, faas, policies: typing.Iterable, *,
                 interval_s: float = 5.0, monitor=None):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.faas = faas
        self.sim = faas.sim
        self.interval_s = interval_s
        self.policies = list(policies)
        self.actuator = Actuator(faas)
        self.ticks = 0
        self._scheduled = False
        # Cumulative counter snapshots for per-tick deltas, keyed by the
        # child metric itself (a family never replaces a child).
        self._prev: typing.Dict[object, float] = {}
        # Alerts delivered by Monitor.on_alert since the last tick.
        self._alert_buffer: list = []
        # ``monitor`` may be the monitor itself or a zero-arg callable
        # returning it (the facade passes a callable so a monitor
        # attached *after* with_control still feeds the loop).
        if callable(monitor):
            self._monitor_source = monitor
        else:
            self._monitor_source = lambda: monitor
        self._hooked_monitor = None

    # ------------------------------------------------------------------
    # Scheduling (same discipline as Monitor)
    # ------------------------------------------------------------------

    def ensure_running(self) -> None:
        """(Re)arm the tick loop; idempotent, called by the facade."""
        if not self._scheduled:
            self._scheduled = True
            self.sim.schedule_daemon(self.interval_s, self._tick)

    def _tick(self) -> None:
        self.sim.daemon_fired()
        self._scheduled = False
        self.tick()
        # Foreground work only: a pending Monitor tick must not keep
        # this loop alive (and vice versa), or sim.run() never drains.
        if self.sim.has_foreground_work():
            self.ensure_running()

    # ------------------------------------------------------------------
    # Sense / decide / actuate
    # ------------------------------------------------------------------

    def _collect_alert(self, alert, event) -> None:
        self._alert_buffer.append((alert, event))

    def _hook_monitor(self) -> None:
        monitor = self._monitor_source()
        if monitor is not None and monitor is not self._hooked_monitor:
            monitor.on_alert(self._collect_alert)
            self._hooked_monitor = monitor

    def tick(self) -> None:
        """Run one sense-decide-actuate pass at the current virtual time."""
        self._hook_monitor()
        view = self.build_view()
        for policy in self.policies:
            self.actuator._policy = policy.name
            policy.tick(view, self.actuator)
        self.actuator._policy = "-"
        self.ticks += 1

    def _delta(self, child) -> float:
        value = child.value
        previous = self._prev.get(child, 0.0)
        self._prev[child] = value
        return value - previous

    def build_view(self) -> SignalView:
        """Assemble the read-only signal snapshot for this tick."""
        faas = self.faas
        metrics = faas.metrics
        names = faas.function_names()

        arrivals: dict = {}
        family = metrics.labeled_counter("arrivals_by", ("function",))
        for (function,), child in family.items():
            arrivals[function] = self._delta(child)

        cold: dict = {}
        warm: dict = {}
        starts = metrics.labeled_counter("starts_by", ("function", "start"))
        for (function, kind), child in starts.items():
            bucket = cold if kind == "cold" else warm
            bucket[function] = self._delta(child)

        interarrival: dict = {}
        family = metrics.labeled_histogram("interarrival_by", ("function",))
        for (function,), child in family.items():
            interarrival[function] = child

        latency: dict = {}
        family = metrics.labeled_histogram("e2e_latency_by", ("function",))
        for (function,), child in family.items():
            latency[function] = child

        invoker = faas._resilience
        breaker = {}
        if invoker is not None:
            breaker = {name: invoker.breaker_state(name) for name in names}

        alerts = tuple(self._alert_buffer)
        self._alert_buffer.clear()

        return SignalView(
            now=self.sim.now,
            interval_s=self.interval_s,
            functions=names,
            arrivals=arrivals,
            cold=cold,
            warm=warm,
            queue={name: faas.pending_count(name) for name in names},
            running={name: faas.running_for(name) for name in names},
            warm_pool={name: faas.warm_pool_size(name) for name in names},
            provisioned={name: faas.provisioned_count(name) for name in names},
            keep_alive={name: faas.keep_alive_for(name) for name in names},
            conc_limit={
                name: faas.concurrency_limit_for(name) for name in names
            },
            interarrival=interarrival,
            latency=latency,
            alerts=alerts,
            breaker=breaker,
        )
