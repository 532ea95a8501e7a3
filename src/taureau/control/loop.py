"""The control loop: tick on the virtual clock, sense, decide, actuate.

:class:`ControlLoop` ticks through ``Simulation.every``, like the
:class:`~taureau.obs.Monitor`: the kernel ticks it while the simulation
has foreground work (so ``sim.run()`` still terminates) and resumes it
whenever new work is scheduled.  Each tick builds one
:class:`~taureau.control.SignalView` from the platform's metric
registries and hands it, with the shared
:class:`~taureau.control.Actuator`, to every installed policy in
installation order.  Policy order is therefore part of the determinism
contract, exactly like ``Monitor`` listener order.

A tick costs in proportion to what changed since the previous one: the
platform records which functions and pool keys changed, and the loop
refreshes only those rows of its per-function signal table.
"""

from __future__ import annotations

import itertools
import typing

from taureau.control.actuator import Actuator
from taureau.control.signals import SignalView

__all__ = ["ControlLoop"]


class _BreakerStates:
    """``name -> breaker state``, read from the resilience layer when asked.

    Breakers change only inside ``allow``/``record_*`` on the invoke
    path, never while policies tick, so a read during the tick sees the
    state a snapshot at tick start would have held.
    """

    __slots__ = ("_invoker",)

    def __init__(self, invoker):
        self._invoker = invoker

    def get(self, name: str, default: str = "closed") -> str:
        return self._invoker.breaker_state(name)


class ControlLoop:
    """Feeds installed policies signals and an actuator, every tick."""

    def __init__(self, faas, policies: typing.Iterable, *,
                 interval_s: float = 5.0, monitor=None):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if faas._changed is not None:
            raise RuntimeError("a control loop is already attached to this platform")
        faas._changed = {}
        self.faas = faas
        self.sim = faas.sim
        self.interval_s = interval_s
        self.policies = list(policies)
        self.actuator = Actuator(faas)
        self.ticks = 0
        self._loop = None
        # Cumulative counter snapshots for per-tick deltas, keyed by the
        # child metric itself (a family never replaces a child).
        self._prev: typing.Dict[object, float] = {}
        # The per-function signal table, one dict per column, refreshed
        # row by row for the functions that changed.
        self._queue: dict = {}
        self._running: dict = {}
        self._warm_pool: dict = {}
        self._provisioned: dict = {}
        self._keep_alive: dict = {}
        self._conc_limit: dict = {}
        self._interarrival: dict = {}
        self._latency: dict = {}
        # Registered functions in deployment order, and each one's
        # position; registration is append-only and keeps positions.
        self._names: tuple = ()
        self._position: typing.Dict[str, int] = {}
        # Each function's pool key, and each pool key's functions.
        self._pool_of: typing.Dict[str, str] = {}
        self._pool_members: typing.Dict[str, dict] = {}
        # Functions whose row shows parked work (an ordered set).
        self._parked: dict = {}
        # The labeled families the rows read.  Bound (creating any that
        # are missing) on the first tick, not here, so attaching a loop
        # leaves the registry's family order as it was.
        self._families: typing.Optional[tuple] = None
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
    # Scheduling
    # ------------------------------------------------------------------

    def ensure_running(self) -> None:
        """Start the tick loop on the simulation's clock; idempotent."""
        if self._loop is None:
            self._loop = self.sim.every(self.interval_s, self.tick)

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

    def _changed_functions(self) -> list:
        """Functions to refresh this tick, in deployment order.

        Takes the platform's change set, expands each pool key to the
        functions it serves and adds every function registered since
        the previous tick (all of them on the first).
        """
        faas = self.faas
        changed = faas._changed
        faas._changed = {}
        refresh = dict.fromkeys(
            name for name in changed if name in self._position
        )
        members = self._pool_members
        for key in changed:
            if key in members:
                refresh.update(members[key])
        functions = faas._functions
        if len(functions) != len(self._names):
            position = self._position
            for name in itertools.islice(functions, len(self._names), None):
                position[name] = len(position)
                refresh[name] = None
            self._names = tuple(functions)
        return sorted(refresh, key=self._position.__getitem__)

    def _refresh(self, name: str) -> None:
        faas = self.faas
        queue = faas.pending_count(name)
        self._queue[name] = queue
        if queue:
            self._parked[name] = None
        else:
            self._parked.pop(name, None)
        self._running[name] = faas.running_for(name)
        self._warm_pool[name] = faas.warm_pool_size(name)
        self._provisioned[name] = faas.provisioned_count(name)
        self._keep_alive[name] = faas.keep_alive_for(name)
        self._conc_limit[name] = faas.concurrency_limit_for(name)
        __, __, interarrival_by, latency_by = self._families
        child = interarrival_by.get(name)
        if child is not None:
            self._interarrival[name] = child
        child = latency_by.get(name)
        if child is not None:
            self._latency[name] = child
        # Re-registration can move a function to another tenant's pool.
        pool_key = faas._pool_key(faas.spec(name))
        previous = self._pool_of.get(name)
        if pool_key != previous:
            if previous is not None:
                del self._pool_members[previous][name]
            self._pool_members.setdefault(pool_key, {})[name] = None
            self._pool_of[name] = pool_key

    def build_view(self) -> SignalView:
        """Assemble the read-only signal snapshot for this tick.

        Rows refresh eagerly here, before any policy runs, so one
        policy's actuation cannot change what a later policy reads.
        """
        faas = self.faas
        if self._families is None:
            metrics = faas.metrics
            self._families = (
                metrics.labeled_counter("arrivals_by", ("function",)),
                metrics.labeled_counter("starts_by", ("function", "start")),
                metrics.labeled_histogram("interarrival_by", ("function",)),
                metrics.labeled_histogram("e2e_latency_by", ("function",)),
            )
        arrivals_by, starts_by, __, __ = self._families

        refreshed = self._changed_functions()
        # Every other function's counters did not move: its delta is 0.
        arrivals: dict = {}
        cold: dict = {}
        warm: dict = {}
        for name in refreshed:
            self._refresh(name)
            for deltas, child in ((arrivals, arrivals_by.get(name)),
                                  (cold, starts_by.get(name, "cold")),
                                  (warm, starts_by.get(name, "warm"))):
                if child is not None:
                    deltas[name] = self._delta(child)

        active = refreshed
        if self._parked:
            active = sorted(
                set(refreshed).union(self._parked),
                key=self._position.__getitem__,
            )

        invoker = faas._resilience
        breaker = _BreakerStates(invoker) if invoker is not None else {}

        alerts = tuple(self._alert_buffer)
        self._alert_buffer.clear()

        # Each view gets its own copy of the table: views outlive ticks.
        return SignalView(
            now=self.sim.now,
            interval_s=self.interval_s,
            functions=self._names,
            arrivals=arrivals,
            cold=cold,
            warm=warm,
            queue=dict(self._queue),
            running=dict(self._running),
            warm_pool=dict(self._warm_pool),
            provisioned=dict(self._provisioned),
            keep_alive=dict(self._keep_alive),
            conc_limit=dict(self._conc_limit),
            interarrival=dict(self._interarrival),
            latency=dict(self._latency),
            alerts=alerts,
            breaker=breaker,
            active=active,
            positions=self._position,
        )
