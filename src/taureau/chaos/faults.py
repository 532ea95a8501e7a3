"""The fault plane: seeded, virtual-clock-scheduled failure injection.

Le Taureau treats fault tolerance as a first-class gap in the serverless
landscape: functions die mid-flight, brokers and bookies crash, and
ephemeral state evaporates.  taureau already had the *hooks*
(``FaasPlatform.fail_machine``, ``PulsarCluster.fail_broker``,
``BlockPool.fail_node``) but no way to express a reproducible failure
*scenario*.  This module adds one:

- :class:`FaultPlan` — a declarative, chainable builder of fault specs:
  one-shot crashes at fixed times, Poisson crash processes over a
  window, and component-level error/latency windows (partitions,
  degradations, BaaS brown-outs).
- :class:`ChaosController` — installs a plan on one platform.
  Every random choice (arrival gaps, targets, per-op error sampling)
  draws from dedicated ``sim.rng`` streams, so a given master seed
  replays the identical fault sequence; ``Platform.verify_determinism``
  covers chaos runs with no special casing.

Everything is off by default: a platform without an installed plan pays
one ``None`` check per guarded operation.
"""

from __future__ import annotations

import dataclasses
import typing

from taureau.sim import MetricRegistry, RngRegistry

__all__ = [
    "FaultInjected",
    "CircuitOpenError",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "ChaosController",
]

#: Spec kinds that crash a discrete component at scheduled instants.
_DISCRETE_KINDS = (
    "machine_crash",
    "sandbox_crash",
    "broker_crash",
    "bookie_crash",
    "jiffy_node_loss",
)
#: Spec kinds that open an error / latency window over a component.
_WINDOW_KINDS = ("baas_error", "baas_latency", "partition", "degrade")


class FaultInjected(Exception):
    """An operation failed because the fault plane said so.

    ``kind`` names the fault spec that fired, ``component`` the guarded
    surface (``"baas.kv"``, ``"jiffy"``, ``"faas"`` ...).  ``transient``
    distinguishes retryable faults (windows end, nodes recover) from
    permanent ones.
    """

    def __init__(self, message: str, kind: str = "fault",
                 component: str = "unknown", transient: bool = True):
        super().__init__(message)
        self.kind = kind
        self.component = component
        self.transient = transient


class CircuitOpenError(Exception):
    """An invocation was short-circuited by an open circuit breaker."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One declarative fault source inside a :class:`FaultPlan`.

    Discrete kinds fire at ``at_s`` (one-shot) or as a Poisson process
    of ``rate_hz`` over ``[start_s, end_s)``; window kinds hold an
    ``error_rate`` / ``extra_latency_s`` over ``[start_s, end_s)`` for
    one ``component``.
    """

    kind: str
    at_s: typing.Optional[float] = None
    rate_hz: typing.Optional[float] = None
    start_s: float = 0.0
    end_s: typing.Optional[float] = None
    component: typing.Optional[str] = None
    error_rate: float = 1.0
    extra_latency_s: float = 0.0
    recover_after_s: typing.Optional[float] = None


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One fault that actually happened (or was skipped for lack of a target)."""

    time: float
    kind: str
    target: str
    detail: str = ""


class FaultPlan:
    """A chainable, reusable description of a failure scenario.

    A plan holds only frozen :class:`FaultSpec`\\ s — no simulation
    state — so the same plan object can be installed on any number of
    (sibling) platforms, which is exactly what
    ``Platform.verify_determinism`` does.

    >>> plan = (FaultPlan()
    ...         .crash_sandbox(rate_hz=0.5, start_s=0.0, end_s=20.0)
    ...         .crash_broker(at_s=5.0, recover_after_s=3.0)
    ...         .baas_errors(start_s=2.0, end_s=4.0, error_rate=0.5))
    """

    def __init__(self, specs: typing.Iterable[FaultSpec] = ()):
        self.specs: typing.List[FaultSpec] = list(specs)

    # -- discrete crashes --------------------------------------------------

    def crash_machine(self, at_s=None, rate_hz=None, start_s=0.0,
                      end_s=None) -> "FaultPlan":
        """Crash a random live provider machine (warm pools die with it)."""
        return self._discrete("machine_crash", at_s, rate_hz, start_s, end_s)

    def crash_sandbox(self, at_s=None, rate_hz=None, start_s=0.0,
                      end_s=None) -> "FaultPlan":
        """Crash a random *executing* sandbox mid-flight.

        Unlike a machine crash (transparent re-execution), a sandbox
        crash surfaces as an ERROR attempt and consumes the function's
        retry budget — the failure mode resilience policies exist for.
        """
        return self._discrete("sandbox_crash", at_s, rate_hz, start_s, end_s)

    def crash_broker(self, at_s=None, rate_hz=None, start_s=0.0, end_s=None,
                     recover_after_s=None) -> "FaultPlan":
        """Crash a random live broker; topics fail over to survivors."""
        return self._discrete("broker_crash", at_s, rate_hz, start_s, end_s,
                              recover_after_s=recover_after_s)

    def crash_bookie(self, at_s=None, rate_hz=None, start_s=0.0, end_s=None,
                     recover_after_s=None) -> "FaultPlan":
        """Crash a random live bookie (storage quorum shrinks until recovery)."""
        return self._discrete("bookie_crash", at_s, rate_hz, start_s, end_s,
                              recover_after_s=recover_after_s)

    def lose_jiffy_node(self, at_s=None, rate_hz=None, start_s=0.0,
                        end_s=None) -> "FaultPlan":
        """Lose a random Jiffy memory node; its blocks (and data) evaporate."""
        return self._discrete("jiffy_node_loss", at_s, rate_hz, start_s, end_s)

    # -- windows -----------------------------------------------------------

    def baas_errors(self, start_s: float, end_s: float, error_rate: float = 1.0,
                    component: str = "baas.kv") -> "FaultPlan":
        """BaaS brown-out: each op fails with ``error_rate`` in the window."""
        return self._window("baas_error", component, start_s, end_s,
                            error_rate=error_rate)

    def baas_latency(self, start_s: float, end_s: float, extra_latency_s: float,
                     component: str = "baas.kv") -> "FaultPlan":
        """BaaS latency spike: each op in the window pays extra seconds."""
        return self._window("baas_latency", component, start_s, end_s,
                            error_rate=0.0, extra_latency_s=extra_latency_s)

    def partition(self, component: str, start_s: float,
                  end_s: float) -> "FaultPlan":
        """Full network partition: every op on ``component`` fails."""
        return self._window("partition", component, start_s, end_s,
                            error_rate=1.0)

    def degrade(self, component: str, start_s: float, end_s: float,
                extra_latency_s: float) -> "FaultPlan":
        """Network degradation: ops succeed but pay ``extra_latency_s``."""
        return self._window("degrade", component, start_s, end_s,
                            error_rate=0.0, extra_latency_s=extra_latency_s)

    # -- internals ---------------------------------------------------------

    def _discrete(self, kind, at_s, rate_hz, start_s, end_s,
                  recover_after_s=None) -> "FaultPlan":
        if (at_s is None) == (rate_hz is None):
            raise ValueError(f"{kind}: give exactly one of at_s or rate_hz")
        if rate_hz is not None:
            if rate_hz <= 0:
                raise ValueError(f"{kind}: rate_hz must be positive")
            if end_s is None:
                raise ValueError(f"{kind}: a rate-driven spec needs end_s")
            if end_s <= start_s:
                raise ValueError(f"{kind}: end_s must exceed start_s")
        self.specs.append(FaultSpec(
            kind=kind, at_s=at_s, rate_hz=rate_hz, start_s=start_s,
            end_s=end_s, recover_after_s=recover_after_s,
        ))
        return self

    def _window(self, kind, component, start_s, end_s, error_rate=1.0,
                extra_latency_s=0.0) -> "FaultPlan":
        if end_s <= start_s:
            raise ValueError(f"{kind}: end_s must exceed start_s")
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"{kind}: error_rate must be within [0, 1]")
        if extra_latency_s < 0:
            raise ValueError(f"{kind}: extra_latency_s cannot be negative")
        self.specs.append(FaultSpec(
            kind=kind, component=component, start_s=start_s, end_s=end_s,
            error_rate=error_rate, extra_latency_s=extra_latency_s,
        ))
        return self


@dataclasses.dataclass(frozen=True)
class _Window:
    """A compiled error/latency window over one component."""

    kind: str
    component: str
    start_s: float
    end_s: float
    error_rate: float
    extra_latency_s: float

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


def _firings(spec: FaultSpec, index: int, rng: RngRegistry) -> typing.Iterator[float]:
    """A discrete spec's instants; a rate spec draws each from its stream
    as it is asked for, over ``[start_s, end_s)``."""
    if spec.at_s is not None:
        yield spec.at_s
        return
    stream = rng.stream(f"chaos.schedule.{index}.{spec.kind}")
    when = spec.start_s
    while True:
        when += stream.expovariate(spec.rate_hz)
        if when >= spec.end_s:
            return
        yield when


class ChaosController:
    """A :class:`FaultPlan` installed on one platform.

    Each discrete spec keeps one queued firing.  When it runs, the next
    instant is drawn from the spec's own stream
    (``chaos.schedule.<index>.<kind>``) in the order an up-front draw
    would take, so cost follows the firings, not the declared window;
    a plan installed late fires its overdue instants at once, in order.
    Targets are chosen among *live* components at fire time (from
    ``chaos.targets``), so a schedule survives topology changes.
    """

    def __init__(self, platform, plan: FaultPlan):
        self.platform = platform
        self.sim = platform.sim
        self.plan = plan
        self.metrics = MetricRegistry(namespace="chaos")
        #: Faults that actually happened, in firing order.
        self.events: typing.List[FaultEvent] = []
        #: Active and future error/latency windows.
        self.windows: typing.List[_Window] = []
        self._target_rng = self.sim.rng.stream("chaos.targets")
        self._gate_rng = self.sim.rng.stream("chaos.gate")
        #: The ``retries_by`` family, bound by the first guard call that
        #: finds a window, where a by-name lookup per call created it.
        self._retries_by = None
        self._compile()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _compile(self) -> None:
        for index, spec in enumerate(self.plan.specs):
            if spec.kind in _WINDOW_KINDS:
                window = _Window(
                    kind=spec.kind, component=spec.component,
                    start_s=spec.start_s, end_s=spec.end_s,
                    error_rate=spec.error_rate,
                    extra_latency_s=spec.extra_latency_s,
                )
                self.windows.append(window)
                self.sim.schedule_at(
                    max(spec.start_s, self.sim.now), self._open_window, window
                )
            elif spec.kind in _DISCRETE_KINDS:
                self._queue_next(spec, _firings(spec, index, self.sim.rng))
            else:
                raise ValueError(f"unknown fault kind {spec.kind!r}")

    def fault_schedule(self) -> typing.List[tuple]:
        """The plan's ``(time, kind, component, spec_index)`` schedule.

        Replayed from a fresh registry seeded like the live one, so it is
        fixed at install and draws no live firing; the determinism
        property tests digest it.
        """
        fresh = RngRegistry(self.sim.rng.master_seed)
        schedule = []
        for index, spec in enumerate(self.plan.specs):
            if spec.kind in _WINDOW_KINDS:
                schedule.append((spec.start_s, spec.kind, spec.component, index))
            else:
                schedule += [(when, spec.kind, "", index)
                             for when in _firings(spec, index, fresh)]
        return sorted(schedule)

    # ------------------------------------------------------------------
    # Discrete fault firing
    # ------------------------------------------------------------------

    def _queue_next(self, spec: FaultSpec, firings: typing.Iterator[float]) -> None:
        """Queue the spec's next firing; overdue ones all fire now, in order."""
        now = self.sim.now
        for when in firings:
            if when > now:
                self.sim.schedule_at(when, self._fire, spec, firings)
                return
            self.sim.schedule_at(now, self._fire, spec, None)

    def _fire(self, spec: FaultSpec, firings) -> None:
        if firings is not None:
            self._queue_next(spec, firings)
        target, detail = self._inject(spec)
        if target is None:
            self._note(spec.kind, "(no target)", detail or "skipped", count=False)
            return
        self._note(spec.kind, target, detail)

    def _note(self, kind: str, target: str, detail: str = "",
              count: bool = True) -> None:
        event = FaultEvent(time=self.sim.now, kind=kind, target=target,
                           detail=detail)
        self.events.append(event)
        if count:
            self.metrics.labeled_counter("faults_injected_by", ("kind",)).add(
                kind=kind
            )
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(
                f"chaos.fault.{kind}", parent=None,
                start=self.sim.now, end=self.sim.now,
                status="ok" if count else "skipped",
                target=target, detail=detail or None,
            )

    def _inject(self, spec: FaultSpec):
        kind = spec.kind
        if kind == "machine_crash":
            return self._crash_machine()
        if kind == "sandbox_crash":
            return self._crash_sandbox()
        if kind == "broker_crash":
            return self._crash_broker(spec)
        if kind == "bookie_crash":
            return self._crash_bookie(spec)
        return self._lose_jiffy_node()

    def _pick(self, candidates: list):
        if not candidates:
            return None
        return candidates[self._target_rng.randrange(len(candidates))]

    def _crash_machine(self):
        cluster = getattr(self.platform, "cluster", None)
        machine = self._pick(list(cluster.machines) if cluster else [])
        if machine is None:
            return None, "no live machine"
        interrupted = self.platform.faas.fail_machine(machine)
        return machine.machine_id, f"interrupted {interrupted} executions"

    def _crash_sandbox(self):
        faas = self.platform.faas
        sandbox = self._pick(list(faas._executing.values()))
        if sandbox is None:
            return None, "no executing sandbox"
        faas.fail_sandbox(sandbox)
        return sandbox.sandbox_id, f"function {sandbox.spec.name}"

    def _pulsar_cluster(self):
        return getattr(self.platform.pulsar, "cluster", None)

    def _crash_broker(self, spec: FaultSpec):
        cluster = self._pulsar_cluster()
        if cluster is None:
            return None, "no pulsar cluster attached"
        live = [broker for broker in cluster.brokers if broker.alive]
        if len(live) < 2:
            return None, "would lose the last live broker"
        broker = self._pick(live)
        cluster.fail_broker(broker)
        if spec.recover_after_s is not None:
            self.sim.schedule_after(
                spec.recover_after_s, self._recover_broker, broker
            )
        return broker.broker_id, "topics failed over"

    def _recover_broker(self, broker) -> None:
        cluster = self._pulsar_cluster()
        if cluster is not None:
            cluster.recover_broker(broker)
            self._note("broker_recover", broker.broker_id, count=False)

    def _crash_bookie(self, spec: FaultSpec):
        cluster = self._pulsar_cluster()
        if cluster is None:
            return None, "no pulsar cluster attached"
        bookie = self._pick([b for b in cluster.bookies if b.alive])
        if bookie is None:
            return None, "no live bookie"
        cluster.fail_bookie(bookie)
        if spec.recover_after_s is not None:
            self.sim.schedule_after(
                spec.recover_after_s, self._recover_bookie, bookie
            )
        return bookie.bookie_id, "storage quorum shrunk"

    def _recover_bookie(self, bookie) -> None:
        cluster = self._pulsar_cluster()
        if cluster is not None:
            cluster.recover_bookie(bookie)
            self._note("bookie_recover", bookie.bookie_id, count=False)

    def _lose_jiffy_node(self):
        controller = self.platform._subsystems.get("jiffy")
        pool = getattr(controller, "pool", None)
        if pool is None:
            return None, "no jiffy controller attached"
        node = self._pick([n for n in pool.nodes if n.alive])
        if node is None:
            return None, "no live jiffy node"
        lost_paths = pool.fail_node(node)
        return node.node_id, f"lost data on {len(lost_paths)} paths"

    # ------------------------------------------------------------------
    # Windows (guarded client operations)
    # ------------------------------------------------------------------

    def _open_window(self, window: _Window) -> None:
        self.events.append(FaultEvent(
            time=self.sim.now, kind=window.kind, target=window.component,
            detail=f"window until t={window.end_s}",
        ))
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(
                f"chaos.window.{window.kind}", parent=None,
                start=window.start_s, end=window.end_s,
                component=window.component,
                error_rate=window.error_rate,
                extra_latency_s=window.extra_latency_s,
            )

    def _error_window(self, component: str, now: float):
        for window in self.windows:
            if (window.error_rate > 0.0 and window.component == component
                    and window.active(now)):
                return window
        return None

    def _extra_latency(self, component: str, now: float) -> float:
        return sum(
            window.extra_latency_s
            for window in self.windows
            if (window.extra_latency_s > 0.0 and window.component == component
                and window.active(now))
        )

    def guard(self, component: str, op: str, ctx=None, policy=None) -> None:
        """Apply active windows to one client operation.

        Called at the top of guarded BaaS/Jiffy client methods.  The
        *effective* time of an op inside a handler is the handler start
        time plus what the context has accrued so far — that is when
        the op happens on the simulated timeline, so that is what the
        window is matched against.

        With a :class:`~taureau.chaos.RetryPolicy` the guard retries in
        place, charging each backoff to the context (the loop always
        terminates: windows are finite and backoff advances effective
        time).  Without one, the first matched window raises
        :exc:`FaultInjected`.
        """
        if not self.windows:
            return
        retries = self._retries_by
        if retries is None:
            retries = self._retries_by = self.metrics.labeled_counter(
                "retries_by", ("component", "outcome")
            )
        attempts = 0
        while True:
            now = self.sim.now + (ctx.accrued_s if ctx is not None else 0.0)
            window = self._error_window(component, now)
            faulted = window is not None and (
                window.error_rate >= 1.0
                or self._gate_rng.random() < window.error_rate
            )
            if not faulted:
                extra = self._extra_latency(component, now)
                if extra > 0.0:
                    self._charge(ctx, extra, f"chaos.delay.{component}")
                    self.metrics.counter("injected_delay_s").add(extra)
                if attempts:
                    retries.add(component=component, outcome="recovered")
                return
            self.metrics.labeled_counter("faults_injected_by", ("kind",)).add(
                kind=window.kind
            )
            if policy is None or ctx is None or attempts >= policy.max_attempts:
                if attempts:
                    retries.add(component=component, outcome="exhausted")
                raise FaultInjected(
                    f"{component}.{op}: injected {window.kind} "
                    f"(window {window.start_s}..{window.end_s})",
                    kind=window.kind, component=component,
                )
            backoff = policy.backoff_s(attempts, self._gate_rng)
            self._charge(ctx, backoff, f"chaos.backoff.{component}")
            retries.add(component=component, outcome="retry")
            attempts += 1

    @staticmethod
    def _charge(ctx, seconds: float, label: str) -> None:
        if ctx is None or seconds <= 0:
            return
        ctx.charge_io(seconds, label)
