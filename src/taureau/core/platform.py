"""The FaaS platform simulator.

:class:`FaasPlatform` is taureau's model of an AWS-Lambda-class service
(paper §2.2, §4.1).  It implements the definitional requirements of §2:

- *ease of use* — users register plain Python handlers and call
  :meth:`FaasPlatform.invoke`; sandboxes, placement, retries and billing
  are the provider's problem;
- *demand-driven execution* — sandboxes are created on demand, kept warm
  for a keep-alive window, evicted under memory pressure, and scale to
  zero when idle;
- *cost efficiency* — every invocation is billed per rounded 100 ms of
  GB-seconds, never for idle capacity.

Execution model: handlers are real Python callables executed at the
invocation's simulated start time; they accrue simulated duration through
their :class:`~taureau.core.function.InvocationContext` (see that module).
Side effects on shared simulated stores therefore land at start time while
completion fires after the accrued duration — a deliberate, documented
approximation that keeps handlers plain functions instead of coroutines.

Contention model: executing invocations add their CPU demand to their
host; an invocation starting on a host whose demanded cores exceed
capacity runs slower by ``demand / capacity`` (computed once at start).
This is the mechanism experiment E23 (complementary bin-packing) measures.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import itertools
import math
import typing

from taureau.cluster import Cluster, Machine, ResourceVector
from taureau.core.calibration import DEFAULT_CALIBRATION, Calibration
from taureau.core.function import (
    FunctionSpec,
    InvocationContext,
    InvocationRecord,
    InvocationStatus,
)
from taureau.core.scheduler import FirstFitScheduler, Scheduler
from taureau.sim import Event, MetricRegistry, Simulation

__all__ = ["PlatformConfig", "Sandbox", "FaasPlatform", "PeriodicTrigger",
           "SandboxError", "ThrottledError"]

#: Stale eviction-index entries tolerated beyond the live count before
#: the index compacts, so small pools do not compact on every reuse.
_EVICTABLE_SLACK = 64


class ThrottledError(Exception):
    """The platform refused an invocation (concurrency limit, no queue)."""


class SandboxError(Exception):
    """A sandbox was retired twice."""


@dataclasses.dataclass
class PlatformConfig:
    """Tunable provider policy for a :class:`FaasPlatform`.

    ``keep_alive_s`` of ``None`` uses the calibration default; ``0``
    disables warm reuse entirely (every start is cold) — the knob
    experiment E1 sweeps.

    ``app_sandboxing`` enables SAND-style application-level sandboxing
    (Akkus et al., ATC'18 — one of the paper's §1 platforms): warm
    sandboxes are shared across all functions of the same *tenant*
    rather than per function, so a multi-function application pays far
    fewer cold starts.  A sandbox is only reused by a function whose
    memory requirement it satisfies.
    """

    keep_alive_s: typing.Optional[float] = None
    concurrency_limit: typing.Optional[int] = None
    queue_on_throttle: bool = True
    app_sandboxing: bool = False
    calibration: Calibration = dataclasses.field(default_factory=lambda: DEFAULT_CALIBRATION)
    scheduler: Scheduler = dataclasses.field(default_factory=FirstFitScheduler)

    def effective_keep_alive(self) -> float:
        if self.keep_alive_s is None:
            return self.calibration.keep_alive_s
        return self.keep_alive_s


class Sandbox:
    """A provisioned execution environment for one function."""

    def __init__(
        self,
        spec: FunctionSpec,
        machine: typing.Optional[Machine],
        allocation,
        created_at: float,
        sandbox_id: str,
    ):
        self.sandbox_id = sandbox_id
        self.spec = spec
        self.machine = machine
        self.allocation = allocation
        self.created_at = created_at
        #: End of the keep-alive window while idle and expiring.
        self.idle_until: typing.Optional[float] = None
        #: The one queued keep-alive check, as ``(when, handle)``.
        self.expiry: typing.Optional[tuple] = None
        self.executions = 0
        #: Provisioned sandboxes never expire and are never evicted.
        self.provisioned = False
        #: Pre-warmed sandboxes accrue a standing charge until first
        #: reuse or expiry (see :meth:`FaasPlatform.prewarm`).
        self.prewarmed = False
        #: Set when the sandbox is retired; a dead sandbox never runs.
        self.dead = False
        #: The attempt executing here (``None`` while idle or starting).
        self.attempt: typing.Optional["_Attempt"] = None
        #: Return sequence of the sandbox's live entry in the platform's
        #: eviction index (``None`` when it has none).
        self.idle_seq: typing.Optional[int] = None

    @property
    def machine_id(self) -> str:
        return self.machine.machine_id if self.machine else "elastic"


class PeriodicTrigger:
    """A recurring (cron-style) invocation schedule; see schedule_periodic."""

    def __init__(self, platform: "FaasPlatform", name: str, interval_s: float,
                 payload_fn, jitter: float = 0.0, rng=None):
        self._platform = platform
        self.function_name = name
        self.interval_s = interval_s
        self.jitter = jitter
        self._rng = rng
        self._payload_fn = payload_fn
        self.events: list = []
        self.cancelled = False
        self._next: typing.Optional[int] = None

    @property
    def fired_count(self) -> int:
        return len(self.events)

    def cancel(self) -> None:
        """Drop the queued firing (in-flight invocations complete normally)."""
        if not self.cancelled:
            self.cancelled = True
            self._platform.sim.cancel(self._next)

    def _arm(self, base: float) -> None:
        if self.jitter and self._rng is not None:
            base += self._rng.uniform(0.0, self.jitter)
        self._next = self._platform.sim.schedule_after(base, self._fire)

    def _fire(self) -> None:
        tick = len(self.events)
        self._arm(self.interval_s)  # first, so a payload_fn may cancel it
        payload = self._payload_fn(tick) if self._payload_fn else None
        self.events.append(self._platform.invoke(self.function_name, payload))


class _PoolBucket(list):
    """One pool key's idle sandboxes, in the order they were returned."""

    __slots__ = ("ordinal", "provisioned")

    def __init__(self, ordinal: int):
        super().__init__()
        #: The key's first-touch position among the platform's pools: the
        #: eviction order's tie-break between equally old sandboxes.
        self.ordinal = ordinal
        #: The key's live provisioned sandboxes, wherever they are, in order.
        self.provisioned: dict = {}


class _IdlePools(dict):
    """Pool key -> :class:`_PoolBucket`, created on first touch."""

    def __missing__(self, key) -> _PoolBucket:
        bucket = self[key] = _PoolBucket(len(self))
        return bucket


class _LazyHandles:
    """Attributes resolved by ``_BIND[name](self)`` on first read.

    A metric's resolution creates it through the registry at the moment
    the per-call lookup it replaces would have, so ``snapshot()`` keys,
    their order and their values are unchanged; later reads are plain
    attribute loads.
    """

    __slots__ = ()
    _BIND: typing.Dict[str, typing.Callable] = {}

    def __getattr__(self, name: str):
        bind = self._BIND.get(name)
        if bind is None:
            raise AttributeError(name)
        handle = bind(self)
        setattr(self, name, handle)
        return handle


def _lookup(kind: str, *args):
    return lambda owner: getattr(owner.registry, kind)(*args)


class _HotMetrics(_LazyHandles):
    """The fixed-name metrics a :class:`FaasPlatform` records per invocation,
    and the labeled families its functions' children come from."""

    _BIND = {
        "invocations": _lookup("counter", "invocations"),
        "cold_starts": _lookup("counter", "cold_starts"),
        "sandbox_evictions": _lookup("counter", "sandbox_evictions"),
        "sandbox_expirations": _lookup("counter", "sandbox_expirations"),
        "billing_gb_s": _lookup("counter", "billing.gb_s"),
        "billing_cost_usd": _lookup("counter", "billing.cost_usd"),
        "queue_delay_s": _lookup("distribution", "queue_delay_s"),
        "cold_start_latency_s": _lookup("distribution", "cold_start_latency_s"),
        "e2e_latency_s": _lookup("distribution", "e2e_latency_s"),
        "exec_duration_s": _lookup("distribution", "exec_duration_s"),
        "running": _lookup("series", "running"),
        "sandbox_memory_mb": _lookup("series", "sandbox_memory_mb"),
        # Families, bound where a function's first child would look them up.
        "arrivals_by": _lookup("labeled_counter", "arrivals_by", ("function",)),
        "interarrival_by": _lookup("labeled_histogram", "interarrival_by",
                                   ("function",)),
        "starts_by": _lookup("labeled_counter", "starts_by", ("function", "start")),
        "invocations_by": _lookup("labeled_counter", "invocations_by",
                                  ("function", "outcome")),
        "e2e_latency_by": _lookup("labeled_histogram", "e2e_latency_by",
                                  ("function",)),
    }

    def __init__(self, registry: MetricRegistry):
        self.registry = registry


def _child(family: str, *labels: str):
    return lambda fn: getattr(fn.hot, family).child(fn.name, *labels)


def _line_item(item: str):
    # Per-function line items feed CostReport.  By name: their creation
    # order among the plain counters is part of every snapshot.
    return lambda fn: fn.hot.registry.counter(f"billing.{item}.{fn.name}")


class _FunctionState(_LazyHandles):
    """One function's last arrival time, its per-function metrics and the
    name of its invocations' root span (built on a traced platform only)."""

    __slots__ = ("hot", "name", "last_arrival", "arrivals", "interarrival",
                 "cold", "warm", "ok", "e2e_latency", "billed_requests",
                 "billed_seconds", "billed_gb_s", "billed_cost_usd",
                 "span_name")

    _BIND = {
        "arrivals": _child("arrivals_by"),
        "interarrival": _child("interarrival_by"),
        "cold": _child("starts_by", "cold"),
        "warm": _child("starts_by", "warm"),
        "ok": _child("invocations_by", "ok"),
        "e2e_latency": _child("e2e_latency_by"),
        "billed_requests": _line_item("requests"),
        "billed_seconds": _line_item("seconds"),
        "billed_gb_s": _line_item("gb_s"),
        "billed_cost_usd": _line_item("cost_usd"),
        "span_name": lambda fn: f"faas.invoke.{fn.name}",
    }

    def __init__(self, hot: _HotMetrics, name: str):
        self.hot = hot
        self.name = name
        self.last_arrival: typing.Optional[float] = None


class _Attempt:
    """Book-keeping for one logical invocation across its retries."""

    def __init__(self, spec: FunctionSpec, record: InvocationRecord, done: Event,
                 fn: _FunctionState):
        self.spec = spec
        self.record = record
        self.done = done
        self.fn = fn
        self.attempts_left = spec.max_retries
        self.dispatched_once = False
        self.last_dispatch_cold = False
        #: Root span of the invocation's trace (None when tracing is off).
        self.span = None
        #: Handle of the queued finish while executing (a crash cancels
        #: it); ``None`` while the handler runs, before it is queued.
        self.finish: typing.Optional[int] = None
        #: The durable-execution journal entry shared by every attempt
        #: of this logical invocation (None when durability is off).
        self.journal_entry = None


class FaasPlatform:
    """A simulated Function-as-a-Service provider.

    Parameters
    ----------
    sim:
        The shared simulation.
    cluster:
        Provider machines.  ``None`` means an idealized elastic backend
        with unlimited memory and no contention — convenient for
        application-level workloads that do not study the provider.
    config:
        Provider policy knobs.
    services:
        Name → client objects wired into every handler context (e.g.
        ``{"blob": BlobStore(...), "jiffy": JiffyClient(...)}``).

    .. note:: For new code prefer the unified :class:`taureau.Platform`
       facade, which wires the simulation, cluster, tracer and platform
       together; constructing ``FaasPlatform`` directly remains fully
       supported.
    """

    def __init__(
        self,
        sim: Simulation,
        cluster: typing.Optional[Cluster] = None,
        config: typing.Optional[PlatformConfig] = None,
        services: typing.Optional[dict] = None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.config = config or PlatformConfig()
        self.services = dict(services or {})
        self.metrics = MetricRegistry(namespace="faas")
        self._hot = _HotMetrics(self.metrics)
        self._functions: dict = {}
        self._idle: dict = _IdlePools()
        # The eviction index: a heap of (created_at, bucket ordinal, return
        # seq, sandbox) over idle non-provisioned sandboxes.  Its minimum is
        # the first oldest sandbox a scan of _idle in insertion order would
        # meet.  Entries of sandboxes that left the pool go stale and are
        # dropped lazily; see _leave_idle for the compaction bound.
        self._evictable: list = []
        self._evictable_live = 0
        self._idle_seqs = itertools.count()
        self._pending: collections.deque = collections.deque()
        self._pending_per_function: dict = collections.defaultdict(int)
        self._cpu_load: dict = collections.defaultdict(float)
        self._tenants_on: dict = collections.defaultdict(collections.Counter)
        # machine_id -> {sandbox: None}: a dict used as an *insertion-ordered*
        # set.  fail_machine iterates this to re-dispatch interrupted work;
        # with a real set the re-dispatch order would follow object hashes
        # (memory addresses) and differ run to run (taurlint TAU003).
        self._sandboxes_on: dict = collections.defaultdict(dict)
        self._executing: dict = {}  # attempt -> sandbox
        self._running = 0
        self._running_per_function: dict = collections.defaultdict(int)
        self._sandbox_memory_mb = 0.0
        self._provisioned_memory_mb = 0.0
        self._prewarmed_memory_mb = 0.0
        # Control-plane actuation state (see taureau.control): per-function
        # keep-alive and concurrency overrides, installed by policies.
        self._keep_alive_overrides: dict = {}
        self._concurrency_overrides: dict = {}
        self._per_function: dict = {}  # name -> _FunctionState
        self._cold_rng = sim.rng.stream("platform.cold_start")
        self._invocation_ids = sim.ids("inv")
        self._sandbox_ids = sim.ids("sb")
        #: Installed by :meth:`with_resilience`; ``None`` keeps the bare
        #: invoke path (one attribute check per invocation).
        self._resilience = None
        #: Installed by ``Platform.with_durability()``: the
        #: :class:`~taureau.durable.DurabilityManager` that journals
        #: effects, replays retries and decides which fault-killed
        #: attempts :meth:`_conclude` re-drives.  An attempt carries a
        #: journal entry only while one is installed.
        self._durability = None
        #: Called with each :class:`FunctionSpec` at registration time;
        #: installed by ``Platform.with_audit()`` (the wiring-time
        #: determinism audit).  ``None`` keeps registration bare.
        self.audit_hook = None
        #: Function names and pool keys whose control signals changed,
        #: as an insertion-ordered dict; ``None`` until a
        #: :class:`~taureau.control.ControlLoop` attaches, so a platform
        #: without one pays one ``is None`` test per mark site.
        self._changed: typing.Optional[dict] = None
        # Cold plus warm starts so far; a plain count, not a metric.
        self._starts = 0
        #: Sandboxes created, and retired by cause (see :meth:`_retire`):
        #: plain counts, not metrics.
        self.sandboxes_created = 0
        self.sandboxes_retired: typing.Counter[str] = collections.Counter()

    # ------------------------------------------------------------------
    # Deployment API
    # ------------------------------------------------------------------

    def register(self, spec: FunctionSpec) -> FunctionSpec:
        """Deploy a function; replaces any previous version of the name.

        When an :attr:`audit_hook` is installed it sees every spec at
        wiring time — a strict hook raises, rejecting the deployment.
        """
        if self.audit_hook is not None:
            self.audit_hook(spec)
        self._functions[spec.name] = spec
        if self._changed is not None:
            # A re-registration may change reserved concurrency or tenant.
            self._changed[spec.name] = None
        return spec

    def function(self, name: str, **spec_kwargs):
        """Decorator form of :meth:`register`.

        >>> @platform.function("hello", memory_mb=128)
        ... def hello(event, ctx):
        ...     return f"hi {event}"
        """

        def decorate(handler):
            self.register(FunctionSpec(name=name, handler=handler, **spec_kwargs))
            return handler

        return decorate

    def spec(self, name: str) -> FunctionSpec:
        if name not in self._functions:
            raise KeyError(f"function {name!r} is not registered")
        return self._functions[name]

    def wire_service(self, name: str, client) -> None:
        """Expose ``client`` to handlers as ``ctx.service(name)``."""
        self.services[name] = client

    # ------------------------------------------------------------------
    # Invocation API
    # ------------------------------------------------------------------

    def invoke(self, name: str, payload: object = None, *, parent=None) -> Event:
        """Asynchronously invoke ``name``.

        Returns an event that *always succeeds* with the final
        :class:`InvocationRecord`; inspect ``record.status`` for the
        outcome.  (Failures are data, not kernel crashes: the platform
        retries transparently and reports what happened.)

        When a tracer is installed the invocation opens a root span
        (``faas.invoke.<name>``) with children for queueing, cold start,
        sandbox execution and billing; ``record.trace_id`` names the
        trace.  Pass ``parent`` (a span or :class:`~taureau.obs.SpanContext`)
        to stitch the invocation into an existing trace — propagation is
        always explicit, carried on calls and payloads.

        With a :class:`~taureau.chaos.ResiliencePolicy` installed (see
        :meth:`with_resilience`) the call goes through the resilient
        invoker — client-side retries, per-attempt timeouts, hedging and
        circuit breaking — and still resolves with one final record.
        """
        journal_entry = None
        if self._durability is not None:
            journal_entry = self._durability.open_entry(name)
        if self._resilience is not None:
            return self._resilience.invoke(
                name, payload, parent=parent, journal_entry=journal_entry
            )
        return self._invoke_once(
            name, payload, parent=parent, journal_entry=journal_entry
        )

    def _invoke_once(self, name: str, payload: object = None, *,
                     parent=None, journal_entry=None) -> Event:
        """One platform-level invocation, bypassing client-side resilience."""
        spec = self.spec(name)
        now = self.sim.now
        fn = self._per_function.get(name)
        if fn is None:
            fn = self._per_function[name] = _FunctionState(self._hot, name)
        if fn.last_arrival is not None:
            fn.interarrival.observe(now - fn.last_arrival)
        fn.last_arrival = now
        fn.arrivals.add()
        record = InvocationRecord(
            invocation_id=f"inv{next(self._invocation_ids)}",
            function_name=name,
            payload=payload,
            arrival_time=now,
        )
        self._hot.invocations.add()
        done = self.sim.event()
        attempt = _Attempt(spec, record, done, fn)
        if journal_entry is not None:
            attempt.journal_entry = journal_entry
            journal_entry.invocation_ids.append(record.invocation_id)
        tracer = self.sim.tracer
        if tracer is not None:
            attempt.span = tracer.start_span(
                fn.span_name,
                parent=parent,
                function=name,
                tenant=spec.tenant,
                invocation_id=record.invocation_id,
            )
            record.trace_id = attempt.span.trace_id
        self._dispatch(attempt)
        return done

    def invoke_sync(self, name: str, payload: object = None, *,
                    parent=None) -> InvocationRecord:
        """Invoke and run the simulation until the record is final.

        Returns the exact final :class:`~taureau.core.function.InvocationRecord`
        the :meth:`invoke` event resolves to — one result shape for both
        paths: ``status``/``response``/``error``, ``cold_start``,
        ``cost_usd``, ``end_to_end_latency_s`` and ``trace_id``.
        """
        return self.sim.run(until=self.invoke(name, payload, parent=parent))

    def schedule_periodic(
        self,
        name: str,
        interval_s: float,
        *,
        payload_fn: typing.Optional[typing.Callable[[int], object]] = None,
        start_after_s: typing.Optional[float] = None,
        jitter: float = 0.0,
    ) -> "PeriodicTrigger":
        """Invoke ``name`` every ``interval_s`` (cron-style triggering).

        This is design pattern (1), *periodic invocation*, from the Hong
        et al. taxonomy the paper cites in §3.2.  ``payload_fn(tick)``
        builds each firing's payload; a positive ``jitter`` adds a
        seeded uniform ``[0, jitter)`` delay to every firing (named rng
        stream ``platform.periodic.<name>``), de-synchronizing triggers
        that share an interval.  Returns a handle whose ``cancel()``
        stops future firings and whose ``events`` collects the invocation
        events fired so far.
        """
        self.spec(name)  # fail fast on unknown functions
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if jitter < 0:
            raise ValueError("jitter must be nonnegative")
        rng = self.sim.rng.stream(f"platform.periodic.{name}") if jitter else None
        trigger = PeriodicTrigger(self, name, interval_s, payload_fn,
                                  jitter=jitter, rng=rng)
        trigger._arm(interval_s if start_after_s is None else start_after_s)
        return trigger

    def warm_pool_size(self, name: str) -> int:
        """Idle sandboxes reusable by ``name`` (its pool-key bucket)."""
        return len(self._idle[self._pool_key(self.spec(name))])

    def set_provisioned_concurrency(self, name: str, count: int) -> None:
        """Keep ``count`` always-warm sandboxes for ``name`` (Lambda-style).

        Provisioned sandboxes are created immediately (off the request
        path), never expire, and are never evicted; they are billed per
        GB-second at the provisioned rate whether or not traffic arrives
        (see :meth:`provisioned_cost_usd`).  The count covers the pool's
        live provisioned sandboxes, starting ones too.  Lowering it
        retires idle ones newest-first; the rest demote, oldest first, to
        ordinary warm sandboxes (their standing charge stops at once and
        they pick up a normal keep-alive window when they finish).
        """
        spec = self.spec(name)
        if count < 0:
            raise ValueError("count must be nonnegative")
        pool_key = self._pool_key(spec)
        bucket = self._idle[pool_key]
        if self._changed is not None:
            self._changed[pool_key] = None
        provisioned = bucket.provisioned
        existing = len(provisioned)
        if count < existing:
            idle = [sandbox for sandbox in reversed(bucket) if sandbox.provisioned]
            for sandbox in idle[:existing - count]:
                self._retire(sandbox, "deprovisioned")  # records the series drop
            demoted = list(provisioned)[:len(provisioned) - count]
            for sandbox in demoted:
                sandbox.provisioned = False
                del provisioned[sandbox]
                self._provisioned_memory_mb -= sandbox.spec.memory_mb
            if demoted:
                self.metrics.series("provisioned_memory_mb").record(
                    self.sim.now, self._provisioned_memory_mb
                )
            return
        created = 0
        for __ in range(count - existing):
            # Always create fresh sandboxes: reusing warm ones would just
            # shuffle the pool instead of adding standing capacity.
            sandbox = self._create_sandbox(spec)
            if sandbox is None:
                break
            sandbox.provisioned = True
            bucket.append(sandbox)
            bucket.provisioned[sandbox] = None
            created += 1
        # Sandboxes created before capacity ran out stay provisioned, so
        # they are accounted for before the error below.
        self._provisioned_memory_mb += created * spec.memory_mb
        self.metrics.series("provisioned_memory_mb").record(
            self.sim.now, self._provisioned_memory_mb
        )
        if existing + created < count:
            raise RuntimeError(
                f"no capacity to provision {count} sandboxes for {name!r}; "
                f"{existing + created} provisioned"
            )

    def provisioned_count(self, name: str) -> int:
        """Live provisioned sandboxes (starting ones too) of ``name``'s pool."""
        return len(self._idle[self._pool_key(self.spec(name))].provisioned)

    def provisioned_cost_usd(
        self, start: float = 0.0, end: typing.Optional[float] = None
    ) -> float:
        """The standing charge for provisioned concurrency over a window."""
        return self._standing_cost_usd("provisioned_memory_mb", start, end)

    def _standing_cost_usd(self, series_name: str, start: float,
                           end: typing.Optional[float]) -> float:
        """Provisioned-rate charge for the memory a series integrates."""
        series = self.metrics.series(series_name)
        if not len(series):
            return 0.0
        end = self.sim.now if end is None else end
        gb_s = series.integral(start, end) / 1024.0
        return gb_s * self.config.calibration.price_per_provisioned_gb_s

    # ------------------------------------------------------------------
    # Control-plane actuation (taureau.control)
    # ------------------------------------------------------------------

    def set_keep_alive(self, name: str,
                       keep_alive_s: typing.Optional[float]) -> None:
        """Override the warm keep-alive window for one function.

        ``None`` clears the override (back to the platform-wide
        ``PlatformConfig.keep_alive_s`` / calibration default); ``0``
        disables warm reuse for the function.  The override applies to
        sandboxes *returned to the pool* after this call — already-idle
        sandboxes keep their scheduled expiry.  Under ``app_sandboxing``
        the pool is shared per tenant but the window is still chosen by
        the function that returns the sandbox.
        """
        self.spec(name)
        if self._changed is not None:
            self._changed[name] = None
        if keep_alive_s is None:
            self._keep_alive_overrides.pop(name, None)
            return
        if keep_alive_s < 0:
            raise ValueError("keep_alive_s must be nonnegative")
        self._keep_alive_overrides[name] = float(keep_alive_s)

    def keep_alive_for(self, name: str) -> float:
        """The effective keep-alive window for ``name``."""
        return self._keep_alive_overrides.get(
            name, self.config.effective_keep_alive()
        )

    def set_concurrency_limit(self, name: str,
                              limit: typing.Optional[int]) -> None:
        """Cap concurrent executions of one function (scaling actuator).

        Overrides the function's deploy-time ``reserved_concurrency``;
        ``None`` clears the override.  Raising the limit immediately
        re-dispatches parked work.
        """
        self.spec(name)
        if limit is None:
            self._concurrency_overrides.pop(name, None)
        else:
            if limit < 1:
                raise ValueError("limit must be at least 1 (or None to clear)")
            self._concurrency_overrides[name] = int(limit)
        if self._changed is not None:
            self._changed[name] = None
        self._drain_pending()

    def concurrency_limit_for(self, name: str) -> typing.Optional[int]:
        """The effective per-function concurrency cap (``None`` = unlimited)."""
        override = self._concurrency_overrides.get(name)
        if override is not None:
            return override
        return self.spec(name).reserved_concurrency

    def prewarm(self, name: str, count: int) -> int:
        """Create up to ``count`` warm sandboxes for ``name`` ahead of demand.

        Pre-warmed sandboxes behave like ordinary warm sandboxes — they
        expire after the function's keep-alive window and are evictable
        under memory pressure — but they accrue a standing charge at the
        provisioned-concurrency rate until first reuse or expiry (see
        :meth:`prewarm_cost_usd`), so pre-warming is never free.  Returns
        the number actually created (cluster capacity permitting).
        """
        spec = self.spec(name)
        if count < 0:
            raise ValueError("count must be nonnegative")
        created = 0
        for __ in range(count):
            sandbox = self._create_sandbox(spec)
            if sandbox is None:
                break
            sandbox.prewarmed = True
            self._account_prewarm(spec.memory_mb)
            self._return_to_pool(sandbox)
            created += 1
        if created:
            self.metrics.counter("prewarmed_sandboxes").add(created)
        return created

    def _account_prewarm(self, delta_mb: float) -> None:
        self._prewarmed_memory_mb += delta_mb
        self.metrics.series("prewarmed_memory_mb").record(
            self.sim.now, self._prewarmed_memory_mb
        )

    def prewarm_cost_usd(
        self, start: float = 0.0, end: typing.Optional[float] = None
    ) -> float:
        """The standing charge for pre-warmed (not yet reused) sandboxes."""
        return self._standing_cost_usd("prewarmed_memory_mb", start, end)

    def pending_count(self, name: typing.Optional[str] = None) -> int:
        """Parked (queued-on-throttle) attempts, optionally per function."""
        if name is None:
            return len(self._pending)
        return self._pending_per_function.get(name, 0)

    def running_for(self, name: str) -> int:
        """Currently executing invocations of one function."""
        return self._running_per_function.get(name, 0)

    def function_names(self) -> list:
        """Registered function names in deployment order."""
        return list(self._functions)

    @property
    def start_count(self) -> int:
        """Cold plus warm starts so far (a plain count, not a metric, so
        ``snapshot()`` does not show it)."""
        return self._starts

    def with_resilience(self, policy):
        """Install a :class:`~taureau.chaos.ResiliencePolicy` on invoke.

        Every subsequent :meth:`invoke` (orchestration and Pulsar
        triggers included — they call the same entry point) goes through
        a :class:`~taureau.chaos.ResilientInvoker`.  Returns the invoker.
        """
        from taureau.chaos.resilience import ResilientInvoker

        self._resilience = ResilientInvoker(self, policy)
        return self._resilience

    # ------------------------------------------------------------------
    # Failure injection (paper §4.1: transparent re-execution)
    # ------------------------------------------------------------------

    def fail_machine(self, machine: Machine) -> int:
        """Crash a provider machine; returns the interrupted-execution count.

        Every sandbox on the machine dies (warm pools included); in-flight
        invocations are transparently re-dispatched onto surviving
        machines — the behaviour the paper highlights when noting that
        "most FaaS platforms re-execute functions transparently on
        failure".  Infrastructure retries do not consume the function's
        ``max_retries`` budget and nothing interrupted is billed.
        """
        if self.cluster is None or machine not in self.cluster.machines:
            raise ValueError("machine is not part of this platform's cluster")
        orphaned: list = []
        for sandbox in list(self._sandboxes_on.get(machine.machine_id, ())):
            self._retire(sandbox, "machine_failed")
            attempt = self._interrupt(sandbox)
            if attempt is not None:
                self.metrics.counter("machine_failure_reexecutions").add()
                attempt.record.attempts += 1
                orphaned.append(attempt)
        self._cpu_load.pop(machine.machine_id, None)
        self._sandboxes_on.pop(machine.machine_id, None)
        # Detach the machine BEFORE re-dispatching so retries cannot land
        # back on the corpse.
        self.cluster.remove_machine(machine)
        self.metrics.counter("machine_failures").add()
        for attempt in orphaned:
            self._dispatch(attempt)
        self._drain_pending()
        return len(orphaned)

    def fail_sandbox(self, sandbox: Sandbox) -> bool:
        """Crash one sandbox (chaos fault injection); True if it was executing.

        Unlike :meth:`fail_machine`'s free infrastructure re-execution,
        a sandbox crash surfaces as an ERROR attempt carrying a
        :class:`~taureau.chaos.FaultInjected` — it consumes the
        function's ``max_retries`` budget and, once that is exhausted,
        becomes a failed record: the failure mode client-side resilience
        policies exist to absorb.  Nothing interrupted is billed.  A
        sandbox already retired raises :class:`SandboxError`.
        """
        from taureau.chaos.faults import FaultInjected

        self._retire(sandbox, "crashed")
        attempt = self._interrupt(sandbox)
        if attempt is None:
            self._drain_pending()
            return False
        error = FaultInjected(
            f"sandbox {sandbox.sandbox_id} crashed mid-execution "
            f"(function {attempt.spec.name})",
            kind="sandbox_crash", component="faas",
        )
        self._conclude(attempt, InvocationStatus.ERROR, None, error,
                       self.sim.now - attempt.record.start_time)
        return True

    def _interrupt(self, sandbox: Sandbox) -> typing.Optional[_Attempt]:
        """Stop the attempt executing in a crashed ``sandbox``, if any.

        Releases its dispatch slot and CPU share and cancels its queued
        finish; returns the attempt (``None`` for an idle sandbox).  A
        handler that crashes its own sandbox has no finish queued yet.
        """
        attempt = sandbox.attempt
        if attempt is None:
            return None
        sandbox.attempt = None
        del self._executing[attempt]
        if attempt.finish is not None:
            self.sim.cancel(attempt.finish)
        self._exit_cpu(sandbox, attempt.spec)
        self._release_slot(attempt.spec.name)
        return attempt

    def _release_slot(self, name: str) -> None:
        """Free the dispatch slot one attempt of ``name`` held."""
        self._running -= 1
        self._running_per_function[name] -= 1
        if self._changed is not None:
            self._changed[name] = None
        self._hot.running.record(self.sim.now, self._running)

    # ------------------------------------------------------------------
    # Dispatch pipeline
    # ------------------------------------------------------------------

    def _dispatch(self, attempt: _Attempt) -> None:
        if self._changed is not None:
            # Every caller has just moved this function's signals (an
            # arrival, a drained or re-dispatched attempt), and dispatch
            # itself starts or parks it.
            self._changed[attempt.spec.name] = None
        config = self.config
        if (
            config.concurrency_limit is not None
            and self._running >= config.concurrency_limit
        ):
            self._park_or_throttle(attempt)
            return
        reserved = self._concurrency_overrides.get(
            attempt.spec.name, attempt.spec.reserved_concurrency
        )
        if (
            reserved is not None
            and self._running_per_function[attempt.spec.name] >= reserved
        ):
            self._park_or_throttle(attempt)
            return
        sandbox, cold = self._acquire_sandbox(attempt.spec)
        if sandbox is None:
            self._park_or_throttle(attempt)
            return
        if not attempt.dispatched_once:
            attempt.dispatched_once = True
            attempt.record.queue_delay_s = self.sim.now - attempt.record.arrival_time
            self._hot.queue_delay_s.observe(attempt.record.queue_delay_s)
            if attempt.span is not None and attempt.record.queue_delay_s > 0:
                self.sim.tracer.record(
                    "faas.queue",
                    parent=attempt.span,
                    start=attempt.record.arrival_time,
                    end=self.sim.now,
                )
        self._running += 1
        self._running_per_function[attempt.spec.name] += 1
        self._hot.running.record(self.sim.now, self._running)
        attempt.last_dispatch_cold = cold
        (attempt.fn.cold if cold else attempt.fn.warm).add()
        self._starts += 1
        start_delay = config.calibration.scheduler_overhead_s
        if cold:
            cold_latency = config.calibration.cold_start_latency(
                attempt.spec.memory_mb, self._cold_rng
            )
            attempt.record.cold_start = True
            attempt.record.cold_start_latency_s = cold_latency
            self._hot.cold_starts.add()
            self._hot.cold_start_latency_s.observe(cold_latency)
            if attempt.span is not None:
                self.sim.tracer.record(
                    "faas.cold_start",
                    parent=attempt.span,
                    start=self.sim.now + start_delay,
                    end=self.sim.now + start_delay + cold_latency,
                    memory_mb=attempt.spec.memory_mb,
                )
            start_delay += cold_latency
        else:
            start_delay += config.calibration.warm_start_s
        self.sim.schedule_after(start_delay, self._start, attempt, sandbox)

    def _park_or_throttle(self, attempt: _Attempt) -> None:
        if self.config.queue_on_throttle:
            self._pending.append(attempt)
            self._pending_per_function[attempt.spec.name] += 1
            self.metrics.series("pending").record(self.sim.now, len(self._pending))
        else:
            record = attempt.record
            record.status = InvocationStatus.THROTTLED
            limit = self.config.concurrency_limit
            reserved = self._concurrency_overrides.get(
                attempt.spec.name, attempt.spec.reserved_concurrency
            )
            record.error = ThrottledError(
                f"{record.function_name}: throttled at {self._running} "
                f"running invocations (platform limit "
                f"{'none' if limit is None else limit}, function running "
                f"{self._running_per_function[record.function_name]}, "
                f"reserved {'none' if reserved is None else reserved})"
            )
            record.start_time = record.end_time = self.sim.now
            self.metrics.counter("throttles").add()
            self._hot.invocations_by.child(
                record.function_name, record.status.value).add()
            if attempt.span is not None:
                attempt.span.finish(self.sim.now, status="throttled")
            attempt.done.succeed(record)

    def _drain_pending(self) -> None:
        # Re-dispatch as many parked attempts as now fit.  _dispatch
        # re-parks (appends) anything that still does not, so sweep a
        # snapshot of the current queue length only.
        for _index in range(len(self._pending)):
            if (
                self.config.concurrency_limit is not None
                and self._running >= self.config.concurrency_limit
            ):
                break
            attempt = self._pending.popleft()
            self._pending_per_function[attempt.spec.name] -= 1
            self._dispatch(attempt)

    # ------------------------------------------------------------------
    # Sandbox lifecycle
    # ------------------------------------------------------------------

    def _acquire_sandbox(self, spec: FunctionSpec):
        """Returns ``(sandbox, is_cold)``; ``(None, False)`` if no capacity."""
        pool_key = self._pool_key(spec)
        idle = self._idle[pool_key]
        for position in range(len(idle) - 1, -1, -1):
            sandbox = idle[position]  # LIFO keeps the hottest sandbox in use
            if sandbox.spec.memory_mb >= spec.memory_mb:
                del idle[position]
                if self._changed is not None:
                    self._changed[pool_key] = None
                self._leave_idle(sandbox)
                sandbox.idle_until = None
                if sandbox.prewarmed:
                    # First reuse ends the pre-warm standing charge.
                    sandbox.prewarmed = False
                    self._account_prewarm(-sandbox.spec.memory_mb)
                return sandbox, False
        return self._create_sandbox(spec), True

    def _pool_key(self, spec: FunctionSpec) -> str:
        if self.config.app_sandboxing:
            return f"tenant:{spec.tenant}"
        return spec.name

    def _create_sandbox(self, spec: FunctionSpec) -> typing.Optional[Sandbox]:
        machine = allocation = None
        if self.cluster is not None:
            machine = self._place_with_eviction(spec)
            if machine is None:
                return None
            allocation = machine.allocate(
                ResourceVector(cpu_cores=0, memory_mb=spec.memory_mb),
                label=f"sandbox:{spec.name}",
            )
            self._account_sandbox_memory(spec.memory_mb)
            self._tenants_on[machine.machine_id][spec.tenant] += 1
        sandbox = Sandbox(spec, machine, allocation, self.sim.now,
                          sandbox_id=f"sb{next(self._sandbox_ids)}")
        if machine is not None:
            self._sandboxes_on[machine.machine_id][sandbox] = None
        self.sandboxes_created += 1
        return sandbox

    def _place_with_eviction(self, spec: FunctionSpec):
        """Place a sandbox, evicting idle sandboxes (oldest first) if needed."""
        while True:
            machine = self.config.scheduler.place(
                self.cluster.machines, spec, self._cpu_load, self._tenants_on
            )
            if machine is not None:
                return machine
            victim = self._pop_eviction_victim()
            if victim is None:
                return None
            self._retire(victim, "evicted")

    def _pop_eviction_victim(self) -> typing.Optional[Sandbox]:
        """The oldest idle non-provisioned sandbox, off the eviction index.

        Ties on ``created_at`` go to the pool touched first, then to the
        sandbox returned first; provisioned capacity is never evicted.
        """
        heap = self._evictable
        while heap:
            __, __, seq, sandbox = heapq.heappop(heap)
            if sandbox.idle_seq == seq:
                return sandbox
        return None

    def _leave_idle(self, sandbox: Sandbox) -> None:
        """Turn ``sandbox``'s eviction-index entry stale, if it has one.

        Compacting once stale entries outnumber live ones (past a small
        slack) keeps the index at most twice the idle pool plus a
        constant, on workloads that never evict as well.
        """
        if sandbox.idle_seq is None:
            return
        sandbox.idle_seq = None
        self._evictable_live -= 1
        heap = self._evictable
        if len(heap) > 2 * self._evictable_live + _EVICTABLE_SLACK:
            heap[:] = [entry for entry in heap if entry[3].idle_seq == entry[2]]
            heapq.heapify(heap)

    def _retire(self, sandbox: Sandbox, cause: str) -> None:
        """The one way out for a sandbox, wherever it is.

        ``cause`` is ``expired``, ``evicted``, ``machine_failed``,
        ``crashed``, ``no_keep_alive`` or ``deprovisioned``, counted here
        and nowhere else.  A second retire raises :class:`SandboxError`.
        """
        if sandbox.dead:
            raise SandboxError(f"sandbox {sandbox.sandbox_id} retired twice ({cause})")
        sandbox.dead = True
        pool_key = self._pool_key(sandbox.spec)
        bucket = self._idle[pool_key]
        idle = sandbox in bucket
        if idle:
            bucket.remove(sandbox)
        if (idle or sandbox.provisioned) and self._changed is not None:
            self._changed[pool_key] = None
        self._leave_idle(sandbox)
        if sandbox.expiry is not None:
            self.sim.cancel(sandbox.expiry[1])
            sandbox.expiry = None
        if sandbox.allocation is not None:
            self._account_sandbox_memory(-sandbox.spec.memory_mb)
            self._tenants_on[sandbox.machine.machine_id][sandbox.spec.tenant] -= 1
            self._sandboxes_on[sandbox.machine.machine_id].pop(sandbox, None)
            sandbox.allocation.release()
            sandbox.allocation = None
        if sandbox.provisioned:
            del bucket.provisioned[sandbox]
            self._provisioned_memory_mb -= sandbox.spec.memory_mb
            self.metrics.series("provisioned_memory_mb").record(
                self.sim.now, self._provisioned_memory_mb
            )
        if sandbox.prewarmed:
            sandbox.prewarmed = False
            self._account_prewarm(-sandbox.spec.memory_mb)
        if cause in ("evicted", "expired"):
            self._hot.sandbox_evictions.add()
            if cause == "expired":
                self._hot.sandbox_expirations.add()
        elif cause == "crashed":
            self.metrics.counter("sandbox_crashes").add()
        self.sandboxes_retired[cause] += 1

    def _return_to_pool(self, sandbox: Sandbox) -> None:
        """Put a sandbox back; an expiring one keeps one queued check.

        A check queued at or before the new deadline stays queued; a
        later one (an override shortened the window) is cancelled.
        """
        keep_alive = self._keep_alive_overrides.get(
            sandbox.spec.name, self.config.effective_keep_alive()
        )
        if keep_alive <= 0 and not sandbox.provisioned:
            self._retire(sandbox, "no_keep_alive")
            return
        pool_key = self._pool_key(sandbox.spec)
        bucket = self._idle[pool_key]
        bucket.append(sandbox)
        if self._changed is not None:
            self._changed[pool_key] = None
        if sandbox.provisioned:
            return
        sandbox.idle_seq = seq = next(self._idle_seqs)
        heapq.heappush(
            self._evictable, (sandbox.created_at, bucket.ordinal, seq, sandbox)
        )
        self._evictable_live += 1
        sandbox.idle_until = until = self.sim.now + keep_alive
        if sandbox.expiry is not None:
            if sandbox.expiry[0] <= until:
                return
            self.sim.cancel(sandbox.expiry[1])
        sandbox.expiry = (until, self.sim.schedule_at(until, self._expire, sandbox))

    def _expire(self, sandbox: Sandbox) -> None:
        """The keep-alive check: retire an idle sandbox whose window ran out.

        One reused since the check was armed is executing (its return
        arms a new check) or idle with a later deadline (re-armed there).
        """
        sandbox.expiry = None
        until = sandbox.idle_until
        if until is None:
            return
        if self.sim.now < until:
            sandbox.expiry = (until, self.sim.schedule_at(until, self._expire, sandbox))
            return
        self._retire(sandbox, "expired")
        self._drain_pending()

    def _account_sandbox_memory(self, delta_mb: float) -> None:
        self._sandbox_memory_mb += delta_mb
        self._hot.sandbox_memory_mb.record(self.sim.now, self._sandbox_memory_mb)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _start(self, attempt: _Attempt, sandbox: Sandbox) -> None:
        spec = attempt.spec
        record = attempt.record
        if sandbox.dead:
            # The hosting machine failed during the cold start: release
            # the dispatch slot and transparently re-dispatch (§4.1).
            self._release_slot(spec.name)
            self.metrics.counter("machine_failure_reexecutions").add()
            record.attempts += 1
            self._dispatch(attempt)
            return
        record.start_time = self.sim.now
        record.machine_id = sandbox.machine_id
        sandbox.executions += 1
        self._executing[attempt] = sandbox
        sandbox.attempt = attempt
        attempt.finish = None

        # Race-sanitizer boundary checks (Simulation(sanitize=True)): the
        # payload is entering a sandbox, so any drift since it last crossed
        # a boundary means shared in-process state bypassed the stores.
        sanitizer = getattr(self.sim, "sanitizer", None)
        payload_digest = None
        if sanitizer is not None:
            site = f"faas:{spec.name}"
            payload_digest = sanitizer.inbound(record.payload, self.sim.now, site)

        slowdown = self._enter_cpu(sandbox, spec)
        base_duration = 0.0
        if spec.duration_model is not None:
            base_duration = spec.duration_model(
                record.payload, self.sim.rng.stream(f"fn.{spec.name}.duration")
            )
        execute_span = None
        if attempt.span is not None:
            execute_span = self.sim.tracer.start_span(
                "faas.execute",
                parent=attempt.span,
                sandbox_id=sandbox.sandbox_id,
                machine_id=sandbox.machine_id,
                attempt=record.attempts,
            )
        ctx = InvocationContext(
            invocation_id=record.invocation_id,
            function_name=spec.name,
            timeout_s=spec.timeout_s,
            start_time=self.sim.now,
            services=self.services,
            base_duration=base_duration,
            cold_start=attempt.last_dispatch_cold,
            sandbox_id=sandbox.sandbox_id,
            tracer=self.sim.tracer if execute_span is not None else None,
            span=execute_span,
        )
        entry = attempt.journal_entry
        if entry is not None:
            # Rewind the replay cursor: effects the previous attempt
            # journaled will replay instead of re-applying.
            entry.begin_attempt()
            ctx.journal = self._durability.binding(entry)
        response: object = None
        error: typing.Optional[BaseException] = None
        try:
            response = spec.handler(record.payload, ctx)
        except Exception as exc:  # handler bugs are data, not sim crashes
            error = exc
        if sanitizer is not None:
            sanitizer.check_handler_boundary(
                record.payload, payload_digest, response,
                self.sim.now, f"faas:{spec.name}",
            )
        if sandbox.attempt is not attempt:
            # The handler failed its own sandbox or machine: _interrupt
            # already released this attempt and re-dispatched or
            # concluded it, so nothing of this execution is finished.
            if execute_span is not None:
                execute_span.finish(self.sim.now, status="error")
            return
        effective = ctx.accrued_s * slowdown
        if effective > spec.timeout_s:
            status = InvocationStatus.TIMEOUT
            exec_duration = spec.timeout_s
        elif error is not None:
            status = InvocationStatus.ERROR
            exec_duration = effective
        else:
            status = InvocationStatus.OK
            exec_duration = effective
        if execute_span is not None:
            execute_span.finish(self.sim.now + exec_duration, status=status.value)
        attempt.finish = self.sim.schedule_after(
            exec_duration,
            self._finish,
            attempt,
            sandbox,
            status,
            response,
            error,
            exec_duration,
        )

    def _enter_cpu(self, sandbox: Sandbox, spec: FunctionSpec) -> float:
        if sandbox.machine is None:
            return 1.0
        machine_id = sandbox.machine.machine_id
        self._cpu_load[machine_id] += spec.cpu_demand
        cores = sandbox.machine.capacity.cpu_cores
        if cores <= 0:
            return 1.0
        return max(1.0, self._cpu_load[machine_id] / cores)

    def _exit_cpu(self, sandbox: Sandbox, spec: FunctionSpec) -> None:
        if sandbox.machine is None:
            return
        self._cpu_load[sandbox.machine.machine_id] -= spec.cpu_demand

    def _finish(
        self,
        attempt: _Attempt,
        sandbox: Sandbox,
        status: InvocationStatus,
        response: object,
        error: typing.Optional[BaseException],
        exec_duration: float,
    ) -> None:
        spec = attempt.spec
        self._executing.pop(attempt)
        sandbox.attempt = None
        self._exit_cpu(sandbox, spec)
        self._release_slot(spec.name)
        self._bill(attempt, exec_duration)
        self._return_to_pool(sandbox)
        self._conclude(attempt, status, response, error, exec_duration)

    def _conclude(
        self,
        attempt: _Attempt,
        status: InvocationStatus,
        response: object,
        error: typing.Optional[BaseException],
        exec_duration: float,
    ) -> None:
        """Retry a failed attempt or finalize its record (shared tail of
        the normal finish path and chaos-injected sandbox crashes)."""
        spec = attempt.spec
        record = attempt.record
        if status is not InvocationStatus.OK:
            # One retry decision: the function's max_retries re-dispatch
            # at once.  Once they are spent, durable recovery re-drives
            # an attempt an injected fault killed after a backoff: it
            # replays the journal instead of re-running logged effects,
            # and does not charge the user's retry allowance.
            entry = attempt.journal_entry
            delay = None
            if attempt.attempts_left > 0:
                attempt.attempts_left -= 1
                self.metrics.counter("retries").add()
                self.metrics.labeled_counter(
                    "retries_by", ("component", "outcome")
                ).add(component="faas.platform", outcome="retry")
                delay = 0.0
            elif entry is not None and self._durability.should_recover(entry, error):
                delay = self._durability.recovery_delay(entry)
            if delay is not None:
                record.attempts += 1
                if delay > 0:
                    self.sim.schedule_after(delay, self._recover_dispatch, attempt)
                else:
                    self._dispatch(attempt)
                self._drain_pending()
                return

        record.status = status
        record.response = response
        record.error = error
        record.end_time = self.sim.now
        latency = record.end_to_end_latency_s
        self._hot.e2e_latency_s.observe(latency)
        self._hot.exec_duration_s.observe(exec_duration)
        if status is InvocationStatus.OK:
            attempt.fn.ok.add()
        else:
            self._hot.invocations_by.child(spec.name, status.value).add()
        attempt.fn.e2e_latency.observe(latency)
        if status is InvocationStatus.TIMEOUT:
            self.metrics.counter("timeouts").add()
        elif status is InvocationStatus.ERROR:
            self.metrics.counter("errors").add()
        if attempt.span is not None:
            attempt.span.finish(self.sim.now, status=status.value)
        if attempt.journal_entry is not None:
            self._durability.finalize(
                attempt.journal_entry, status.value, error
            )
        attempt.done.succeed(record)
        self._drain_pending()

    def _recover_dispatch(self, attempt: _Attempt) -> None:
        """Re-dispatch a failed attempt after its backoff."""
        self._dispatch(attempt)
        self._drain_pending()

    # ------------------------------------------------------------------
    # Billing (paper §2: cost efficiency via fine-grained billing)
    # ------------------------------------------------------------------

    def _bill(self, attempt: _Attempt, duration: float) -> None:
        record, spec = attempt.record, attempt.spec
        journal_entry, span = attempt.journal_entry, attempt.span
        calibration = self.config.calibration
        granularity = calibration.billing_granularity_s
        slices = math.ceil(max(duration, 1e-12) / granularity)
        if journal_entry is not None:
            # Durable billing: a logical invocation pays the high-water
            # mark over its attempts, never the sum — replayed ground
            # was already paid for.
            slices = self._durability.billable_slices(journal_entry, slices)
        elif record.billed_duration_s > 0:
            # No journal: a retried attempt re-bills work the earlier
            # attempt already charged.  The overlap with what was paid
            # before is double-billed (the no_double_billing invariant
            # and the E43 baseline count it here).
            prior = int(round(record.billed_duration_s / granularity))
            overlap = min(prior, slices)
            if overlap:
                self.metrics.counter("billing.double_billed_slices").add(
                    overlap
                )
        billed = slices * granularity
        gb_s = billed * spec.memory_gb
        cost = gb_s * calibration.price_per_gb_s + calibration.price_per_request
        record.billed_duration_s += billed
        record.cost_usd += cost
        if span is not None:
            self.sim.tracer.record(
                "faas.billing",
                parent=span,
                start=self.sim.now,
                end=self.sim.now,
                gb_s=gb_s,
                cost_usd=cost,
                billed_duration_s=billed,
                attempt=record.attempts,
            )
        self._hot.billing_gb_s.add(gb_s)
        self._hot.billing_cost_usd.add(cost)
        fn = attempt.fn
        fn.billed_requests.add()
        fn.billed_seconds.add(billed)
        fn.billed_gb_s.add(gb_s)
        fn.billed_cost_usd.add(cost)

    def total_cost_usd(self) -> float:
        """Cumulative user-facing bill across all invocations so far."""
        return self.metrics.counter("billing.cost_usd").value
