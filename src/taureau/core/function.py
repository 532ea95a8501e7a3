"""Function specifications, invocation records and the handler context.

taureau functions are *real Python callables* running against a simulated
clock.  A handler has the signature ``handler(event, ctx)`` and returns its
response.  Simulated time is accrued explicitly:

- ``ctx.charge(seconds)`` — declare compute time;
- service clients (blob store, Jiffy, …) charge I/O latency onto the
  context automatically when the handler passes them ``ctx``;
- ``spec.duration_model`` — optional base service time drawn per
  invocation (for workloads whose compute is not actually executed).

The platform executes the handler body atomically at invocation start and
schedules its completion ``accrued`` seconds later; the paper's stateless
FaaS semantics (no cross-invocation in-process state, bounded execution
time, transparent retry) are enforced on top of that.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import typing

__all__ = [
    "FunctionSpec",
    "InvocationContext",
    "InvocationRecord",
    "InvocationStatus",
    "FunctionTimeout",
    "journaled",
]


class FunctionTimeout(Exception):
    """Raised into/by the platform when an invocation exceeds its cap."""


class InvocationStatus(enum.Enum):
    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"
    THROTTLED = "throttled"


@dataclasses.dataclass
class FunctionSpec:
    """The unit of deployment on the FaaS platform.

    Parameters
    ----------
    name:
        Registry key; also the invoke target.
    handler:
        ``callable(event, ctx) -> response``.  Must be stateless across
        invocations — the platform gives no guarantee which sandbox runs it.
    memory_mb:
        Provisioned sandbox memory; drives billing and cold-start latency
        (as on Lambda, CPU share scales with memory).
    timeout_s:
        Execution-time cap; the paper notes providers limit functions to
        minutes (§4.1).
    duration_model:
        Optional ``callable(event, rng) -> seconds`` giving the base
        service time.  Defaults to zero, in which case all simulated time
        comes from ``ctx.charge``/service I/O.
    max_retries:
        Transparent re-execution attempts after ERROR/TIMEOUT (paper §4.1
        notes FaaS platforms re-execute functions on failure).
    cpu_demand:
        Cores consumed while executing; used for placement and contention.
    reserved_concurrency:
        Optional per-function cap on simultaneous executions (the
        Lambda-style reserved-concurrency knob); ``None`` means only the
        platform-wide limit applies.
    tenant:
        The owning account.  Multi-tenant placement policies (§6 security
        discussion) key co-residency decisions on this.
    """

    name: str
    handler: typing.Callable
    memory_mb: float = 256.0
    timeout_s: float = 300.0
    duration_model: typing.Optional[typing.Callable] = None
    max_retries: int = 0
    cpu_demand: float = 1.0
    reserved_concurrency: typing.Optional[int] = None
    tenant: str = "default"

    def __post_init__(self):
        if self.memory_mb <= 0:
            raise ValueError(f"{self.name}: memory_mb must be positive")
        if self.timeout_s <= 0:
            raise ValueError(f"{self.name}: timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError(f"{self.name}: max_retries must be >= 0")
        if self.reserved_concurrency is not None and self.reserved_concurrency <= 0:
            raise ValueError(f"{self.name}: reserved_concurrency must be positive")

    @property
    def memory_gb(self) -> float:
        return self.memory_mb / 1024.0


def journaled(ctx, label: str, fn):
    """Run ``fn`` through ``ctx.journal`` when the context carries one.

    The one route every effectful client takes with durable execution
    (``with_durability``) installed: the journal executes ``fn`` once
    and replays its recorded result on retried attempts.  Without a
    journal (or without a context) ``fn`` just runs.
    """
    journal = getattr(ctx, "journal", None)
    if journal is None:
        return fn()
    return journal.apply(ctx, label, fn)


class InvocationContext:
    """What a handler sees while it runs.

    Mirrors the context object of commercial FaaS platforms: identifiers,
    a remaining-time query, and (taureau-specific) explicit simulated-time
    accrual plus a bag of provider-wired service clients.
    """

    def __init__(
        self,
        invocation_id: str,
        function_name: str,
        timeout_s: float,
        start_time: float,
        services: typing.Optional[dict] = None,
        base_duration: float = 0.0,
        cold_start: bool = False,
        sandbox_id: str = "",
        tracer=None,
        span=None,
    ):
        self.invocation_id = invocation_id
        self.function_name = function_name
        self.timeout_s = timeout_s
        self.start_time = start_time
        self.services = services or {}
        #: True when this attempt runs in a freshly provisioned sandbox —
        #: handlers use it to model load-on-cold work (e.g. model weights).
        self.cold_start = cold_start
        #: Which sandbox this attempt runs in.  Stateless semantics mean
        #: handlers must not rely on it for correctness, but caching
        #: layers (Cloudburst-style) key their per-sandbox caches on it.
        self.sandbox_id = sandbox_id
        #: Tracing: the platform's tracer and this attempt's execution
        #: span (both ``None`` when tracing is off).  Service clients use
        #: :meth:`charge_io` to attach child spans; handlers propagate the
        #: trace downstream explicitly via :meth:`span_context`.
        self.tracer = tracer
        self.span = span
        #: Durable execution: the attempt's journal binding (an
        #: :class:`~taureau.durable.AttemptJournal`), installed by the
        #: platform when ``with_durability`` is on.  ``None`` keeps the
        #: bare at-least-once semantics.  Service clients and
        #: :meth:`effect` route mutations through it.
        self.journal = None
        self._span_stack: list = []
        self._accrued = base_duration

    @property
    def accrued_s(self) -> float:
        """Simulated seconds this invocation has consumed so far."""
        return self._accrued

    def charge(self, seconds: float) -> None:
        """Declare ``seconds`` of simulated compute time."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self._accrued += seconds

    def effect(self, key: str, fn):
        """Run ``fn`` exactly once across retries of this invocation.

        The user-facing idempotency primitive of the durable layer:
        the first attempt executes ``fn`` and journals its result under
        ``key``; a retried attempt replays the journaled result instead
        of calling ``fn`` again.  Without ``with_durability`` installed
        this degrades to a plain call — handlers written against
        ``ctx.effect`` keep working on an at-least-once platform, they
        just lose the dedup.
        """
        return journaled(self, f"effect:{key}", fn)

    # ------------------------------------------------------------------
    # Tracing: the handler-side half of the obs subsystem.  Simulated
    # time inside a handler is ``start_time + accrued``, so spans opened
    # here are positioned purely from accrual — deterministic, no wall
    # clock, replayable under the virtual clock.
    # ------------------------------------------------------------------

    @property
    def trace_id(self) -> typing.Optional[str]:
        return self.span.trace_id if self.span is not None else None

    def span_context(self):
        """The active span's portable context (or ``None``, untraced).

        Pass this explicitly on payloads/messages to stitch downstream
        work (Pulsar publishes, nested invokes) into the caller's trace.
        """
        active = self._span_stack[-1] if self._span_stack else self.span
        return active.context() if active is not None else None

    def charge_io(self, seconds: float, name: typing.Optional[str] = None,
                  **attributes) -> None:
        """Charge I/O time and record it as a child span when traced."""
        if self.tracer is None or self.span is None or name is None:
            self.charge(seconds)
            return
        start = self.start_time + self._accrued
        self.charge(seconds)
        parent = self._span_stack[-1] if self._span_stack else self.span
        self.tracer.record(
            name, parent=parent, start=start,
            end=self.start_time + self._accrued, **attributes,
        )

    @contextlib.contextmanager
    def trace_span(self, name: str, **attributes):
        """Group handler work under a named child span (no time charged).

        >>> with ctx.trace_span("preprocess"):
        ...     ctx.charge(0.010)
        """
        if self.tracer is None or self.span is None:
            yield None
            return
        parent = self._span_stack[-1] if self._span_stack else self.span
        span = self.tracer.start_span(
            name, parent=parent,
            start=self.start_time + self._accrued, **attributes,
        )
        self._span_stack.append(span)
        try:
            yield span
        finally:
            self._span_stack.pop()
            span.finish(self.start_time + self._accrued)

    def remaining_time_s(self) -> float:
        """Simulated seconds left before the platform kills this run."""
        return max(0.0, self.timeout_s - self._accrued)

    def service(self, name: str):
        """A provider-wired service client (blob store, jiffy, …)."""
        if name not in self.services:
            raise KeyError(
                f"service {name!r} not wired into the platform; available: "
                f"{sorted(self.services)}"
            )
        return self.services[name]


@dataclasses.dataclass
class InvocationRecord:
    """The full life-cycle record of one invocation."""

    invocation_id: str
    function_name: str
    payload: object
    arrival_time: float
    status: InvocationStatus = InvocationStatus.OK
    response: object = None
    error: typing.Optional[BaseException] = None
    start_time: float = 0.0
    end_time: float = 0.0
    cold_start: bool = False
    cold_start_latency_s: float = 0.0
    queue_delay_s: float = 0.0
    attempts: int = 1
    billed_duration_s: float = 0.0
    cost_usd: float = 0.0
    machine_id: str = ""
    #: The trace this invocation belongs to ("" when tracing is off).
    #: Carried on both the async event's record and the ``invoke_sync``
    #: return value — the two paths resolve to the same record object.
    trace_id: str = ""

    @property
    def execution_duration_s(self) -> float:
        """Sandbox-resident execution time (excludes queueing/cold start)."""
        return self.end_time - self.start_time

    @property
    def end_to_end_latency_s(self) -> float:
        """Client-visible latency from request arrival to completion."""
        return self.end_time - self.arrival_time

    @property
    def succeeded(self) -> bool:
        return self.status is InvocationStatus.OK
