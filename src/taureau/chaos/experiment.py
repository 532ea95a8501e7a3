"""The chaos experiment harness: workload + fault plan + invariants.

A :class:`ChaosExperiment` runs a scenario on a fresh
:class:`taureau.Platform` under a :class:`~taureau.chaos.FaultPlan`
(optionally with a :class:`~taureau.chaos.ResiliencePolicy` installed),
then evaluates declared invariants — predicates over the finished
platform such as "every invocation reached a terminal state" or "no
acked message was lost".  Because everything runs on the virtual clock
off seeded rng streams, :meth:`ChaosExperiment.verify_determinism`
re-runs the *whole experiment* (faults included) and compares digests
byte-for-byte.

Invariants are callables ``invariant(platform) -> bool | (bool, str)``;
the callable's ``__name__`` labels the result.  Module-level invariants
cover the common contracts; experiments add their own.
"""

from __future__ import annotations

import dataclasses
import typing

from taureau.chaos.faults import FaultEvent, FaultPlan

__all__ = [
    "ChaosExperiment",
    "ExperimentReport",
    "InvariantResult",
    "all_invocations_terminated",
    "no_inflight_messages",
    "all_executions_terminated",
    "exactly_once_effects",
    "no_lost_acked_work",
    "no_double_billing",
]


# ----------------------------------------------------------------------
# Built-in invariants
# ----------------------------------------------------------------------

def all_invocations_terminated(app) -> typing.Tuple[bool, str]:
    """Every submitted FaaS invocation reached a terminal status."""
    total = app.faas.metrics.counter("invocations").value
    family = app.faas.metrics.labeled_counter(
        "invocations_by", ("function", "outcome")
    )
    finished = sum(child.value for _key, child in family.items())
    return finished == total, f"{finished:g}/{total:g} invocations terminal"


def no_inflight_messages(app) -> typing.Tuple[bool, str]:
    """No consumer holds a delivered Pulsar message it has not acked.

    The "no acked message lost" half is structural (acks only move
    cursors forward); what a crash can leak is *unacked in-flight*
    deliveries, which is exactly what this checks after redelivery.
    """
    runtime = app.pulsar
    if runtime is None:
        return True, "no pulsar cluster attached"
    unacked = 0
    for broker in runtime.cluster.brokers:
        for topic in broker.topics.values():
            for subscription in topic.subscriptions.values():
                for consumer in subscription.consumers:
                    unacked += len(consumer._unacked)
    return unacked == 0, f"{unacked} unacked in-flight messages"


def all_executions_terminated(app) -> typing.Tuple[bool, str]:
    """Every orchestration execution finished (succeeded or failed)."""
    registries = [
        registry for registry in app.registries()
        if getattr(registry, "namespace", None) == "orchestration"
    ]
    started = finished = 0.0
    for registry in registries:
        started += registry.counter("executions").value
        family = registry.labeled_counter("executions_by", ("outcome",))
        finished += sum(child.value for _key, child in family.items())
    return finished == started, f"{finished:g}/{started:g} executions terminal"


def exactly_once_effects(app) -> typing.Tuple[bool, str]:
    """No journaled side effect was applied more than once.

    The durable-execution contract: retries and recoveries replay the
    journal, so every effect position of every entry executed for real
    exactly once — and the replay cursor never ran past a log.  Passes
    vacuously (with a say-so) when durability is not installed.
    """
    manager = app.durable
    if manager is None:
        return True, "no durable layer installed"
    duplicates = manager.journal.duplicate_executions()
    overruns = sum(
        1 for entry in manager.journal.entries.values()
        if entry.cursor > len(entry.effects)
    )
    journaled = manager.metrics.counter("effects_journaled").value
    replayed = manager.metrics.counter("effects_replayed").value
    detail = (
        f"{journaled:g} effects journaled, {replayed:g} replayed, "
        f"{duplicates} duplicate applications"
    )
    return duplicates == 0 and overruns == 0, detail


def no_lost_acked_work(app) -> typing.Tuple[bool, str]:
    """Every journal entry settled, and no fault took work down with it.

    Checks the durable layer's liveness half: after the drain there is
    no entry still open (accepted work that silently vanished) and no
    entry whose terminal failure was fault-caused (an injected fault
    durable recovery failed to replay around).  Pulsar in-flight
    deliveries must be acked too, when a cluster is attached.
    """
    manager = app.durable
    if manager is None:
        return True, "no durable layer installed"
    open_entries = manager.journal.open_count()
    unrecovered = sum(
        1 for entry in manager.journal.entries.values()
        if entry.completed and entry.last_error_kind is not None
    )
    inflight_ok, inflight_detail = no_inflight_messages(app)
    detail = (
        f"{open_entries} open entries, {unrecovered} fault-failed, "
        f"{inflight_detail}"
    )
    return open_entries == 0 and unrecovered == 0 and inflight_ok, detail


def no_double_billing(app) -> typing.Tuple[bool, str]:
    """No 100ms billing slice was charged twice for the same work.

    The platform counts ``billing.double_billed_slices`` whenever a
    retried attempt re-bills ground an earlier attempt of the same
    logical invocation already paid for; with durability installed the
    journal's high-water-mark credit keeps the counter at zero.
    """
    metric = app.faas.metrics.find("billing.double_billed_slices")
    slices = metric.value if metric is not None else 0.0
    return slices == 0, f"{slices:g} double-billed slices"


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

@dataclasses.dataclass
class InvariantResult:
    name: str
    ok: bool
    detail: str = ""


@dataclasses.dataclass
class ExperimentReport:
    """What one :meth:`ChaosExperiment.run` produced."""

    platform: object
    invariants: typing.List[InvariantResult]
    fault_events: typing.List[FaultEvent]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.invariants)

    @property
    def failures(self) -> typing.List[InvariantResult]:
        return [result for result in self.invariants if not result.ok]

    def summary(self) -> str:
        lines = [
            f"faults injected: {len(self.fault_events)}",
        ]
        for result in self.invariants:
            marker = "PASS" if result.ok else "FAIL"
            lines.append(f"{marker} {result.name}: {result.detail}")
        return "\n".join(lines)


class ChaosExperiment:
    """One reproducible chaos run: scenario + plan + policy + invariants.

    ``scenario(platform)`` builds the workload (register functions,
    attach subsystems, invoke) exactly as for
    ``Platform.verify_determinism`` — all state created inside the
    call.  The harness installs the resilience policy first (so the
    scenario's invokes go through it), then the fault plan, then runs
    the scenario and drains the simulation.

    >>> experiment = ChaosExperiment(
    ...     scenario,
    ...     plan=FaultPlan().crash_sandbox(rate_hz=1.0, start_s=0, end_s=10),
    ...     seed=7,
    ...     invariants=[all_invocations_terminated],
    ... )
    >>> report = experiment.run()
    >>> assert report.ok, report.summary()
    """

    def __init__(
        self,
        scenario: typing.Callable,
        plan: typing.Optional[FaultPlan] = None,
        policy=None,
        seed: int = 0,
        until=None,
        invariants: typing.Sequence[typing.Callable] = (),
        platform_kwargs: typing.Optional[dict] = None,
        durability: bool = False,
    ):
        self.scenario = scenario
        self.plan = plan
        self.policy = policy
        self.seed = seed
        self.until = until
        self.invariants = list(invariants)
        self.platform_kwargs = dict(platform_kwargs or {})
        #: ``True`` installs the durable layer.
        self.durability = durability

    def _setup(self, app) -> None:
        if self.durability:
            app.with_durability()
        if self.policy is not None:
            app.with_resilience(self.policy)
        if self.plan is not None:
            app.with_chaos(self.plan)
        self.scenario(app)

    def _build(self):
        from taureau.facade import Platform

        return Platform(seed=self.seed, **self.platform_kwargs)

    def run(self) -> ExperimentReport:
        app = self._build()
        self._setup(app)
        app.run(until=self.until)
        results = [self._evaluate(invariant, app) for invariant in self.invariants]
        events = list(app.chaos.events) if app.chaos is not None else []
        return ExperimentReport(
            platform=app, invariants=results, fault_events=events
        )

    def verify_determinism(self, runs: int = 2):
        """Replay the whole experiment ``runs`` times and diff the bytes."""
        return self._build().verify_determinism(
            self._setup, until=self.until, runs=runs
        )

    @staticmethod
    def _evaluate(invariant, app) -> InvariantResult:
        name = getattr(invariant, "__name__", str(invariant))
        outcome = invariant(app)
        if isinstance(outcome, tuple):
            ok, detail = outcome
        else:
            ok, detail = bool(outcome), ""
        return InvariantResult(name=name, ok=bool(ok), detail=detail)
