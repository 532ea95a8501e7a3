"""The durability manager: replay, recovery, and billing dedup policy.

The manager is the run-time face of the journal.  It owns the single
:class:`~taureau.durable.journal.InvocationJournal` of the platform,
applies effects through it (journal on first execution, replay on
retries), classifies which exhausted invocations the platform re-drives
from the journal, and credits already-billed 100ms slices so a
recovered invocation is paid for once.  Everything is charged on the
virtual clock — a journaled append costs :data:`JOURNAL_WRITE_S` of
invocation time, a replayed read :data:`JOURNAL_READ_S` — so the
durable layer shows up honestly in latency and billing, and identically
in same-seed replays.
"""

from __future__ import annotations

import math

from taureau.chaos.faults import FaultInjected
from taureau.chaos.policies import RetryPolicy
from taureau.durable.checkpoint import Checkpointer
from taureau.durable.journal import InvocationJournal, JournalEntry
from taureau.sim.metrics import MetricRegistry

__all__ = [
    "JOURNAL_WRITE_S", "JOURNAL_READ_S", "RECOVERY",
    "DurabilityManager", "AttemptJournal",
]

# The journal latencies model a local write-ahead log append (write) and
# an in-memory log cursor read (replay); both accrue on the invocation
# like any other I/O, so the overhead is visible — and small — on the
# no-fault path.

#: Virtual seconds charged per freshly journaled effect.
JOURNAL_WRITE_S = 0.0002
#: Virtual seconds charged per replayed effect.
JOURNAL_READ_S = 0.0001
#: Journal-driven re-dispatches per logical invocation once its
#: ``max_retries`` budget is spent (fault-caused failures only — handler
#: bugs are never re-driven), each after exponential backoff so the
#: budget outlives a fault window instead of burning out inside it.
RECOVERY = RetryPolicy(max_attempts=8, base_delay_s=0.5, multiplier=2.0,
                       max_delay_s=math.inf, jitter=0.0)


class AttemptJournal:
    """The per-attempt handle handlers see as ``ctx.journal``.

    Binds one :class:`JournalEntry` to the manager so effectful clients
    (KV, blob, DB, notifications, Pulsar publishes) and the user-facing
    ``ctx.effect`` can route mutations through the journal without
    holding a reference to the durability subsystem themselves.
    """

    __slots__ = ("manager", "entry")

    def __init__(self, manager: "DurabilityManager", entry: JournalEntry):
        self.manager = manager
        self.entry = entry

    def apply(self, ctx, label: str, fn):
        return self.manager.apply(ctx, self.entry, label, fn)


class DurabilityManager:
    """Journal, replay cursor, recovery policy, and their metrics."""

    def __init__(self):
        self.journal = InvocationJournal()
        self.checkpointer = Checkpointer(self)
        self.metrics = MetricRegistry(namespace="durable")
        # Created eagerly so dashboards and recorder lanes carry the
        # full durable family even before the first effect lands.
        for name in (
            "entries_opened", "effects_journaled", "effects_replayed",
            "recoveries", "recoveries_exhausted", "billing_credit_slices",
            "messages_deduped", "checkpoint_hits", "checkpoint_writes",
        ):
            self.metrics.counter(name)
        # Handles for the counters recorded per entry and per effect.
        self._entries_opened = self.metrics.counter("entries_opened")
        self._effects_journaled = self.metrics.counter("effects_journaled")
        self._effects_replayed = self.metrics.counter("effects_replayed")
        # Re-entrancy latch: an effect executing under the journal may
        # itself call journaled client methods (counter_add -> put,
        # db.put -> commit); the outer apply is the atomic unit, inner
        # calls run raw.
        self._applying = False

    # -- entry lifecycle ------------------------------------------------

    def open_entry(self, function_name: str) -> JournalEntry:
        """A fresh journal entry for one logical platform invocation."""
        self._entries_opened.add()
        return self.journal.open(function_name)

    def message_entry(self, function_name: str, key: str) -> JournalEntry:
        """The stable entry for one message delivery (redelivery-safe)."""
        entry = self.journal.entries.get(key)
        if entry is None:
            self._entries_opened.add()
            entry = self.journal.open_keyed(key, function_name)
        return entry

    def binding(self, entry: JournalEntry) -> AttemptJournal:
        return AttemptJournal(self, entry)

    def finalize(self, entry: JournalEntry, status: str, error=None) -> None:
        """Record the entry's terminal disposition.

        Re-enterable: a resilience-retried entry is finalized once per
        platform-level record, and re-opened by the next attempt's
        ``begin_attempt`` — the last finalize wins.
        """
        kind = error.kind if isinstance(error, FaultInjected) else None
        entry.finalize(status, kind)

    # -- the effect path ------------------------------------------------

    def apply(self, ctx, entry: JournalEntry, label: str, fn):
        """Execute ``fn`` exactly once for this entry's effect position.

        First execution runs ``fn``, journals its result, and charges
        the journal-append latency.  A retried attempt whose cursor
        still points into the log replays the recorded result instead —
        the mutation (and any chaos guard inside it) never re-runs.  A
        nested call from inside a journaled effect runs raw: the outer
        effect is the atomic replay unit.
        """
        if self._applying:
            return fn()
        record = entry.peek()
        if record is not None:
            replayed = entry.replay(label)
            self._effects_replayed.add()
            self._charge(ctx, JOURNAL_READ_S, "durable.replay", label)
            return replayed.result
        self._applying = True
        try:
            result = fn()
        finally:
            self._applying = False
        entry.append(label, result)
        self._effects_journaled.add()
        self._charge(ctx, JOURNAL_WRITE_S, "durable.journal", label)
        return result

    @staticmethod
    def _charge(ctx, latency: float, op: str, label: str) -> None:
        charge = getattr(ctx, "charge_io", None)
        if charge is not None and latency > 0:
            charge(latency, op, effect=label)

    # -- recovery and billing -------------------------------------------

    def should_recover(self, entry: JournalEntry, error) -> bool:
        """Whether a failed, budget-exhausted attempt gets re-driven.

        Only fault-injected failures qualify — the journal can replay
        around infrastructure crashes, but a deterministic handler bug
        would fail identically forever.
        """
        if not isinstance(error, FaultInjected):
            return False
        if entry.recoveries >= RECOVERY.max_attempts:
            self.metrics.counter("recoveries_exhausted").add()
            return False
        entry.recoveries += 1
        self.metrics.counter("recoveries").add()
        self.metrics.labeled_counter("recoveries_by", ("kind",)).add(
            kind=error.kind
        )
        return True

    def recovery_delay(self, entry: JournalEntry) -> float:
        """Backoff before the entry's next recovery re-dispatch."""
        return RECOVERY.backoff_s(max(0, entry.recoveries - 1), None)

    def billable_slices(self, entry: JournalEntry, slices: int) -> int:
        """How many of ``slices`` to bill, crediting slices already paid.

        Billing per logical invocation is the high-water mark over its
        attempts, never the sum: a replayed attempt re-covers ground the
        user already paid for, so only the delta beyond the mark bills.
        """
        prior = entry.billed_slices
        billable = max(0, slices - prior)
        credited = slices - billable
        if credited:
            self.metrics.counter("billing_credit_slices").add(credited)
        entry.billed_slices = max(prior, slices)
        return billable

    # -- export ---------------------------------------------------------

    def summary(self) -> dict:
        """The ``dashboard()["durable"]`` document (JSON-able, stable)."""
        counters = {
            name: int(self.metrics.counter(name).value)
            for name in (
                "entries_opened", "effects_journaled", "effects_replayed",
                "recoveries", "recoveries_exhausted",
                "billing_credit_slices", "messages_deduped",
                "checkpoint_hits", "checkpoint_writes",
            )
        }
        counters["entries_open"] = self.journal.open_count()
        counters["entries_completed"] = (
            len(self.journal.entries) - self.journal.open_count()
        )
        counters["duplicate_effect_executions"] = (
            self.journal.duplicate_executions()
        )
        counters["journal_bytes"] = len(self.journal.to_json())
        return counters
