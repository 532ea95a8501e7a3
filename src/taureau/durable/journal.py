"""The write-ahead invocation journal: effect logs that survive retries.

Le Taureau's "look forward" names exactly-once execution as the open
problem of the serverless landscape: platforms recover crashes by blind
re-execution, so every retry re-runs every BaaS write and re-publishes
every message.  The journal turns that retry into *replay*.  Each
logical invocation owns a :class:`JournalEntry` — an append-only log of
the side effects its handler issued, in order.  The first attempt
appends to the log as effects apply; a retried attempt walks the log
from the top and, for every effect already journaled, returns the
recorded result instead of re-issuing the mutation.  Only the suffix
the previous attempt never reached executes for real.

The serialized form mirrors :class:`~taureau.obs.record.RunArtifact`'s
conventions: a versioned, canonical-JSON document (sorted keys, compact
separators, trailing newline) so same-seed runs journal byte-identical
bytes, and a named :class:`JournalVersionError` (the analogue of
``ArtifactVersionError``) on schema skew instead of a silent
mis-parse.
"""

from __future__ import annotations

import itertools
import json
import typing

from taureau.obs.record import _jsonable

__all__ = [
    "JOURNAL_VERSION",
    "JournalVersionError",
    "JournalDivergenceError",
    "EffectRecord",
    "JournalEntry",
    "InvocationJournal",
]

#: Schema version stamped into (and checked out of) every journal.
JOURNAL_VERSION = 1


class JournalVersionError(ValueError):
    """A loaded journal was written by an incompatible schema version."""


class JournalDivergenceError(RuntimeError):
    """A replayed attempt issued a different effect sequence.

    The replay contract requires handlers to be deterministic: a retry
    must re-issue the same effects in the same order so the journal
    cursor lines up.  When attempt N+1 asks for effect ``label`` at a
    position where attempt N recorded something else, silently applying
    either would corrupt the exactly-once guarantee — so the journal
    fails loudly with the position and both labels.
    """


class EffectRecord:
    """One journaled side effect: its position, label, and result."""

    __slots__ = ("seq", "label", "result", "attempt", "executions")

    def __init__(self, seq: int, label: str, result, attempt: int):
        self.seq = seq
        self.label = label
        self.result = result
        #: Which attempt (1-based) executed the effect for real.
        self.attempt = attempt
        #: How many times the effect ran for real (exactly-once => 1).
        self.executions = 1

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "label": self.label,
            "result": _jsonable(self.result),
            "attempt": self.attempt,
            "executions": self.executions,
        }


class JournalEntry:
    """The durable record of one logical invocation.

    One entry spans every attempt of the invocation — platform retries,
    client-side resilience retries, and durable recoveries all share it,
    which is what makes the effect log a dedup key across re-executions.
    ``begin_attempt`` rewinds the replay cursor; effects then replay in
    recorded order until the log is exhausted, after which fresh effects
    append.
    """

    __slots__ = (
        "entry_id", "function_name", "effects", "cursor", "attempts",
        "recoveries", "billed_slices", "completed", "final_status",
        "last_error_kind", "invocation_ids", "journal",
    )

    def __init__(self, entry_id: str, function_name: str,
                 journal: "InvocationJournal"):
        self.entry_id = entry_id
        self.function_name = function_name
        #: The journal whose open count this entry's disposition feeds.
        self.journal = journal
        self.effects: typing.List[EffectRecord] = []
        #: Replay position of the attempt currently executing.
        self.cursor = 0
        self.attempts = 0
        #: Journal-driven re-dispatches after the retry budget ran out.
        self.recoveries = 0
        #: 100ms slices already paid for — later attempts only pay the
        #: delta beyond this high-water mark (no double billing).
        self.billed_slices = 0
        self.completed = False
        self.final_status: typing.Optional[str] = None
        #: Fault kind of the terminal error when a fault killed the
        #: entry for good (``None`` for clean or app-error endings).
        self.last_error_kind: typing.Optional[str] = None
        #: Every platform invocation id that executed under this entry.
        self.invocation_ids: typing.List[str] = []

    def begin_attempt(self) -> None:
        """Rewind the replay cursor for a fresh execution attempt.

        Also re-opens an entry a client-side resilience layer already
        finalized: each resilient attempt is a full platform invocation
        whose record concludes before the invoker decides to relaunch,
        so the entry's disposition is only settled once no layer
        re-drives it.
        """
        self.cursor = 0
        self.attempts += 1
        if self.completed:
            self.completed = False
            self.journal._open += 1
        self.final_status = None
        self.last_error_kind = None

    def peek(self) -> typing.Optional[EffectRecord]:
        """The journaled effect at the cursor, or ``None`` past the log."""
        if self.cursor < len(self.effects):
            return self.effects[self.cursor]
        return None

    def replay(self, label: str) -> EffectRecord:
        """Consume and return the journaled effect at the cursor.

        Raises :class:`JournalDivergenceError` when ``label`` does not
        match what the previous attempt recorded at this position.
        """
        record = self.effects[self.cursor]
        if record.label != label:
            raise JournalDivergenceError(
                f"invocation {self.entry_id} ({self.function_name}) "
                f"diverged at effect {self.cursor}: journal has "
                f"{record.label!r}, replay asked for {label!r}"
            )
        self.cursor += 1
        return record

    def append(self, label: str, result) -> EffectRecord:
        """Journal a freshly executed effect at the cursor."""
        record = EffectRecord(len(self.effects), label, result, self.attempts)
        self.effects.append(record)
        self.cursor = len(self.effects)
        return record

    def finalize(self, status: str, error_kind: typing.Optional[str] = None):
        """Mark the entry terminal (any disposition counts, not just OK)."""
        if not self.completed:
            self.completed = True
            self.journal._open -= 1
        self.final_status = status
        self.last_error_kind = error_kind

    def duplicate_executions(self) -> int:
        """Effect applications beyond the first (exactly-once => 0)."""
        return sum(record.executions - 1 for record in self.effects)

    def to_dict(self) -> dict:
        return {
            "function": self.function_name,
            "attempts": self.attempts,
            "recoveries": self.recoveries,
            "billed_slices": self.billed_slices,
            "completed": self.completed,
            "status": self.final_status,
            "error_kind": self.last_error_kind,
            "invocation_ids": list(self.invocation_ids),
            "effects": [record.to_dict() for record in self.effects],
        }


class InvocationJournal:
    """Every journal entry of a run, plus the canonical serialized form.

    Entries are keyed by a stable id: platform invocations mint
    ``je<N>`` ids in invocation order (deterministic under the seeded
    clock), and message-driven work supplies its own natural key (for
    Pulsar, ``pulsar:<function>:<message_id>``) so a redelivered message
    finds the entry its first delivery wrote.
    """

    def __init__(self):
        self.entries: typing.Dict[str, JournalEntry] = {}
        self._ids = itertools.count()
        #: Entries not yet completed, kept by the entries themselves.
        self._open = 0
        #: Scope-keyed orchestration checkpoints: completed DAG nodes
        #: and state-machine steps, ``{scope: {step: result}}``.
        self.checkpoints: typing.Dict[str, typing.Dict[str, typing.Any]] = {}

    def open(self, function_name: str) -> JournalEntry:
        """Mint a fresh entry for one logical platform invocation."""
        entry = JournalEntry(f"je{next(self._ids)}", function_name, self)
        self.entries[entry.entry_id] = entry
        self._open += 1
        return entry

    def open_keyed(self, key: str, function_name: str) -> JournalEntry:
        """The entry stored under ``key``, created on first use.

        This is the redelivery-dedup primitive: re-deliveries of the
        same message resolve to the same entry and replay its log.
        """
        entry = self.entries.get(key)
        if entry is None:
            entry = JournalEntry(key, function_name, self)
            self.entries[key] = entry
            self._open += 1
        return entry

    def open_count(self) -> int:
        """Entries that have not reached a terminal disposition."""
        return self._open

    def duplicate_executions(self) -> int:
        """Total effect applications beyond the first, across all entries."""
        return sum(
            entry.duplicate_executions() for entry in self.entries.values()
        )

    # -- canonical serialization (mirrors RunArtifact) ------------------

    @property
    def data(self) -> dict:
        return {
            "journal_version": JOURNAL_VERSION,
            "entries": {
                entry_id: entry.to_dict()
                for entry_id, entry in self.entries.items()
            },
            "checkpoints": {
                scope: {step: _jsonable(value) for step, value in steps.items()}
                for scope, steps in self.checkpoints.items()
            },
        }

    def to_json(self) -> str:
        """The canonical byte-stable encoding (sorted keys, no spaces)."""
        return json.dumps(
            self.data, sort_keys=True, separators=(",", ":")
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> dict:
        """The journal document parsed back, version-checked.

        Returns the plain data dict (a loaded journal is an inspection
        artifact, not a live replay source — replay state lives with
        the run that wrote it).  Raises :class:`JournalVersionError`
        when the document was written by a different schema version.
        """
        data = json.loads(text)
        version = (
            data.get("journal_version") if isinstance(data, dict) else None
        )
        if version != JOURNAL_VERSION:
            raise JournalVersionError(
                f"journal version {version!r} does not match this "
                f"reader's version {JOURNAL_VERSION}"
            )
        return data

    def save(self, path) -> None:
        """Write the journal to ``path`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> dict:
        """Read a journal document back from ``path`` (version-checked)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
