"""``taureau.durable`` — durable execution for the simulated platform.

Turns crash-retry from blind re-execution into journaled replay: a
write-ahead :class:`InvocationJournal` records every side effect an
invocation issues, retried attempts replay the journaled results
instead of re-issuing the mutations, the platform re-drives
fault-killed invocations past their retry budget (the manager decides
which, and how long to back off), billing credits already-paid 100ms
slices, and an orchestration :class:`Checkpointer` resumes failed
workflows from their last completed step.  Install with
``Platform.with_durability()``.
"""

from taureau.durable.checkpoint import Checkpointer, CheckpointScope
from taureau.durable.journal import (
    JOURNAL_VERSION,
    EffectRecord,
    InvocationJournal,
    JournalDivergenceError,
    JournalEntry,
    JournalVersionError,
)
from taureau.durable.manager import AttemptJournal, DurabilityManager

__all__ = [
    "JOURNAL_VERSION",
    "JournalVersionError",
    "JournalDivergenceError",
    "EffectRecord",
    "JournalEntry",
    "InvocationJournal",
    "DurabilityManager",
    "AttemptJournal",
    "Checkpointer",
    "CheckpointScope",
]
