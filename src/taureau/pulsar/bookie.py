"""Bookies and ledgers — BookKeeper-style durable stream storage.

Paper §4.3: "A ledger is an append-only data structure with a single
writer that is assigned to multiple bookies, and their entries are
replicated to multiple bookie nodes.  The semantics of a ledger are very
simple: a process can create a ledger, append entries and close the
ledger.  After the ledger has been closed ... it can only be opened in
read-only mode."

The durability model: each entry is written to ``write_quorum`` bookies
and acknowledged once ``ack_quorum`` of them persist it.  An entry
remains readable while at least one bookie holding it is alive —
experiment E10 crashes bookies mid-stream and checks completeness per
replication factor.
"""

from __future__ import annotations

import itertools
import math
import typing

from taureau.sim import MetricRegistry, Simulation

__all__ = ["Bookie", "LedgerEntry", "Ledger", "LedgerClosed", "EntryUnavailable"]


class LedgerClosed(Exception):
    """Append to a closed ledger."""


class EntryUnavailable(Exception):
    """Every bookie holding the requested entry has crashed."""


class LedgerEntry:
    """One replicated record in a ledger."""

    __slots__ = ("entry_id", "payload", "size_mb", "bookies")

    def __init__(self, entry_id: int, payload: object, size_mb: float, bookies: list):
        self.entry_id = entry_id
        self.payload = payload
        self.size_mb = size_mb
        self.bookies = bookies  # the write ensemble for this entry


class Bookie:
    """A storage node persisting ledger entries.

    BookKeeper pipelines and group-commits appends, so per-entry
    *latency* (journal fsync) is much larger than the inverse of the
    sustainable *throughput*.  The model separates the two: each append
    completes ``append_latency_s`` after it enters the pipeline, and the
    pipeline admits one entry every ``1 / max_throughput_eps`` seconds.
    A crashed bookie loses nothing on disk in real BookKeeper but is
    unavailable for reads — which is what matters for delivery
    completeness, so crash is modelled as unavailability.
    """

    _ids = itertools.count()

    def __init__(
        self,
        sim: Simulation,
        append_latency_s: float = 0.002,
        max_throughput_eps: float = 50_000.0,
        bookie_id: typing.Optional[str] = None,
    ):
        if max_throughput_eps <= 0:
            raise ValueError("max_throughput_eps must be positive")
        # Clusters pass a per-cluster id so same-seed runs replay with
        # identical ids; the global counter is the standalone fallback.
        self.bookie_id = bookie_id or f"bk{next(Bookie._ids)}"
        self.sim = sim
        self.append_latency_s = append_latency_s
        self.admission_interval_s = 1.0 / max_throughput_eps
        self.alive = True
        self.metrics = MetricRegistry(namespace="pulsar.bookie")
        # Bound on the first live append and the first finite wait.
        self._appends = None
        self._admission_wait_s = None
        self._next_free = 0.0
        self._entries: set = set()  # (ledger_id, entry_id)

    def append_completion_time(self, ledger_id: int, entry_id: int) -> float:
        """Persist an entry; returns the simulated completion timestamp."""
        if not self.alive:
            return float("inf")
        start = max(self.sim.now, self._next_free)
        self._next_free = start + self.admission_interval_s
        self._entries.add((ledger_id, entry_id))
        if self._appends is None:
            self._appends = self.metrics.counter("appends")
        self._appends.add()
        # Admission wait: how long the entry queued behind the bookie's
        # throughput cap before its write slot opened.  (An append issued
        # at t=inf — a never-acked quorum's retry — has no meaningful wait.)
        wait = start - self.sim.now
        if math.isfinite(wait):
            if self._admission_wait_s is None:
                self._admission_wait_s = self.metrics.histogram("admission_wait_s")
            self._admission_wait_s.observe(wait)
        return start + self.append_latency_s

    def holds(self, ledger_id: int, entry_id: int) -> bool:
        return self.alive and (ledger_id, entry_id) in self._entries

    def crash(self) -> None:
        self.alive = False

    def recover(self) -> None:
        self.alive = True


class Ledger:
    """An append-only, replicated, single-writer log."""

    _ids = itertools.count()

    def __init__(
        self,
        sim: Simulation,
        bookies: typing.Sequence[Bookie],
        write_quorum: int = 2,
        ack_quorum: int = 2,
        ledger_id: typing.Optional[int] = None,
    ):
        if not bookies:
            raise ValueError("a ledger needs at least one bookie")
        if not 1 <= ack_quorum <= write_quorum <= len(bookies):
            raise ValueError(
                f"need 1 <= ack_quorum({ack_quorum}) <= write_quorum"
                f"({write_quorum}) <= ensemble({len(bookies)})"
            )
        self.ledger_id = ledger_id if ledger_id is not None else next(Ledger._ids)
        self.sim = sim
        self.ensemble = list(bookies)
        self.write_quorum = write_quorum
        self.ack_quorum = ack_quorum
        self.closed = False
        self.entries: list = []
        self._rotation = 0

    def append(self, payload: object, size_mb: float = 0.0) -> typing.Tuple[int, float]:
        """Append an entry; returns ``(entry_id, ack_time)``.

        The entry goes to ``write_quorum`` bookies chosen round-robin
        from the ensemble; the ack time is when the ``ack_quorum``-th
        replica has persisted it.
        """
        if self.closed:
            raise LedgerClosed(f"ledger {self.ledger_id} is closed")
        entry_id = len(self.entries)
        chosen = [
            self.ensemble[(self._rotation + offset) % len(self.ensemble)]
            for offset in range(self.write_quorum)
        ]
        self._rotation += 1
        completions = [
            bookie.append_completion_time(self.ledger_id, entry_id)
            for bookie in chosen
        ]
        completions.sort()
        ack_time = completions[self.ack_quorum - 1]
        self.entries.append(LedgerEntry(entry_id, payload, size_mb, chosen))
        return entry_id, ack_time

    def close(self) -> None:
        self.closed = True

    def read(self, entry_id: int) -> object:
        """Read one entry from any live replica."""
        entry = self.entries[entry_id]
        if not any(
            bookie.holds(self.ledger_id, entry_id) for bookie in entry.bookies
        ):
            raise EntryUnavailable(
                f"ledger {self.ledger_id} entry {entry_id}: all replicas down"
            )
        return entry.payload

    def readable_entries(self) -> list:
        """Ids of entries with at least one live replica, in order."""
        return [
            entry.entry_id
            for entry in self.entries
            if any(
                bookie.holds(self.ledger_id, entry.entry_id)
                for bookie in entry.bookies
            )
        ]

    def __len__(self) -> int:
        return len(self.entries)
