"""Tiered storage: offload sealed ledgers to cheap blob storage.

Paper §4.3 lists "tiered storage" among Pulsar's key features: hot
data stays on bookies for low-latency reads while sealed (closed)
ledgers are offloaded to an object store, freeing bookie capacity at
the cost of slower historical reads.  :class:`TieredStorage` implements
exactly that life-cycle over taureau's :class:`~taureau.baas.BlobStore`.
"""

from __future__ import annotations

import typing

from taureau.baas.blobstore import BlobStore
from taureau.pulsar.bookie import EntryUnavailable, Ledger
from taureau.sim import MetricRegistry, Simulation

__all__ = ["TieredStorage"]


class TieredStorage:
    """Moves sealed ledgers from bookies to an object store."""

    def __init__(self, sim: Simulation, blob: BlobStore):
        self.sim = sim
        self.blob = blob
        self.metrics = MetricRegistry()
        self._offloaded: set = set()  # ledger ids

    def offload(self, ledger: Ledger) -> float:
        """Offload a sealed ledger; returns the MB moved to the blob tier.

        Every entry is copied to the object store, then the ledger is
        dropped from its bookies (freeing bookie memory); subsequent
        reads go through :meth:`read` and pay blob latency.
        """
        if not ledger.closed:
            raise ValueError(
                f"ledger {ledger.ledger_id} is still open; only sealed "
                "ledgers can be offloaded"
            )
        if ledger.ledger_id in self._offloaded:
            raise ValueError(f"ledger {ledger.ledger_id} already offloaded")
        moved_mb = 0.0
        for entry in ledger.entries:
            self.blob.put(
                self._key(ledger.ledger_id, entry.entry_id),
                entry.payload,
                size_mb=entry.size_mb,
            )
            moved_mb += entry.size_mb
        ledger.drop_from_bookies()
        self._offloaded.add(ledger.ledger_id)
        self.metrics.counter("ledgers_offloaded").add()
        self.metrics.counter("mb_offloaded").add(moved_mb)
        return moved_mb

    def is_offloaded(self, ledger: Ledger) -> bool:
        return ledger.ledger_id in self._offloaded

    def read(self, ledger: Ledger, entry_id: int, ctx=None) -> object:
        """Read an entry from whichever tier holds it.

        Hot reads come from bookies at memory-class cost; offloaded reads
        come from the blob tier and charge blob latency onto ``ctx``.
        """
        if ledger.ledger_id in self._offloaded:
            self.metrics.counter("cold_reads").add()
            return self.blob.get(self._key(ledger.ledger_id, entry_id), ctx=ctx)
        try:
            payload = ledger.read(entry_id)
        except EntryUnavailable:
            raise
        self.metrics.counter("hot_reads").add()
        return payload

    def read_all(self, ledger: Ledger, ctx=None) -> list:
        """Every entry of a ledger, in order, from the owning tier."""
        return [
            self.read(ledger, entry.entry_id, ctx=ctx) for entry in ledger.entries
        ]

    @staticmethod
    def _key(ledger_id: int, entry_id: int) -> str:
        return f"pulsar/offload/ledger-{ledger_id}/entry-{entry_id}"
