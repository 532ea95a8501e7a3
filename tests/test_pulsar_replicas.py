"""Replica bookkeeping: the ledger's placement against a per-bookie oracle.

A ledger stripes each entry's write quorum over its ensemble by entry id
and records only the appends that found a chosen bookie down.  The
oracle below keeps what bookies used to keep instead: a set of
``(ledger_id, entry_id)`` per bookie, filled by every live append, with
write sets chosen by a round-robin counter.  Every read the ledger
answers must agree with it, through crashes, recoveries, tiered
offloads and appends made at t=inf (a never-acked quorum's retry).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taureau.baas import BlobStore
from taureau.pulsar import (
    Bookie,
    EntryUnavailable,
    Ledger,
    LedgerClosed,
    MessageId,
    TieredStorage,
)
from taureau.sim import Simulation


class OracleBookie:
    def __init__(self, sim, bookie):
        self.sim = sim
        self.latency_s = bookie.append_latency_s
        self.interval_s = bookie.admission_interval_s
        self.alive = True
        self.next_free = 0.0
        self.entries = set()

    def append(self, ledger_id, entry_id):
        if not self.alive:
            return math.inf
        start = max(self.sim.now, self.next_free)
        self.next_free = start + self.interval_s
        self.entries.add((ledger_id, entry_id))
        return start + self.latency_s

    def holds(self, ledger_id, entry_id):
        return self.alive and (ledger_id, entry_id) in self.entries


class OracleLedger:
    def __init__(self, ledger_id, ensemble, write_quorum, ack_quorum):
        self.ledger_id = ledger_id
        self.ensemble = ensemble
        self.write_quorum = write_quorum
        self.ack_quorum = ack_quorum
        self.closed = False
        self.entries = []  # (payload, write set)
        self.rotation = 0

    def append(self, payload):
        if self.closed:
            raise LedgerClosed(self.ledger_id)
        entry_id = len(self.entries)
        chosen = [self.ensemble[(self.rotation + offset) % len(self.ensemble)]
                  for offset in range(self.write_quorum)]
        self.rotation += 1
        completions = sorted(bookie.append(self.ledger_id, entry_id)
                             for bookie in chosen)
        self.entries.append((payload, chosen))
        return entry_id, completions[self.ack_quorum - 1]

    def read(self, entry_id):
        payload, chosen = self.entries[entry_id]
        if not any(bookie.holds(self.ledger_id, entry_id) for bookie in chosen):
            raise EntryUnavailable(entry_id)
        return payload

    def readable_entries(self):
        return [entry_id for entry_id, (__, chosen) in enumerate(self.entries)
                if any(bookie.holds(self.ledger_id, entry_id) for bookie in chosen)]

    def offload(self):
        for entry_id, (__, chosen) in enumerate(self.entries):
            for bookie in chosen:
                bookie.entries.discard((self.ledger_id, entry_id))


def outcome(read, entry_id):
    try:
        return "ok", read(entry_id)
    except (EntryUnavailable, IndexError) as exc:
        return type(exc).__name__


ops = st.lists(st.tuples(
    st.sampled_from(["append", "append", "append", "crash", "recover",
                     "close", "offload", "wait"]),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([0.0, 1e-5, 1e-3]),
), max_size=24)


@st.composite
def layouts(draw):
    """Bookie settings, then each ledger's ensemble and quorums."""
    bookies = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.002]),
                                      st.sampled_from([1_000.0, 50_000.0])),
                            min_size=3, max_size=5))
    ledgers = []
    for __ in range(draw(st.integers(min_value=1, max_value=3))):
        order = draw(st.permutations(range(len(bookies))))
        size = draw(st.integers(min_value=1, max_value=len(bookies)))
        write_quorum = draw(st.integers(min_value=1, max_value=size))
        ack_quorum = draw(st.integers(min_value=1, max_value=write_quorum))
        ledgers.append((order[:size], write_quorum, ack_quorum))
    return bookies, ledgers


@given(layout=layouts(), finite=ops, at_inf=ops)
@settings(max_examples=60, deadline=None)
def test_replica_reads_match_a_per_bookie_entry_set(layout, finite, at_inf):
    bookie_settings, ledger_settings = layout
    sim = Simulation(seed=0)
    bookies = [Bookie(sim, append_latency_s=latency, max_throughput_eps=eps)
               for latency, eps in bookie_settings]
    oracle_bookies = [OracleBookie(sim, bookie) for bookie in bookies]
    ledgers, oracles = [], []
    for ensemble, write_quorum, ack_quorum in ledger_settings:
        ledger = Ledger(sim, [bookies[i] for i in ensemble],
                        write_quorum=write_quorum, ack_quorum=ack_quorum)
        ledgers.append(ledger)
        oracles.append(OracleLedger(ledger.ledger_id,
                                    [oracle_bookies[i] for i in ensemble],
                                    write_quorum, ack_quorum))
    tiered = TieredStorage(sim, BlobStore(sim))
    appended = []

    def agree():
        for ledger, oracle in zip(ledgers, oracles):
            assert len(ledger) == len(oracle.entries)
            assert ledger.readable_entries() == oracle.readable_entries()
            for entry_id in range(-1, len(ledger) + 1):
                assert (outcome(ledger.read, entry_id)
                        == outcome(oracle.read, entry_id))
                assert ([bookie.holds(ledger.ledger_id, entry_id)
                         for bookie in bookies]
                        == [bookie.holds(ledger.ledger_id, entry_id)
                            for bookie in oracle_bookies])

    def apply(kind, index, __):
        if kind in ("crash", "recover"):
            bookie = index % len(bookies)
            getattr(bookies[bookie], kind)()
            oracle_bookies[bookie].alive = kind == "recover"
        elif kind == "append":
            ledger, oracle = ledgers[index % len(ledgers)], oracles[index % len(ledgers)]
            payload = len(appended)
            if oracle.closed:
                with pytest.raises(LedgerClosed):
                    ledger.append(payload)
                return
            result = ledger.append(payload)
            assert result == oracle.append(payload)
            appended.append(result)
        elif kind in ("close", "offload"):
            ledger, oracle = ledgers[index % len(ledgers)], oracles[index % len(ledgers)]
            ledger.close()
            oracle.closed = True
            if kind == "offload" and not tiered.is_offloaded(ledger):
                tiered.offload(ledger)
                oracle.offload()
        agree()

    when = 0.0
    for op in finite:
        when += op[2]
        sim.schedule_at(when, apply, *op)
    for op in at_inf:
        sim.schedule_at(math.inf, apply, *op)
    sim.run()
    agree()
    # A recovered bookie serves exactly the entries it stored while up.
    for bookie, oracle_bookie in zip(bookies, oracle_bookies):
        bookie.recover()
        oracle_bookie.alive = True
    agree()


def test_message_id_text_is_the_journal_key_format():
    # Durable per-message journal keys embed str(message_id).
    assert str(MessageId(3, 7)) == "MessageId(ledger_id=3, entry_id=7)"
    assert MessageId(3, 7) < MessageId(3, 8) < MessageId(4, 0)
