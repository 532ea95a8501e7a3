"""Unit tests for bookies and ledgers."""

import pytest

from taureau.pulsar import Bookie, EntryUnavailable, Ledger, LedgerClosed
from taureau.sim import Simulation


def make_ledger(bookie_count=3, write_quorum=2, ack_quorum=2):
    sim = Simulation(seed=0)
    bookies = [Bookie(sim) for _ in range(bookie_count)]
    return sim, bookies, Ledger(
        sim, bookies, write_quorum=write_quorum, ack_quorum=ack_quorum
    )


class TestLedger:
    def test_append_assigns_sequential_entry_ids(self):
        __, __, ledger = make_ledger()
        ids = [ledger.append(f"m{i}")[0] for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]
        assert len(ledger) == 5

    def test_append_replicates_to_write_quorum(self):
        __, bookies, ledger = make_ledger(bookie_count=3, write_quorum=2)
        ledger.append("m")
        holders = [b for b in bookies if b.holds(ledger.ledger_id, 0)]
        assert len(holders) == 2

    def test_closed_ledger_rejects_appends(self):
        __, __, ledger = make_ledger()
        ledger.append("m")
        ledger.close()
        with pytest.raises(LedgerClosed):
            ledger.append("again")
        # Reads still work after close (read-only mode).
        assert ledger.read(0) == "m"

    def test_ack_time_respects_quorum(self):
        sim, bookies, ledger = make_ledger(write_quorum=3, ack_quorum=2)
        __, ack_time = ledger.append("m")
        assert ack_time >= sim.now + bookies[0].append_latency_s

    def test_bookie_pipeline_admits_at_throughput_rate(self):
        sim = Simulation(seed=0)
        bookie = Bookie(sim, append_latency_s=0.002, max_throughput_eps=1000.0)
        single = Ledger(sim, [bookie], write_quorum=1, ack_quorum=1)
        __, first_ack = single.append("a")
        __, second_ack = single.append("b")
        # Latency stays 2 ms but admissions are spaced 1 ms apart.
        assert first_ack == pytest.approx(0.002)
        assert second_ack == pytest.approx(first_ack + 0.001)

    def test_quorum_validation(self):
        sim = Simulation()
        bookies = [Bookie(sim)]
        with pytest.raises(ValueError):
            Ledger(sim, bookies, write_quorum=2, ack_quorum=1)
        with pytest.raises(ValueError):
            Ledger(sim, bookies, write_quorum=1, ack_quorum=0)
        with pytest.raises(ValueError):
            Ledger(sim, [], write_quorum=1, ack_quorum=1)


class TestDurability:
    def test_entry_readable_while_one_replica_lives(self):
        __, bookies, ledger = make_ledger(bookie_count=3, write_quorum=2)
        ledger.append("precious")
        holders = [b for b in bookies if b.holds(ledger.ledger_id, 0)]
        holders[0].crash()
        assert ledger.read(0) == "precious"
        holders[1].crash()
        with pytest.raises(EntryUnavailable):
            ledger.read(0)

    def test_recovered_bookie_serves_reads_again(self):
        __, bookies, ledger = make_ledger(write_quorum=1, ack_quorum=1)
        ledger.append("m")
        holder = next(b for b in bookies if b.holds(ledger.ledger_id, 0))
        holder.crash()
        with pytest.raises(EntryUnavailable):
            ledger.read(0)
        holder.recover()
        assert ledger.read(0) == "m"

    def test_readable_entries_after_partial_failure(self):
        __, bookies, ledger = make_ledger(bookie_count=3, write_quorum=1, ack_quorum=1)
        for index in range(9):
            ledger.append(index)
        bookies[0].crash()
        readable = ledger.readable_entries()
        # Round-robin with write_quorum=1 puts 1/3 of entries on each
        # bookie; killing one loses exactly that third.
        assert len(readable) == 6

    def test_higher_replication_survives_more_failures(self):
        __, bookies, ledger = make_ledger(bookie_count=3, write_quorum=3, ack_quorum=2)
        for index in range(9):
            ledger.append(index)
        bookies[0].crash()
        bookies[1].crash()
        assert len(ledger.readable_entries()) == 9

    def test_crashed_bookie_does_not_ack(self):
        sim = Simulation(seed=0)
        bookie = Bookie(sim)
        bookie.crash()
        assert bookie.append_completion_time() == float("inf")
