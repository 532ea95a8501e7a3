"""Tests for Pulsar tiered storage and geo-replication."""

import pytest

from taureau.baas import BlobStore
from taureau.core import InvocationContext
from taureau.pulsar import (
    Bookie,
    GeoReplicator,
    Ledger,
    PulsarCluster,
    TieredStorage,
    unwrap,
)
from taureau.sim import Simulation


class TestTieredStorage:
    def make(self):
        sim = Simulation(seed=0)
        bookies = [Bookie(sim) for __ in range(3)]
        ledger = Ledger(sim, bookies, write_quorum=2, ack_quorum=2)
        for index in range(10):
            ledger.append(f"m{index}", size_mb=0.5)
        tiered = TieredStorage(sim, BlobStore(sim))
        return sim, bookies, ledger, tiered

    def test_offload_requires_sealed_ledger(self):
        __, __, ledger, tiered = self.make()
        with pytest.raises(ValueError, match="still open"):
            tiered.offload(ledger)

    def test_offload_moves_bytes_and_frees_bookies(self):
        __, bookies, ledger, tiered = self.make()
        ledger.close()
        moved = tiered.offload(ledger)
        assert moved == pytest.approx(5.0)  # 10 entries x 0.5 MB
        assert all(not b.holds(ledger.ledger_id, 0) for b in bookies)
        assert tiered.is_offloaded(ledger)

    def test_double_offload_rejected(self):
        __, __, ledger, tiered = self.make()
        ledger.close()
        tiered.offload(ledger)
        with pytest.raises(ValueError, match="already offloaded"):
            tiered.offload(ledger)

    def test_reads_survive_offload(self):
        __, __, ledger, tiered = self.make()
        before = tiered.read_all(ledger)
        ledger.close()
        tiered.offload(ledger)
        after = tiered.read_all(ledger)
        assert before == after == [f"m{i}" for i in range(10)]
        assert tiered.metrics.counter("hot_reads").value == 10
        assert tiered.metrics.counter("cold_reads").value == 10

    def test_cold_reads_charge_blob_latency(self):
        __, __, ledger, tiered = self.make()
        ledger.close()
        tiered.offload(ledger)
        ctx = InvocationContext("i", "f", 300.0, 0.0)
        tiered.read(ledger, 0, ctx=ctx)
        assert ctx.accrued_s >= tiered.blob.calibration.blob_base_latency_s

    def test_offload_survives_bookie_crashes(self):
        """The point of tiering: blob durability outlives bookies."""
        __, bookies, ledger, tiered = self.make()
        ledger.close()
        tiered.offload(ledger)
        for bookie in bookies:
            bookie.crash()
        assert tiered.read(ledger, 7) == "m7"


class TestGeoReplication:
    def make_pair(self):
        sim = Simulation(seed=0)
        east = PulsarCluster(sim, broker_count=2, bookie_count=3)
        west = PulsarCluster(sim, broker_count=2, bookie_count=3)
        for cluster in (east, west):
            cluster.create_topic("orders")
        return sim, east, west

    def test_one_way_replication_delivers_after_wan_latency(self):
        sim, east, west = self.make_pair()
        GeoReplicator(sim, east, west, "orders", "us-east", "us-west",
                      wan_latency_s=0.08)
        received = []
        west.subscribe(
            "orders", "app",
            listener=lambda m, c: received.append((sim.now, unwrap(m.payload))),
        )
        east.producer("orders").send({"order": 1})
        sim.run()
        assert [payload for __, payload in received] == [{"order": 1}]
        assert received[0][0] > 0.08

    def test_bidirectional_replication_does_not_loop(self):
        sim, east, west = self.make_pair()
        GeoReplicator(sim, east, west, "orders", "us-east", "us-west")
        west_to_east = GeoReplicator(sim, west, east, "orders", "us-west",
                                     "us-east")
        east_seen, west_seen = [], []
        east.subscribe("orders", "app",
                       listener=lambda m, c: east_seen.append(unwrap(m.payload)))
        west.subscribe("orders", "app",
                       listener=lambda m, c: west_seen.append(unwrap(m.payload)))
        east.producer("orders").send("from-east")
        west.producer("orders").send("from-west")
        sim.run()
        assert sorted(east_seen) == ["from-east", "from-west"]
        assert sorted(west_seen) == ["from-east", "from-west"]
        assert west_to_east.metrics.counter("loops_suppressed").value >= 1

    def test_replication_preserves_keys(self):
        sim, east, west = self.make_pair()
        GeoReplicator(sim, east, west, "orders", "us-east", "us-west")
        keys = []
        west.subscribe("orders", "app", listener=lambda m, c: keys.append(m.key))
        east.producer("orders").send("x", key="customer-42")
        sim.run()
        assert keys == ["customer-42"]

    def test_unkeyed_messages_spread_over_destination_partitions(self):
        sim = Simulation(seed=0)
        east = PulsarCluster(sim, broker_count=2, bookie_count=3)
        west = PulsarCluster(sim, broker_count=2, bookie_count=3)
        east.create_topic("orders")
        west.create_topic("orders", partitions=4)
        GeoReplicator(sim, east, west, "orders", "us-east", "us-west")
        delivered = []
        west.subscribe("orders", "app",
                       listener=lambda m, c: delivered.append(m.topic))
        east.publish_all("orders", range(8))
        sim.run()
        assert delivered == [f"orders-partition-{index % 4}"
                             for index in range(8)]

    def test_negative_latency_rejected(self):
        sim, east, west = self.make_pair()
        with pytest.raises(ValueError):
            GeoReplicator(sim, east, west, "orders", "a", "b", wan_latency_s=-1)
