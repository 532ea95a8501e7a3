"""Tests for windowed aggregation over Pulsar Functions."""

import pytest

from taureau.pulsar import (
    FunctionsRuntime,
    PulsarCluster,
    WindowedAggregator,
)
from taureau.sim import Simulation
from taureau.sketches import HyperLogLog


def make_stack():
    sim = Simulation(seed=0)
    cluster = PulsarCluster(sim, broker_count=2, bookie_count=3)
    cluster.create_topic("in")
    cluster.create_topic("out")
    runtime = FunctionsRuntime(cluster)
    results = []
    cluster.subscribe("out", "check", listener=lambda m, c: results.append(m.payload))
    return sim, cluster, runtime, results


def publish_at(sim, cluster, times_and_payloads):
    producer = cluster.producer("in")
    for when, payload in times_and_payloads:
        sim.schedule_at(when, producer.send, payload)


class TestTumblingWindows:
    def test_counts_per_window(self):
        sim, cluster, runtime, results = make_stack()
        WindowedAggregator(
            runtime, "counter", ["in"], "out", window_s=10.0
        )
        publish_at(sim, cluster, [(1.0, "a"), (2.0, "b"), (12.0, "c")])
        sim.run(until=25.0)
        assert [(r.window_start, r.value, r.count) for r in results] == [
            (0.0, 2, 2),
            (10.0, 1, 1),
        ]

    def test_custom_aggregate_sum(self):
        sim, cluster, runtime, results = make_stack()
        WindowedAggregator(
            runtime, "summer", ["in"], "out", window_s=10.0,
            initial=lambda: 0.0, add=lambda acc, x: acc + x,
        )
        publish_at(sim, cluster, [(1.0, 5.0), (3.0, 7.0)])
        sim.run(until=15.0)
        assert results[0].value == pytest.approx(12.0)

    def test_keyed_windows_emit_per_key(self):
        sim, cluster, runtime, results = make_stack()
        WindowedAggregator(
            runtime, "by-user", ["in"], "out", window_s=10.0,
            key_fn=lambda payload: payload["user"],
        )
        publish_at(sim, cluster, [
            (1.0, {"user": "alice"}),
            (2.0, {"user": "bob"}),
            (3.0, {"user": "alice"}),
        ])
        sim.run(until=15.0)
        counts = {r.key: r.count for r in results}
        assert counts == {"alice": 2, "bob": 1}

    def test_empty_windows_not_emitted(self):
        sim, cluster, runtime, results = make_stack()
        WindowedAggregator(runtime, "counter", ["in"], "out", window_s=5.0)
        publish_at(sim, cluster, [(1.0, "x"), (22.0, "y")])
        sim.run(until=30.0)
        assert len(results) == 2  # windows 0-5 and 20-25 only

    def test_sketch_as_aggregate(self):
        sim, cluster, runtime, results = make_stack()

        def add_to_hll(hll, payload):
            hll.add(payload)
            return hll

        WindowedAggregator(
            runtime, "distinct", ["in"], "out", window_s=10.0,
            initial=lambda: HyperLogLog(precision=10),
            add=add_to_hll,
            finalize=lambda hll: round(hll.cardinality()),
        )
        stream = [(0.5 + i * 0.01, f"user{i % 7}") for i in range(100)]
        publish_at(sim, cluster, stream)
        sim.run(until=15.0)
        assert results[0].value == 7


class TestSlidingWindows:
    def test_message_lands_in_overlapping_windows(self):
        sim, cluster, runtime, results = make_stack()
        WindowedAggregator(
            runtime, "slider", ["in"], "out", window_s=10.0, slide_s=5.0
        )
        publish_at(sim, cluster, [(7.0, "x")])
        sim.run(until=30.0)
        # t=7 falls in windows [0,10) and [5,15).
        assert sorted(r.window_start for r in results) == [0.0, 5.0]
        assert all(r.count == 1 for r in results)

    def test_validation(self):
        sim, cluster, runtime, __ = make_stack()
        with pytest.raises(ValueError):
            WindowedAggregator(runtime, "bad", ["in"], "out", window_s=0.0)
        with pytest.raises(ValueError):
            WindowedAggregator(
                runtime, "bad2", ["in"], "out", window_s=5.0, slide_s=10.0
            )


class TestBatchWindows:
    def test_add_many_aggregator_matches_scalar_counts(self):
        sim, cluster, runtime, results = make_stack()
        WindowedAggregator(
            runtime,
            "batch-counter",
            ["in"],
            "out",
            window_s=10.0,
            add_many=lambda acc, payloads: acc + len(payloads),
        )
        publish_at(sim, cluster, [(1.0, "a"), (1.0, "b"), (12.0, "c")])
        sim.run(until=25.0)
        assert [(r.window_start, r.value, r.count) for r in results] == [
            (0.0, 2, 2),
            (10.0, 1, 1),
        ]

    def test_sketch_add_many_as_batch_aggregate(self):
        from taureau.sketches import CountMinSketch

        sim, cluster, runtime, results = make_stack()

        def fold(sketch, payloads):
            sketch.add_many(payloads)
            return sketch

        WindowedAggregator(
            runtime,
            "window-cm",
            ["in"],
            "out",
            window_s=10.0,
            initial=lambda: CountMinSketch(width=256, depth=4),
            add_many=fold,
            finalize=lambda sketch: sketch.estimate("cat"),
        )
        publish_at(
            sim,
            cluster,
            [(1.0, "cat"), (1.0, "cat"), (1.0, "dog"), (12.0, "cat")],
        )
        sim.run(until=25.0)
        assert [(r.window_start, r.value) for r in results] == [
            (0.0, 2),
            (10.0, 1),
        ]

    def test_keyed_batch_windows_emit_per_key(self):
        sim, cluster, runtime, results = make_stack()
        WindowedAggregator(
            runtime,
            "keyed-batch",
            ["in"],
            "out",
            window_s=10.0,
            key_fn=lambda payload: payload[0],
            add_many=lambda acc, payloads: acc + len(payloads),
        )
        publish_at(
            sim, cluster, [(1.0, "x1"), (1.0, "x2"), (1.0, "y1")]
        )
        sim.run(until=15.0)
        assert sorted((r.key, r.value) for r in results) == [
            ("x", 2),
            ("y", 1),
        ]


class TestWindowOutputs:
    def test_unkeyed_windows_spread_over_output_partitions(self):
        sim = Simulation(seed=0)
        cluster = PulsarCluster(sim, broker_count=2, bookie_count=3)
        cluster.create_topic("in")
        cluster.create_topic("out", partitions=4)
        WindowedAggregator(
            FunctionsRuntime(cluster), "counter", ["in"], "out", window_s=10.0
        )
        delivered = []
        cluster.subscribe("out", "check",
                          listener=lambda m, c: delivered.append(m.topic))
        publish_at(sim, cluster, [(10.0 * index + 1.0, index)
                                  for index in range(8)])
        sim.run()
        assert delivered == [f"out-partition-{index % 4}" for index in range(8)]
