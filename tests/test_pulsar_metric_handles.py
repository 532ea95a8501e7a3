"""The Pulsar message path's metric handles are invisible in output.

Brokers, bookies, the metadata store, the functions runtime and the
windowed aggregator bind the metrics they record per message once
instead of looking them up by name on every message.  Each metric must
still come into being exactly when its first sample is recorded, so
every registry's ``snapshot()`` keys, their order and their values match
a lookup-per-message cluster.  The pinned lists below are the output of
that lookup-per-message cluster on one seeded scenario.
"""

import collections
import math
import types

import pytest

from taureau.pulsar import (
    FunctionsRuntime,
    PulsarCluster,
    PulsarFunction,
    WindowedAggregator,
)
from taureau.sim import Simulation


def scenario():
    """Keyed and unkeyed sends through a 3-broker, 3-bookie cluster.

    Topic owners (assignment is round-robin): ``audit`` (retention 0)
    on broker0; ``orders`` partitions 0-2 on broker1, broker2, broker0;
    ``clicks`` partitions 0-1 on broker1, broker2; ``dark`` on broker0.
    A bookie outage makes some acks land at t=inf.  broker1 then fails
    while acks are in flight, handing ``orders-partition-0`` to broker2
    and ``clicks-partition-0`` to broker0.
    """
    sim = Simulation(seed=17)
    cluster = PulsarCluster(
        sim, broker_count=3, bookie_count=3, write_quorum=2, ack_quorum=2
    )
    runtime = FunctionsRuntime(cluster)
    cluster.create_topic("audit", retention_s=0.0)
    cluster.create_topic("orders", partitions=3)
    cluster.create_topic("clicks", partitions=2)
    cluster.create_topic("dark")
    orders_seen, batches = [], []

    def record(payload, ctx):
        orders_seen.append(payload)
        if len(orders_seen) == 1:
            raise RuntimeError("the first message fails")

    def tally(payloads, ctx):
        batches.append(list(payloads))
        if len(batches) == 1:
            raise RuntimeError("the first batch fails")
        if "poison" in payloads:
            raise ValueError("poison message")
        return None

    # No output topics: function outputs are outside this scenario.
    runtime.deploy(PulsarFunction(
        name="record", process=record, input_topics=["orders"],
    ))
    runtime.deploy(PulsarFunction(
        name="tally", process_batch=tally, input_topics=["clicks"],
        max_redeliveries=1,
    ))
    audit, orders, clicks, dark = (
        cluster.producer(name) for name in ("audit", "orders", "clicks", "dark")
    )
    sent = []  # every publish's completion event, in send order

    def send(producer, payload, **kwargs):
        sent.append(producer.send(payload, **kwargs))

    # broker0's first ack is on the retention-0 topic, so its first
    # metric is backlog_expired.
    send(audit, "boot", size_mb=0.5)
    sim.run(until=0.01)
    for index in range(6):
        send(orders, index, key=f"user{index % 4}", size_mb=0.25)
        send(orders, -index, size_mb=0.5)
        send(clicks, f"click{index}", key=f"user{index % 3}")
        send(audit, f"audit{index}")
    send(clicks, "poison")  # dead-lettered; there is no DLQ topic
    sim.run(until=1.0)

    # Bookie outage: every entry whose write quorum includes bk1 acks
    # at t=inf.  dark's first two entries both do, so broker0 counts
    # them but never observes a persist latency for dark.
    cluster.fail_bookie(cluster.bookies[1])
    send(dark, "d0")
    send(dark, "d1")
    for index in range(4):
        send(orders, 100 + index, key=f"user{index}", size_mb=0.125)
        send(clicks, f"outage{index}")
    sim.run(until=2.0)
    cluster.recover_bookie(cluster.bookies[1])

    # Broker failover while acks are in flight.
    for index in range(6):
        send(orders, 200 + index)
    for index in range(4):
        send(clicks, f"flight{index}")
    sim.run(until=sim.now + 0.0035)
    failed = cluster.brokers[1]
    split = len(sent)
    in_flight = [event for event in sent if not event.triggered]
    cluster.fail_broker(failed)
    for index in range(6):
        send(orders, 300 + index, key=f"user{index % 4}")
    for index in range(4):
        send(clicks, f"adopted{index}")
    sim.run()
    return types.SimpleNamespace(
        cluster=cluster, runtime=runtime, failed=failed,
        before=sent[:split], after=sent[split:], in_flight=in_flight,
    )


def pairs(registry) -> list:
    return list(registry.snapshot().items())


def per_partition(events) -> collections.Counter:
    return collections.Counter(event.value.topic for event in events)


# ``snapshot()`` of :func:`scenario`'s registries, as (key, value) pairs.
BROKER0 = [
    ("pulsar.backlog_expired", 7.0),
    ("pulsar.messages_persisted", 25.0),
    ("pulsar.bytes_persisted_mb", 2.75),
    ('pulsar.messages_by{topic="audit"}', 7.0),
    ('pulsar.messages_by{topic="clicks-partition-0"}', 2.0),
    ('pulsar.messages_by{topic="dark"}', 2.0),
    ('pulsar.messages_by{topic="orders-partition-2"}', 14.0),
    ('pulsar.bytes_by{topic="audit"}', 0.5),
    ('pulsar.bytes_by{topic="clicks-partition-0"}', 0.0),
    ('pulsar.bytes_by{topic="dark"}', 0.0),
    ('pulsar.bytes_by{topic="orders-partition-2"}', 2.25),
    ('pulsar.persist_latency_by{topic="audit"}',
     {"count": 7, "mean": 0.0020057142857142843,
      "p50": 0.0020199999999999992, "p99": 0.0020199999999999992}),
    ('pulsar.persist_latency_by{topic="clicks-partition-0"}',
     {"count": 2, "mean": 0.0019999999999997797,
      "p50": 0.0019999999999997797, "p99": 0.0019999999999997797}),
    ('pulsar.persist_latency_by{topic="orders-partition-2"}',
     {"count": 12, "mean": 0.0020066666666666,
      "p50": 0.0020368498627845307, "p99": 0.0020400000000000418}),
]
BROKER1 = [
    ("pulsar.messages_persisted", 17.0),
    ("pulsar.bytes_persisted_mb", 1.75),
    ('pulsar.messages_by{topic="clicks-partition-0"}', 9.0),
    ('pulsar.messages_by{topic="orders-partition-0"}', 8.0),
    ('pulsar.bytes_by{topic="clicks-partition-0"}', 0.0),
    ('pulsar.bytes_by{topic="orders-partition-0"}', 1.75),
    ('pulsar.persist_latency_by{topic="clicks-partition-0"}',
     {"count": 8, "mean": 0.0020174999999999542,
      "p50": 0.0020368498627845307, "p99": 0.0020399999999998197}),
    ('pulsar.persist_latency_by{topic="orders-partition-0"}',
     {"count": 7, "mean": 0.002014285714285638,
      "p50": 0.0020199999999999992, "p99": 0.0020199999999999992}),
]
BROKER2 = [
    ("pulsar.messages_persisted", 14.0),
    ("pulsar.bytes_persisted_mb", 1.0),
    ('pulsar.messages_by{topic="clicks-partition-1"}', 8.0),
    ('pulsar.messages_by{topic="orders-partition-0"}', 2.0),
    ('pulsar.messages_by{topic="orders-partition-1"}', 4.0),
    ('pulsar.bytes_by{topic="clicks-partition-1"}', 0.0),
    ('pulsar.bytes_by{topic="orders-partition-0"}', 0.0),
    ('pulsar.bytes_by{topic="orders-partition-1"}', 1.0),
    ('pulsar.persist_latency_by{topic="clicks-partition-1"}',
     {"count": 7, "mean": 0.002014285714285575,
      "p50": 0.0020368498627845307, "p99": 0.0020399999999999984}),
    ('pulsar.persist_latency_by{topic="orders-partition-0"}',
     {"count": 2, "mean": 0.0019999999999997797,
      "p50": 0.0019999999999997797, "p99": 0.0019999999999997797}),
    ('pulsar.persist_latency_by{topic="orders-partition-1"}',
     {"count": 4, "mean": 0.0020299999999999546,
      "p50": 0.0020368498627845307, "p99": 0.0020399999999999984}),
]
BOOKIES = [
    [
        ("pulsar.bookie.appends", 36.0),
        ("pulsar.bookie.admission_wait_s",
         {"count": 36, "mean": 8.888888888896815e-06,
          "p50": 0.0, "p99": 4.000000000026205e-05}),
    ],
    [
        ("pulsar.bookie.appends", 35.0),
        ("pulsar.bookie.admission_wait_s",
         {"count": 35, "mean": 9.142857142871838e-06,
          "p50": 0.0, "p99": 4.000000000026205e-05}),
    ],
    [
        ("pulsar.bookie.appends", 34.0),
        ("pulsar.bookie.admission_wait_s",
         {"count": 34, "mean": 7.647058823531549e-06,
          "p50": 0.0, "p99": 3.999999999999837e-05}),
    ],
]
METADATA = [
    ("pulsar.metadata.operations", 140.0),
]
FUNCTIONS = [
    ("pulsar.functions.record.process_errors", 1.0),
    ("pulsar.functions.record.processed", 28.0),
    ("pulsar.functions.tally.process_errors", 4.0),
    ("pulsar.functions.tally.processed", 18.0),
    ("pulsar.functions.tally.batches", 10.0),
    ("pulsar.functions.tally.dead_lettered", 1.0),
    ('pulsar.functions.dead_letters_by{function="tally"}', 1.0),
]


class TestSnapshotsUnchanged:
    def test_broker_snapshots_are_pinned(self):
        brokers = scenario().cluster.brokers
        assert pairs(brokers[0].metrics) == BROKER0
        assert pairs(brokers[1].metrics) == BROKER1
        assert pairs(brokers[2].metrics) == BROKER2

    def test_bookie_snapshots_are_pinned(self):
        bookies = scenario().cluster.bookies
        assert [pairs(bookie.metrics) for bookie in bookies] == BOOKIES

    def test_metadata_and_functions_snapshots_are_pinned(self):
        run = scenario()
        assert pairs(run.cluster.metadata.metrics) == METADATA
        assert pairs(run.runtime.metrics) == FUNCTIONS

    def test_the_retention_topic_creates_backlog_expired_first(self):
        broker0 = scenario().cluster.brokers[0]
        assert next(iter(broker0.metrics.snapshot())) == "pulsar.backlog_expired"


class TestFailover:
    @pytest.mark.parametrize("partition, successor", [
        ("orders-partition-0", 2), ("clicks-partition-0", 0),
    ])
    def test_acks_count_on_the_broker_that_scheduled_them(
        self, partition, successor
    ):
        run = scenario()
        assert run.cluster.broker_of(partition) is run.cluster.brokers[successor]
        assert per_partition(run.in_flight)[partition] > 0

        def messages_by(broker):
            return broker.metrics.snapshot().get(
                f'pulsar.messages_by{{topic="{partition}"}}')

        # Acks scheduled before the failover, in flight ones included,
        # count on the failed broker; later messages on the successor.
        assert messages_by(run.failed) == per_partition(run.before)[partition]
        assert messages_by(run.cluster.brokers[successor]) == (
            per_partition(run.after)[partition]
        )


class TestNeverAckedEntries:
    def test_an_ack_at_inf_creates_no_persist_latency_metric(self):
        sim = Simulation(seed=0)
        cluster = PulsarCluster(
            sim, broker_count=1, bookie_count=2, write_quorum=2, ack_quorum=2
        )
        cluster.create_topic("t")
        cluster.fail_bookie(cluster.bookies[0])
        cluster.producer("t").send("x")
        sim.run()
        assert sim.now == math.inf
        assert pairs(cluster.brokers[0].metrics) == [
            ("pulsar.messages_persisted", 1.0),
            ("pulsar.bytes_persisted_mb", 0.0),
            ('pulsar.messages_by{topic="t"}', 1.0),
            ('pulsar.bytes_by{topic="t"}', 0.0),
        ]
        assert pairs(cluster.bookies[0].metrics) == []
        assert pairs(cluster.bookies[1].metrics) == [
            ("pulsar.bookie.appends", 1.0),
            ("pulsar.bookie.admission_wait_s",
             {"count": 1, "mean": 0.0, "p50": 0.0, "p99": 0.0}),
        ]


def aggregate(add_many, events=30):
    """Keyed sliding windows over a 2-partition topic."""
    sim = Simulation(seed=5)
    cluster = PulsarCluster(sim, broker_count=2, bookie_count=3)
    cluster.create_topic("views", partitions=2)
    cluster.create_topic("per-window")
    aggregator = WindowedAggregator(
        FunctionsRuntime(cluster), "views", ["views"], "per-window",
        window_s=10.0, slide_s=5.0, key_fn=lambda payload: payload[0],
        add_many=add_many,
    )
    producer = cluster.producer("views")
    for index in range(events):
        sim.schedule_at(index * 0.7, producer.send, (f"page{index % 3}", index))
    sim.run()
    return aggregator


class TestAggregatorMetrics:
    @pytest.mark.parametrize(
        "add_many", [None, lambda acc, group: acc + len(group)],
        ids=["per_message", "add_many"],
    )
    def test_snapshot_is_pinned(self, add_many):
        assert pairs(aggregate(add_many).metrics) == [
            ("messages", 30.0), ("windows_emitted", 13.0),
        ]

    def test_no_message_creates_no_metric(self):
        assert pairs(aggregate(lambda acc, group: acc, events=0).metrics) == []
