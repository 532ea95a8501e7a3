"""Property-based tests (hypothesis) for Pulsar delivery guarantees."""

import collections
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from taureau.pulsar import PulsarCluster, SubscriptionType
from taureau.pulsar.broker import BrokerTopic
from taureau.sim import Simulation

# Publish plans: payload values with optional keys.
plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.one_of(st.none(), st.sampled_from(["k1", "k2", "k3"])),
    ),
    min_size=1,
    max_size=60,
)


def run_cluster(partitions, plan, subscriptions):
    """subscriptions: list of (name, type, consumer_count)."""
    sim = Simulation(seed=0)
    cluster = PulsarCluster(sim, broker_count=3, bookie_count=4)
    cluster.create_topic("t", partitions=partitions)
    received: dict = collections.defaultdict(list)
    for name, sub_type, consumer_count in subscriptions:
        for consumer_index in range(consumer_count):
            tag = f"{name}/{consumer_index}"
            for partition in cluster.partitions_of("t"):
                broker = cluster.broker_of(partition)
                broker.subscribe(
                    partition,
                    name,
                    sub_type,
                    listener=lambda m, c, t=tag: received[t].append(
                        (m.payload, m.key)
                    ),
                )
    producer = cluster.producer("t")
    for payload, key in plan:
        producer.send(payload, key=key)
    sim.run()
    return received


class TestDeliveryGuarantees:
    @given(plan=plans, partitions=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_exclusive_subscription_sees_every_message_once(self, plan, partitions):
        received = run_cluster(
            partitions, plan, [("solo", SubscriptionType.EXCLUSIVE, 1)]
        )
        delivered = received["solo/0"]
        assert sorted(p for p, __ in delivered) == sorted(p for p, __ in plan)

    @given(plan=plans)
    @settings(max_examples=40, deadline=None)
    def test_shared_subscription_partitions_the_stream(self, plan):
        received = run_cluster(
            1, plan, [("workers", SubscriptionType.SHARED, 3)]
        )
        merged = [
            payload
            for tag in ("workers/0", "workers/1", "workers/2")
            for payload, __ in received[tag]
        ]
        # Exactly once across the consumer group: no loss, no duplication.
        assert sorted(merged) == sorted(p for p, __ in plan)

    @given(plan=plans)
    @settings(max_examples=40, deadline=None)
    def test_independent_subscriptions_each_get_everything(self, plan):
        received = run_cluster(
            2,
            plan,
            [
                ("a", SubscriptionType.EXCLUSIVE, 1),
                ("b", SubscriptionType.FAILOVER, 2),
            ],
        )
        expected = sorted(p for p, __ in plan)
        assert sorted(p for p, __ in received["a/0"]) == expected
        b_merged = [
            payload
            for tag in ("b/0", "b/1")
            for payload, __ in received[tag]
        ]
        assert sorted(b_merged) == expected

    @given(plan=plans)
    @settings(max_examples=30, deadline=None)
    def test_key_shared_consistency(self, plan):
        received = run_cluster(
            1, plan, [("ks", SubscriptionType.KEY_SHARED, 3)]
        )
        owner_of_key: dict = {}
        for tag, messages in received.items():
            for __, key in messages:
                if key is None:
                    continue
                assert owner_of_key.setdefault(key, tag) == tag

    @given(plan=plans, partitions=st.integers(min_value=2, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_keyed_messages_route_to_stable_partitions(self, plan, partitions):
        sim = Simulation(seed=0)
        cluster = PulsarCluster(sim, broker_count=3, bookie_count=4)
        cluster.create_topic("t", partitions=partitions)
        producer = cluster.producer("t")
        events = [producer.send(p, key=k) for p, k in plan if k is not None]
        sim.run()
        partition_of: dict = {}
        for event in events:
            message = event.value
            assert (
                partition_of.setdefault(message.key, message.topic)
                == message.topic
            )


class TestBacklogPrune:
    """``BrokerTopic.prune_backlog`` against the full rebuild it skips.

    The backlog is in ack order, which a failover makes differ from
    publish order, so the acks below carry publish times in any order.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.booleans(), st.integers(0, 80)), max_size=60),
        retention_s=st.one_of(st.none(), st.integers(0, 20)),
    )
    def test_prune_matches_the_full_rebuild(self, steps, retention_s):
        topic = BrokerTopic("t", ledger=None, retention_s=retention_s)
        oracle = []
        for is_ack, half_seconds in steps:
            instant = half_seconds / 2
            if is_ack:
                message = types.SimpleNamespace(publish_time=instant)
                topic.retain(message)
                oracle.append(message)
                continue
            before = topic.backlog
            dropped = topic.prune_backlog(instant)
            if retention_s is not None:
                cutoff = instant - retention_s
                kept = [m for m in oracle if m.publish_time >= cutoff]
                assert dropped == len(oracle) - len(kept)
                oracle = kept
            assert [id(m) for m in topic.backlog] == [id(m) for m in oracle]
            if not dropped:
                assert topic.backlog is before

    def test_a_message_published_at_the_cutoff_stays(self):
        topic = BrokerTopic("t", ledger=None, retention_s=10.0)
        for publish_time in (7.0, 5.0, 6.0):
            topic.retain(types.SimpleNamespace(publish_time=publish_time))
        backlog = topic.backlog
        assert topic.prune_backlog(15.0) == 0
        assert topic.backlog is backlog
        assert topic.prune_backlog(16.5) == 2
        assert [m.publish_time for m in topic.backlog] == [7.0]
