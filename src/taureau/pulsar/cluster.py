"""The Pulsar cluster: brokers + bookies + metadata, with partitioning.

Paper §4.3: "Pulsar supports partitioned topics in order to scale to
large data volumes ... each node in a Pulsar cluster runs its own
broker."  The cluster assigns topic partitions to brokers round-robin,
routes producers to the right broker, and reassigns a failed broker's
topics to survivors (brokers are stateless; ledgers survive).
"""

from __future__ import annotations

import itertools
import typing

from taureau.core.calibration import DEFAULT_CALIBRATION, Calibration
from taureau.pulsar.bookie import Bookie
from taureau.pulsar.broker import Broker
from taureau.pulsar.metadata import MetadataStore
from taureau.pulsar.topic import Consumer, SubscriptionType
from taureau.sim import AllOf, Event, Simulation, stable_hash

__all__ = ["Producer", "PulsarCluster"]


class Producer:
    """A client handle publishing to one (possibly partitioned) topic.

    Keyed messages route to a stable partition; unkeyed messages
    round-robin across partitions.
    """

    def __init__(self, cluster: "PulsarCluster", topic: str):
        self.cluster = cluster
        self.topic = topic
        self._rr = itertools.count()

    def send(
        self,
        payload: object,
        key: typing.Optional[str] = None,
        size_mb: float = 0.0,
        parent=None,
    ) -> Event:
        """Publish; the event fires with the persisted Message.

        ``parent`` (a span or span context) stitches the publish into an
        existing trace — e.g. a FaaS handler passes ``ctx.span_context()``.
        """
        partitions = self.cluster.partitions_of(self.topic)
        if key is not None:
            index = stable_hash(key) % len(partitions)
        else:
            index = next(self._rr) % len(partitions)
        partition_name = partitions[index]
        broker = self.cluster.broker_of(partition_name)
        return broker.publish(
            partition_name, payload, key=key, size_mb=size_mb, parent=parent
        )


class PulsarCluster:
    """Brokers, bookies and a metadata store behind one admin API."""

    def __init__(
        self,
        sim: Simulation,
        broker_count: int = 3,
        bookie_count: int = 3,
        write_quorum: int = 2,
        ack_quorum: int = 2,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        if broker_count <= 0 or bookie_count <= 0:
            raise ValueError("cluster needs at least one broker and one bookie")
        self.sim = sim
        self.calibration = calibration
        self.metadata = MetadataStore(sim, calibration)
        self.bookies = [
            Bookie(sim, append_latency_s=calibration.bookie_append_s)
            for _ in range(bookie_count)
        ]
        self.brokers = [
            Broker(
                sim,
                self.bookies,
                write_quorum=write_quorum,
                ack_quorum=ack_quorum,
                calibration=calibration,
            )
            for _ in range(broker_count)
        ]
        # Brokers are fixed after construction.
        self._brokers_by_id = {broker.broker_id: broker for broker in self.brokers}
        self._assignment_rr = itertools.count()

    # ------------------------------------------------------------------
    # Admin API
    # ------------------------------------------------------------------

    def create_topic(
        self,
        name: str,
        partitions: int = 1,
        retention_s: typing.Optional[float] = None,
    ) -> None:
        """Create a topic with ``partitions`` partitions spread over brokers.

        ``retention_s`` bounds the backlog available to late subscribers.
        """
        if partitions <= 0:
            raise ValueError("partitions must be positive")
        if self.metadata.exists(f"/topics/{name}"):
            raise ValueError(f"topic {name!r} already exists")
        partition_names = (
            [name]
            if partitions == 1
            else [f"{name}-partition-{index}" for index in range(partitions)]
        )
        for partition_name in partition_names:
            broker = self._next_live_broker()
            broker.own_topic(partition_name, retention_s=retention_s)
            self.metadata.put(f"/assignments/{partition_name}", broker.broker_id)
        self.metadata.put(f"/topics/{name}", partition_names)

    def partitions_of(self, name: str) -> list:
        return self.metadata.get(f"/topics/{name}")

    def broker_of(self, partition_name: str) -> Broker:
        return self._brokers_by_id[
            self.metadata.get(f"/assignments/{partition_name}")
        ]

    def topics(self) -> list:
        return [
            path.rsplit("/", 1)[1] for path in self.metadata.children("/topics")
        ]

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def producer(self, topic: str) -> Producer:
        if not self.metadata.exists(f"/topics/{topic}"):
            raise KeyError(f"topic {topic!r} does not exist")
        return Producer(self, topic)

    def subscribe(
        self,
        topic: str,
        subscription_name: str,
        sub_type: SubscriptionType = SubscriptionType.EXCLUSIVE,
        listener=None,
        replay_backlog: bool = False,
    ) -> list:
        """Attach one consumer per partition; returns the consumer list."""
        consumers = []
        for partition_name in self.partitions_of(topic):
            broker = self.broker_of(partition_name)
            consumers.append(
                broker.subscribe(
                    partition_name,
                    subscription_name,
                    sub_type,
                    listener=listener,
                    replay_backlog=replay_backlog,
                )
            )
        return consumers

    def publish_all(self, topic: str, payloads: typing.Iterable[object]) -> AllOf:
        """Convenience: publish every payload; fires when all are persisted."""
        producer = self.producer(topic)
        return self.sim.all_of([producer.send(payload) for payload in payloads])

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def fail_broker(self, broker: Broker) -> None:
        """Crash a broker and reassign its topics to live peers."""
        broker.crash()
        orphans = list(broker.topics)
        for partition_name in orphans:
            topic = broker.release_topic(partition_name)
            successor = self._next_live_broker()
            successor.adopt_topic(topic)
            self.metadata.put(
                f"/assignments/{partition_name}", successor.broker_id
            )

    def fail_bookie(self, bookie: Bookie) -> None:
        bookie.crash()

    def recover_broker(self, broker: Broker) -> None:
        """Bring a crashed broker back into assignment rotation.

        Topics that failed over stay where they landed (Pulsar reassigns
        on ownership change, not on recovery); the broker simply becomes
        eligible for new topics — the chaos plane's
        ``crash_broker(recover_after_s=...)`` uses this.
        """
        broker.recover()

    def recover_bookie(self, bookie: Bookie) -> None:
        """Bring a crashed bookie back into the write ensemble."""
        bookie.recover()

    def _next_live_broker(self) -> Broker:
        live = [broker for broker in self.brokers if broker.alive]
        if not live:
            raise RuntimeError("no live brokers remain")
        return live[next(self._assignment_rr) % len(live)]
