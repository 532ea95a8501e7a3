"""Geo-replication between Pulsar clusters.

Paper §4.3 lists "support for geo-replication" among Pulsar's key
features.  A :class:`GeoReplicator` attaches a replication subscription
to a topic on the source cluster and republishes each message to the
same-named topic on the destination cluster after a WAN latency.
Replicated messages carry their origin region so bidirectional
replication does not loop.
"""

from __future__ import annotations

import dataclasses
import typing

from taureau.pulsar.cluster import PulsarCluster
from taureau.pulsar.topic import Message, SubscriptionType
from taureau.sim import MetricRegistry, Simulation

__all__ = ["ReplicatedPayload", "GeoReplicator"]


@dataclasses.dataclass(frozen=True)
class ReplicatedPayload:
    """A payload wrapped with its origin region."""

    origin: str
    payload: object


class GeoReplicator:
    """One-way topic replication between two clusters.

    Build two (with swapped arguments) for active-active replication;
    the origin tag breaks the loop.
    """

    def __init__(
        self,
        sim: Simulation,
        source: PulsarCluster,
        destination: PulsarCluster,
        topic: str,
        source_region: str,
        destination_region: str,
        wan_latency_s: float = 0.08,
    ):
        if wan_latency_s < 0:
            raise ValueError("wan_latency_s must be nonnegative")
        self.sim = sim
        self.source = source
        self.destination = destination
        self.topic = topic
        self.source_region = source_region
        self.destination_region = destination_region
        self.wan_latency_s = wan_latency_s
        self.metrics = MetricRegistry()
        self._producer = None  # created at the first replicated publish
        source.subscribe(
            topic,
            subscription_name=f"geo-{destination_region}",
            sub_type=SubscriptionType.SHARED,
            listener=self._on_message,
        )

    def _on_message(self, message: Message, consumer) -> None:
        consumer.ack(message)
        payload = message.payload
        if isinstance(payload, ReplicatedPayload):
            if payload.origin == self.destination_region:
                # The destination already has this message; do not loop.
                self.metrics.counter("loops_suppressed").add()
                return
            wrapped = payload
        else:
            wrapped = ReplicatedPayload(self.source_region, payload)
        self.metrics.counter("replicated").add()
        self.sim.schedule_after(self.wan_latency_s, self._publish, wrapped,
                                message.key)

    def _publish(self, wrapped: ReplicatedPayload, key) -> None:
        # One producer, so unkeyed messages round-robin over partitions.
        if self._producer is None:
            self._producer = self.destination.producer(self.topic)
        self._producer.send(wrapped, key=key)


def unwrap(payload: object) -> object:
    """The application payload regardless of replication wrapping."""
    if isinstance(payload, ReplicatedPayload):
        return payload.payload
    return payload
