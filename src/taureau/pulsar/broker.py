"""The Pulsar broker — the stateless serving layer of Figure 1.

Paper §4.3: "The Pulsar broker is a stateless component and is tasked
with receiving and dispatching messages while using bookie as durable
storage for messages until they are consumed."

A broker serializes message handling (one dispatcher pipeline), appends
each message to the owning topic's current ledger, and — once the
bookie ack-quorum confirms — fans the message out to every
subscription.  Because all state lives in ledgers and the metadata
store, a crashed broker's topics can be reassigned to a peer without
losing anything: the new broker simply closes the old ledger and opens
a fresh one (single-writer semantics).
"""

from __future__ import annotations

import math
import typing

from taureau.core.calibration import DEFAULT_CALIBRATION, Calibration
from taureau.pulsar.bookie import Bookie, Ledger
from taureau.pulsar.topic import (
    Consumer,
    Message,
    MessageId,
    Subscription,
    SubscriptionType,
)
from taureau.sim import Event, MetricRegistry, Simulation

__all__ = ["BrokerTopic", "Broker"]


class BrokerTopic:
    """A (partition of a) topic as managed by its owning broker.

    ``retention_s`` bounds how long persisted messages stay available for
    late subscribers ("until they are consumed", plus a grace window, per
    §4.3); ``None`` retains forever.
    """

    def __init__(self, name: str, ledger: Ledger,
                 retention_s: typing.Optional[float] = None):
        if retention_s is not None and retention_s < 0:
            raise ValueError("retention_s must be nonnegative")
        self.name = name
        self.ledgers: list = [ledger]
        self.backlog: list = []  # persisted Messages, in ack order
        self.subscriptions: typing.Dict[str, Subscription] = {}
        self.retention_s = retention_s

    def prune_backlog(self, now: float) -> int:
        """Drop persisted messages older than the retention window."""
        if self.retention_s is None:
            return 0
        cutoff = now - self.retention_s
        kept = [m for m in self.backlog if m.publish_time >= cutoff]
        dropped = len(self.backlog) - len(kept)
        self.backlog = kept
        return dropped

    @property
    def current_ledger(self) -> Ledger:
        return self.ledgers[-1]

    def rotate_ledger(self, new_ledger: Ledger) -> None:
        self.current_ledger.close()
        self.ledgers.append(new_ledger)


class _TopicMetrics:
    """One topic's per-message metric handles on the broker acking it."""

    __slots__ = ("messages", "bytes", "persist_latency")

    def __init__(self, registry: MetricRegistry, topic: str):
        self.messages = registry.labeled_counter(
            "messages_by", ("topic",)).labels(topic=topic)
        self.bytes = registry.labeled_counter(
            "bytes_by", ("topic",)).labels(topic=topic)
        #: Bound at the topic's first finite persist latency.
        self.persist_latency = None


class Broker:
    """Receives, persists and dispatches messages for its topics."""

    def __init__(
        self,
        sim: Simulation,
        bookies: typing.Sequence[Bookie],
        write_quorum: int = 2,
        ack_quorum: int = 2,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.broker_id = f"broker{next(sim.ids('broker'))}"
        self.sim = sim
        self.bookies = list(bookies)
        self.write_quorum = min(write_quorum, len(self.bookies))
        self.ack_quorum = min(ack_quorum, self.write_quorum)
        self.calibration = calibration
        self.alive = True
        self.topics: typing.Dict[str, BrokerTopic] = {}
        self.metrics = MetricRegistry(namespace="pulsar")
        # Bound on the first ack, where a per-message lookup would first
        # have created these metrics.
        self._messages_persisted = None
        self._bytes_persisted_mb = None
        #: Topic name -> the handles this broker records that topic's
        #: acks into.  Kept here, not on BrokerTopic: after a failover the
        #: acks this broker already scheduled still count in its registry.
        self._topic_metrics: typing.Dict[str, _TopicMetrics] = {}
        self._next_free = 0.0

    # ------------------------------------------------------------------
    # Topic ownership
    # ------------------------------------------------------------------

    def own_topic(self, name: str,
                  retention_s: typing.Optional[float] = None) -> BrokerTopic:
        if name in self.topics:
            raise ValueError(f"{self.broker_id} already owns {name!r}")
        topic = BrokerTopic(name, self._new_ledger(), retention_s=retention_s)
        self.topics[name] = topic
        return topic

    def adopt_topic(self, topic: BrokerTopic) -> None:
        """Take over a topic from a failed peer (stateless hand-off)."""
        topic.rotate_ledger(self._new_ledger())
        self.topics[topic.name] = topic

    def release_topic(self, name: str) -> BrokerTopic:
        return self.topics.pop(name)

    def _new_ledger(self) -> Ledger:
        return Ledger(
            self.sim,
            self.bookies,
            write_quorum=self.write_quorum,
            ack_quorum=self.ack_quorum,
        )

    # ------------------------------------------------------------------
    # Publish path
    # ------------------------------------------------------------------

    def publish(
        self,
        topic_name: str,
        payload: object,
        key: typing.Optional[str] = None,
        size_mb: float = 0.0,
        parent=None,
    ) -> Event:
        """Receive → persist → dispatch; the event fires with the Message.

        The broker pipeline is serial: a publish waits for the broker to
        be free (``dispatch`` latency each), which is what makes
        partitioned topics spread across brokers scale throughput (E9).

        When a tracer is installed the publish records a span tree
        (``pulsar.publish`` → ``pulsar.persist`` / ``pulsar.dispatch``)
        and stamps the publish span's context on the persisted
        :class:`Message`, so consumers continue the trace.  ``parent``
        stitches the publish into the producer's existing trace.
        """
        if not self.alive:
            raise RuntimeError(f"{self.broker_id} is down")
        topic = self._topic(topic_name)
        done = self.sim.event()
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.start_span(
                f"pulsar.publish.{topic_name}",
                parent=parent,
                broker=self.broker_id,
                size_mb=size_mb,
            )
        start = max(self.sim.now, self._next_free)
        self._next_free = start + self.calibration.broker_dispatch_s
        self.sim.schedule_at(
            self._next_free, self._persist, topic, payload, key, size_mb, done, span
        )
        return done

    def _persist(self, topic, payload, key, size_mb, done: Event, span=None) -> None:
        entry_id, ack_time = topic.current_ledger.append(payload, size_mb)
        message = Message(
            message_id=MessageId(topic.current_ledger.ledger_id, entry_id),
            topic=topic.name,
            payload=payload,
            key=key,
            size_mb=size_mb,
            publish_time=self.sim.now,
            trace=span.context() if span is not None else None,
        )
        if span is not None:
            self.sim.tracer.record(
                "pulsar.persist",
                parent=span,
                start=self.sim.now,
                end=max(ack_time, self.sim.now),
                ledger=topic.current_ledger.ledger_id,
                entry=entry_id,
            )
        self.sim.schedule_at(
            max(ack_time, self.sim.now), self._acked, topic, message, done, span
        )

    def _acked(self, topic: BrokerTopic, message: Message, done: Event,
               span=None) -> None:
        topic.backlog.append(message)
        dropped = topic.prune_backlog(self.sim.now)
        if dropped:
            # By name: rare, and on a retention-0 topic this is created
            # before messages_persisted.
            self.metrics.counter("backlog_expired").add(dropped)
        handles = self._topic_metrics.get(topic.name)
        if handles is None:
            if self._messages_persisted is None:
                self._messages_persisted = self.metrics.counter("messages_persisted")
                self._bytes_persisted_mb = self.metrics.counter("bytes_persisted_mb")
            handles = _TopicMetrics(self.metrics, topic.name)
            self._topic_metrics[topic.name] = handles
        self._messages_persisted.add()
        self._bytes_persisted_mb.add(message.size_mb)
        handles.messages.add()
        handles.bytes.add(message.size_mb)
        persist_latency = self.sim.now - message.publish_time
        if math.isfinite(persist_latency):
            # A crashed-quorum append acks at t=inf; that is "never", not
            # a latency sample, so it must not create the metric either.
            if handles.persist_latency is None:
                handles.persist_latency = self.metrics.labeled_histogram(
                    "persist_latency_by", ("topic",)
                ).labels(topic=topic.name)
            handles.persist_latency.observe(persist_latency)
        for subscription in topic.subscriptions.values():
            if span is not None:
                self.sim.tracer.record(
                    "pulsar.dispatch",
                    parent=span,
                    start=self.sim.now,
                    end=self.sim.now + subscription.dispatch_latency_s,
                    subscription=subscription.name,
                )
            subscription.dispatch(message)
        if span is not None:
            span.finish(self.sim.now)
        done.succeed(message)

    # ------------------------------------------------------------------
    # Subscribe path
    # ------------------------------------------------------------------

    def subscribe(
        self,
        topic_name: str,
        subscription_name: str,
        sub_type: SubscriptionType = SubscriptionType.EXCLUSIVE,
        listener=None,
        replay_backlog: bool = False,
    ) -> Consumer:
        """Attach a consumer; optionally replay already-persisted messages."""
        topic = self._topic(topic_name)
        subscription = topic.subscriptions.get(subscription_name)
        if subscription is None:
            subscription = Subscription(
                self.sim,
                topic_name,
                subscription_name,
                sub_type,
                dispatch_latency_s=self.calibration.broker_dispatch_s,
            )
            topic.subscriptions[subscription_name] = subscription
        elif subscription.sub_type is not sub_type:
            raise ValueError(
                f"subscription {subscription_name!r} already exists with type "
                f"{subscription.sub_type.value}"
            )
        consumer = Consumer(self.sim, subscription, listener=listener)
        subscription.add_consumer(consumer)
        if replay_backlog:
            topic.prune_backlog(self.sim.now)
            for message in topic.backlog:
                subscription.dispatch(message)
        return consumer

    # ------------------------------------------------------------------

    def crash(self) -> None:
        self.alive = False

    def recover(self) -> None:
        """Bring the broker back; it rejoins topic-assignment rotation."""
        self.alive = True

    def _topic(self, name: str) -> BrokerTopic:
        if name not in self.topics:
            raise KeyError(f"{self.broker_id} does not own topic {name!r}")
        return self.topics[name]
