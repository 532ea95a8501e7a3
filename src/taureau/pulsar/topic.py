"""Topics, subscriptions and consumers.

Paper §4.3: "Pulsar generalizes the traditional messaging models —
queuing and publish-subscribe — through one unified messaging API."
The unification lives in the subscription type:

- ``EXCLUSIVE``/``FAILOVER`` subscriptions give pub-sub semantics (every
  subscription sees every message);
- ``SHARED``/``KEY_SHARED`` subscriptions give queuing semantics
  (messages are spread across the subscription's consumers).
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import typing

from taureau.sim import Event, Simulation, stable_hash

__all__ = ["SubscriptionType", "MessageId", "Message", "Consumer", "Subscription"]


class SubscriptionType(enum.Enum):
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    FAILOVER = "failover"
    KEY_SHARED = "key_shared"


class MessageId(typing.NamedTuple):
    """A message's position: ordered by ledger, then by entry."""

    ledger_id: int
    entry_id: int


@dataclasses.dataclass
class Message:
    """A persisted message as consumers see it."""

    __slots__ = ("message_id", "topic", "payload", "key", "size_mb",
                 "publish_time", "trace")

    message_id: MessageId
    topic: str
    payload: object
    key: typing.Optional[str]
    size_mb: float
    publish_time: float
    #: Explicit trace propagation: the publish span's context rides on
    #: the message, so consumers parent their work onto the producer's
    #: trace.  ``None`` when the publish was untraced.
    trace: typing.Optional[object]


class Consumer:
    """A subscriber endpoint: an inbox plus optional push listener."""

    def __init__(
        self,
        sim: Simulation,
        subscription: "Subscription",
        listener: typing.Optional[typing.Callable[[Message, "Consumer"], None]] = None,
    ):
        self.consumer_id = f"c{next(sim.ids('c'))}"
        self.sim = sim
        self.subscription = subscription
        self.listener = listener
        self.connected = True
        self._inbox: collections.deque = collections.deque()
        self._waiters: collections.deque = collections.deque()
        self._unacked: dict = {}

    # -- receiving ----------------------------------------------------------

    def receive(self) -> Event:
        """An event that fires with the next message for this consumer."""
        done = self.sim.event()
        if self._inbox:
            done.succeed(self._inbox.popleft())
        else:
            self._waiters.append(done)
        return done

    def drain(self) -> list:
        """All currently buffered messages (non-blocking)."""
        messages = list(self._inbox)
        self._inbox.clear()
        return messages

    @property
    def pending(self) -> int:
        return len(self._inbox)

    def _deliver(self, message: Message) -> None:
        if not self.connected:
            # Late delivery to a closed consumer: bounce back for redelivery.
            self.subscription._redeliver(message)
            return
        self._unacked[message.message_id] = message
        if self.listener is not None:
            self.listener(message, self)
        elif self._waiters:
            self._waiters.popleft().succeed(message)
        else:
            self._inbox.append(message)

    # -- acknowledgement -----------------------------------------------------

    def ack(self, message: Message) -> None:
        if message.message_id not in self._unacked:
            raise ValueError(f"{message.message_id} is not pending on this consumer")
        del self._unacked[message.message_id]
        self.subscription._on_ack(message)

    def nack(self, message: Message) -> None:
        """Reject: the subscription redelivers (possibly elsewhere)."""
        if message.message_id not in self._unacked:
            raise ValueError(f"{message.message_id} is not pending on this consumer")
        del self._unacked[message.message_id]
        self.subscription._redeliver(message)

    def close(self) -> None:
        """Disconnect; unacked and buffered messages are redelivered."""
        if not self.connected:
            return
        self.connected = False
        pending = list(self._unacked.values())
        self._unacked.clear()
        self._inbox.clear()
        self.subscription._detach(self)
        for message in pending:
            self.subscription._redeliver(message)


class Subscription:
    """A named cursor on a topic with a delivery policy."""

    def __init__(
        self,
        sim: Simulation,
        topic_name: str,
        name: str,
        sub_type: SubscriptionType,
        dispatch_latency_s: float = 0.001,
    ):
        self.sim = sim
        self.topic_name = topic_name
        self.name = name
        self.sub_type = sub_type
        self.dispatch_latency_s = dispatch_latency_s
        self.consumers: list = []
        self.acked_count = 0
        self.delivered_count = 0
        self._rr_index = 0

    def add_consumer(self, consumer: Consumer) -> None:
        if self.sub_type is SubscriptionType.EXCLUSIVE and self.consumers:
            raise ValueError(
                f"subscription {self.name!r} is EXCLUSIVE and already has a consumer"
            )
        self.consumers.append(consumer)

    def dispatch(self, message: Message) -> None:
        """Route one persisted message per this subscription's policy."""
        consumer = self._pick_consumer(message)
        if consumer is None:
            return  # no consumers connected; backlog retained by the topic
        self.delivered_count += 1
        self.sim.schedule_after(self.dispatch_latency_s, consumer._deliver, message)

    # -- internals -----------------------------------------------------------

    def _pick_consumer(self, message: Message) -> typing.Optional[Consumer]:
        live = self.consumers  # a closing consumer detaches itself
        if not live:
            return None
        if self.sub_type in (SubscriptionType.EXCLUSIVE, SubscriptionType.FAILOVER):
            return live[0]
        if self.sub_type is SubscriptionType.SHARED:
            consumer = live[self._rr_index % len(live)]
            self._rr_index += 1
            return consumer
        # KEY_SHARED: stable key -> consumer mapping.
        key = message.key if message.key is not None else str(message.message_id)
        return live[stable_hash(key) % len(live)]

    def _redeliver(self, message: Message) -> None:
        self.dispatch(message)

    def _detach(self, consumer: Consumer) -> None:
        if consumer in self.consumers:
            self.consumers.remove(consumer)

    def _on_ack(self, message: Message) -> None:
        self.acked_count += 1
