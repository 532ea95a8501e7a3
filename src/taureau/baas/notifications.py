"""An SNS-like notification service.

The glue of event-driven serverless applications (§3): a publisher posts
to a topic, and every subscriber — typically a FaaS function — is
triggered asynchronously.  Subscribers are arbitrary callables; use
:meth:`NotificationService.subscribe_function` to fan out into a
:class:`~taureau.core.platform.FaasPlatform`.
"""

from __future__ import annotations

import typing

from taureau.core.calibration import DEFAULT_CALIBRATION, Calibration
from taureau.core.function import journaled
from taureau.sim import MetricRegistry, Simulation

__all__ = ["NotificationService"]


class NotificationService:
    """Topic-based pub/sub for triggering event-driven work."""

    def __init__(
        self,
        sim: Simulation,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.sim = sim
        self.calibration = calibration
        self.metrics = MetricRegistry()
        self._subscribers: typing.Dict[str, list] = {}

    def create_topic(self, topic: str) -> None:
        if topic in self._subscribers:
            raise ValueError(f"topic {topic!r} already exists")
        self._subscribers[topic] = []

    def topics(self) -> list:
        return sorted(self._subscribers)

    def subscribe(self, topic: str, callback: typing.Callable[[object], None]):
        """Deliver every future message on ``topic`` to ``callback``."""
        self._topic(topic).append(callback)
        return callback

    def subscribe_function(self, topic: str, platform, function_name: str) -> None:
        """Trigger ``function_name`` on ``platform`` for each message."""
        self.subscribe(topic, lambda message: platform.invoke(function_name, message))

    def publish(self, topic: str, message: object, ctx=None) -> int:
        """Publish; returns the number of subscribers notified.

        Delivery is asynchronous with a small per-subscriber latency, so
        subscribers observe the message strictly after the publish.

        With durable execution installed the publish journals as one
        effect: a retried publisher attempt replays the journaled
        subscriber count instead of fanning the message out again — the
        classic duplicate-notification hazard of at-least-once retries.
        """
        return journaled(
            ctx, f"baas.sns.publish:{topic}",
            lambda: self._publish(topic, message, ctx),
        )

    def _publish(self, topic: str, message: object, ctx) -> int:
        subscribers = self._topic(topic)
        if ctx is not None:
            ctx.charge(self.calibration.kv_base_latency_s)
        self.metrics.counter("published").add()
        for callback in subscribers:
            self.sim.schedule_after(
                self.calibration.kv_base_latency_s, callback, message
            )
            self.metrics.counter("deliveries").add()
        return len(subscribers)

    def _topic(self, topic: str) -> list:
        if topic not in self._subscribers:
            raise KeyError(f"topic {topic!r} does not exist")
        return self._subscribers[topic]
