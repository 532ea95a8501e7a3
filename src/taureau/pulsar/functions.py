"""Pulsar Functions — serverless compute on message streams (§4.3.1).

"Pulsar functions allow users to deploy and manage processing of
serverless functions that consume messages from and publish messages to
Pulsar topics" — the paper's bridge between the messaging substrate and
serverless analytics (Figure 3 implements a Count-Min sketch this way).

A :class:`PulsarFunction` is a Python callable ``process(input, context)``
deployed over input topics with a SHARED subscription per instance
group.  The context mirrors the real API: per-key state, user counters,
and ``publish`` for side outputs; the return value (if not ``None``)
goes to the configured output topic.
"""

from __future__ import annotations

import typing

from taureau.pulsar.cluster import Producer, PulsarCluster
from taureau.pulsar.topic import Message, SubscriptionType
from taureau.sim import MetricRegistry

__all__ = ["FunctionContext", "PulsarFunction", "FunctionsRuntime"]


class FunctionContext:
    """What a Pulsar function sees while processing one message."""

    def __init__(self, runtime: "FunctionsRuntime", function: "PulsarFunction"):
        self._runtime = runtime
        self._function = function
        self._message: typing.Optional[Message] = None
        self._state: dict = {}
        self._counters: dict = {}
        #: Durable execution: the per-message journal binding, installed
        #: by the runtime while a message is being processed (``None``
        #: without ``with_durability``).  :meth:`publish` routes side
        #: outputs through it so a redelivered message replays them.
        self.journal = None
        #: Output topic -> this function's producer for it.  One producer
        #: per topic keeps unkeyed outputs round-robining over partitions.
        self._producers: dict = {}

    # -- message metadata -----------------------------------------------------

    @property
    def function_name(self) -> str:
        return self._function.name

    @property
    def current_message(self) -> Message:
        if self._message is None:
            raise RuntimeError("no message is being processed")
        return self._message

    @property
    def message_key(self) -> typing.Optional[str]:
        return self.current_message.key

    # -- state & counters -------------------------------------------------------

    def put_state(self, key: str, value: object) -> None:
        """Durable-ish per-function state (the stateful-functions hook)."""
        self._state[key] = value

    def get_state(self, key: str, default: object = None) -> object:
        return self._state.get(key, default)

    def incr_counter(self, key: str, amount: int = 1) -> int:
        self._counters[key] = self._counters.get(key, 0) + amount
        return self._counters[key]

    def get_counter(self, key: str) -> int:
        return self._counters.get(key, 0)

    # -- output ----------------------------------------------------------------

    def publish(self, topic: str, payload: object, key=None):
        """Side output to an arbitrary topic.

        The publish is stitched into the current message's trace (when
        one rides on it), so fan-out chains stay one tree.  Under
        durable execution the publish journals as one effect keyed to
        the message being processed: a redelivered message replays the
        journaled publish instead of emitting the payload twice.
        """
        parent = self._message.trace if self._message is not None else None
        if self.journal is not None:
            return self.journal.apply(
                self, f"pulsar.publish:{topic}",
                lambda: self._producer(topic).send(
                    payload, key=key, parent=parent
                ),
            )
        return self._producer(topic).send(payload, key=key, parent=parent)

    def _producer(self, topic: str) -> Producer:
        producer = self._producers.get(topic)
        if producer is None:
            producer = self._runtime.cluster.producer(topic)
            self._producers[topic] = producer
        return producer


class PulsarFunction:
    """A deployable stream function.

    Provide ``process`` (one payload per call) or ``process_batch``
    (a list of payloads per call — everything delivered within one
    ``linger_s`` receive window, capped at ``max_batch``; the model of
    Pulsar's ``batchReceivePolicy``).  Batch functions are the
    data-plane fast path: a sketch function ingests a whole delivery
    batch through one vectorized ``add_many`` instead of one hash per
    message.  ``process_batch`` may return an iterable of results;
    each non-``None`` result goes to the output topic.
    """

    def __init__(
        self,
        name: str,
        process: typing.Optional[
            typing.Callable[[object, FunctionContext], object]
        ] = None,
        input_topics: typing.Sequence[str] = (),
        output_topic: typing.Optional[str] = None,
        parallelism: int = 1,
        process_batch: typing.Optional[
            typing.Callable[[list, FunctionContext], typing.Optional[list]]
        ] = None,
        max_batch: int = 1024,
        linger_s: float = 0.005,
        max_redeliveries: typing.Optional[int] = None,
        dead_letter_topic: typing.Optional[str] = None,
    ):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if not input_topics:
            raise ValueError("a function needs at least one input topic")
        if process is None and process_batch is None:
            raise ValueError("provide process or process_batch")
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if linger_s < 0:
            raise ValueError("linger_s cannot be negative")
        if max_redeliveries is not None and max_redeliveries < 0:
            raise ValueError("max_redeliveries cannot be negative")
        self.name = name
        self.process = process
        self.process_batch = process_batch
        self.max_batch = max_batch
        self.linger_s = linger_s
        self.input_topics = list(input_topics)
        self.output_topic = output_topic
        self.parallelism = parallelism
        #: ``None`` adopts the runtime default at deploy time.
        self.max_redeliveries = max_redeliveries
        #: Where poison messages go after the redelivery cap (a DLQ
        #: topic, auto-created on first use); ``None`` = drop-and-count.
        self.dead_letter_topic = dead_letter_topic


class FunctionsRuntime:
    """Deploys functions onto a cluster and pumps messages through them."""

    def __init__(self, cluster: PulsarCluster):
        self.cluster = cluster
        self.metrics = MetricRegistry(namespace="pulsar.functions")
        self._deployed: typing.Dict[str, FunctionContext] = {}
        #: Redelivery cap adopted by functions that do not set their own;
        #: ``Platform.with_resilience`` overrides it from the policy.
        self.default_max_redeliveries = 3
        #: Durable execution: the platform's
        #: :class:`~taureau.durable.DurabilityManager`, installed by
        #: ``Platform.with_durability``.  Single-message functions then
        #: journal per-delivery (entries keyed by message id) so
        #: redeliveries replay side outputs and fully processed
        #: messages dedup; batch functions keep at-least-once semantics
        #: (a multi-message batch's effects are not attributable to one
        #: message, so replay would not be sound).
        self.durable = None

    def deploy(self, function: PulsarFunction) -> FunctionContext:
        """Subscribe the function's instances to its input topics.

        All instances of one function share a SHARED subscription, so
        each message is processed exactly once by one instance — the
        queuing half of Pulsar's unified model.  Returns the (shared)
        context so tests/examples can inspect state and counters.
        """
        if function.name in self._deployed:
            raise ValueError(f"function {function.name!r} is already deployed")
        context = FunctionContext(self, function)
        failures: dict = {}
        max_redeliveries = (
            function.max_redeliveries
            if function.max_redeliveries is not None
            else self.default_max_redeliveries
        )

        if function.process_batch is not None:
            listener = self._batch_listener(
                function, context, failures, max_redeliveries
            )
            for topic in function.input_topics:
                for _instance in range(function.parallelism):
                    self.cluster.subscribe(
                        topic,
                        subscription_name=f"fn-{function.name}",
                        sub_type=SubscriptionType.SHARED,
                        listener=listener,
                    )
            self._deployed[function.name] = context
            return context

        processed = None  # bound at the first processed message

        def listener(message: Message, consumer) -> None:
            nonlocal processed
            entry = None
            if self.durable is not None:
                entry = self.durable.message_entry(
                    function.name,
                    f"pulsar:{function.name}:{message.message_id}",
                )
                if entry.completed:
                    # The first delivery fully processed this message;
                    # a redelivery acks without reprocessing.
                    self.durable.metrics.counter("messages_deduped").add()
                    consumer.ack(message)
                    return
                entry.begin_attempt()
                context.journal = self.durable.binding(entry)
            context._message = message
            tracer = self.cluster.sim.tracer
            fn_span = None
            if tracer is not None and message.trace is not None:
                fn_span = tracer.start_span(
                    f"pulsar.fn.{function.name}", parent=message.trace
                )
            # Race-sanitizer boundary: a message payload entering a function
            # sandbox must not have drifted since it was published.
            sanitizer = getattr(self.cluster.sim, "sanitizer", None)
            payload_digest = None
            if sanitizer is not None:
                site = f"pulsar:{function.name}"
                payload_digest = sanitizer.inbound(
                    message.payload, self.cluster.sim.now, site
                )
            try:
                result = function.process(message.payload, context)
            except Exception:
                if fn_span is not None:
                    fn_span.finish(self.cluster.sim.now, status="error")
                self.metrics.counter(f"{function.name}.process_errors").add()
                count = failures.get(message.message_id, 0) + 1
                failures[message.message_id] = count
                if count <= max_redeliveries:
                    consumer.nack(message)
                else:
                    # Dead-letter: stop redelivering a poison message.
                    self._dead_letter(context, message)
                    if entry is not None:
                        self.durable.finalize(entry, "dead_lettered")
                    consumer.ack(message)
                return
            finally:
                context._message = None
                context.journal = None
            if sanitizer is not None:
                sanitizer.check_handler_boundary(
                    message.payload, payload_digest, result,
                    self.cluster.sim.now, f"pulsar:{function.name}",
                )
            if entry is not None:
                self.durable.finalize(entry, "ok")
            if processed is None:
                processed = self.metrics.counter(f"{function.name}.processed")
            processed.add()
            if result is not None and function.output_topic is not None:
                context._producer(function.output_topic).send(
                    result, key=message.key,
                    parent=fn_span if fn_span is not None else None,
                )
            if fn_span is not None:
                fn_span.finish(self.cluster.sim.now)
            consumer.ack(message)

        for topic in function.input_topics:
            for _instance in range(function.parallelism):
                self.cluster.subscribe(
                    topic,
                    subscription_name=f"fn-{function.name}",
                    sub_type=SubscriptionType.SHARED,
                    listener=listener,
                )
        self._deployed[function.name] = context
        return context

    def _batch_listener(
        self,
        function: PulsarFunction,
        context: FunctionContext,
        failures: dict,
        max_redeliveries: int,
    ):
        """Coalesce deliveries into one process_batch call.

        The first delivery opens a ``linger_s`` receive window; every
        message arriving before the window closes (bookie persists are
        only tens of microseconds apart under load) joins the batch,
        and the flush hashes the whole batch through the function in a
        single call.  A failing batch is redelivered
        message-by-message (so one poison message cannot wedge its
        batchmates) until the dead-letter cap.
        """
        pending: list = []
        flush_scheduled = [False]
        sim = self.cluster.sim
        processed = batches = None  # bound after the first good batch

        def run_batch(batch: list) -> None:
            nonlocal processed, batches
            payloads = [message.payload for message, __ in batch]
            context._message = batch[-1][0]
            tracer = sim.tracer
            first_trace = batch[0][0].trace
            if tracer is not None and first_trace is not None:
                tracer.record(
                    f"pulsar.fn.{function.name}",
                    parent=first_trace,
                    start=sim.now,
                    end=sim.now,
                    batch_size=len(batch),
                )
            try:
                results = function.process_batch(payloads, context)
            except Exception:
                self.metrics.counter(f"{function.name}.process_errors").add()
                if len(batch) > 1:
                    # Isolate the poison message: retry one by one.
                    for entry in batch:
                        run_batch([entry])
                    return
                message, consumer = batch[0]
                count = failures.get(message.message_id, 0) + 1
                failures[message.message_id] = count
                if count <= max_redeliveries:
                    consumer.nack(message)
                else:
                    # Dead-letter: stop redelivering a poison message.
                    self._dead_letter(context, message)
                    consumer.ack(message)
                return
            finally:
                context._message = None
            if processed is None:
                processed = self.metrics.counter(f"{function.name}.processed")
                batches = self.metrics.counter(f"{function.name}.batches")
            processed.add(len(batch))
            batches.add()
            if results is not None and function.output_topic is not None:
                producer = context._producer(function.output_topic)
                for result in results:
                    if result is not None:
                        producer.send(result)
            for message, consumer in batch:
                consumer.ack(message)

        def flush() -> None:
            flush_scheduled[0] = False
            if not pending:
                return
            batch, pending[:] = list(pending), []
            run_batch(batch)

        def listener(message: Message, consumer) -> None:
            pending.append((message, consumer))
            if len(pending) >= function.max_batch:
                flush()
                return
            if not flush_scheduled[0]:
                flush_scheduled[0] = True
                sim.schedule_after(function.linger_s, flush)

        return listener

    def _dead_letter(self, context: FunctionContext, message: Message) -> None:
        """Count a poison message and forward it to the DLQ topic (if any).

        The DLQ topic is auto-created on first use so operators can
        declare it lazily; the forwarded message keeps the original
        payload, key and trace context for post-mortem replay.
        """
        function = context._function
        self.metrics.counter(f"{function.name}.dead_lettered").add()
        self.metrics.labeled_counter("dead_letters_by", ("function",)).add(
            function=function.name
        )
        topic = function.dead_letter_topic
        if topic is None:
            return
        if not self.cluster.metadata.exists(f"/topics/{topic}"):
            self.cluster.create_topic(topic)
        context._producer(topic).send(
            message.payload, key=message.key, parent=message.trace
        )

    def context_of(self, function_name: str) -> FunctionContext:
        return self._deployed[function_name]

    def deploy_platform_trigger(
        self,
        topic: str,
        platform,
        function_name: str,
        subscription_name: typing.Optional[str] = None,
    ) -> None:
        """Invoke a FaaS function for every message on ``topic``.

        This is the §3 event-driven pattern with Pulsar as the event
        source: the message payload becomes the function's event, and
        the message is acknowledged once the invocation is *submitted*
        (at-most-once hand-off; use the platform's ``max_retries`` for
        execution-level retry).
        """
        subscription = subscription_name or f"trigger-{function_name}"

        def listener(message: Message, consumer) -> None:
            # Explicit propagation: the invocation joins the message's trace.
            platform.invoke(function_name, message.payload, parent=message.trace)
            consumer.ack(message)
            self.metrics.counter(f"trigger.{function_name}.fired").add()

        self.cluster.subscribe(
            topic, subscription, SubscriptionType.SHARED, listener=listener
        )
