"""Windowed aggregation over Pulsar Functions.

Paper §5.1 motivates serverless real-time analytics — "algorithms for
mining insights from streaming data" — and most of those aggregate per
time window.  :class:`WindowedAggregator` deploys a Pulsar function
that assigns each message to tumbling or sliding processing-time
windows (optionally per key) and publishes one aggregate per window to
the output topic when the window closes.

The aggregate is user-defined via three callables, matching the classic
combiner interface::

    initial()           -> acc
    add(acc, payload)   -> acc
    finalize(acc)       -> result        (optional; default identity)

Any mergeable sketch from :mod:`taureau.sketches` slots in directly
(``initial=lambda: HyperLogLog()``, ``add=lambda s, x: (s.add(x), s)[1]``).
"""

from __future__ import annotations

import dataclasses
import typing

from taureau.pulsar.cluster import PulsarCluster
from taureau.pulsar.functions import FunctionsRuntime, PulsarFunction
from taureau.sim import MetricRegistry, Simulation

__all__ = ["WindowResult", "WindowedAggregator"]


@dataclasses.dataclass(frozen=True)
class WindowResult:
    """One closed window's aggregate, as published to the output topic."""

    key: typing.Optional[str]
    window_start: float
    window_end: float
    value: object
    count: int


class WindowedAggregator:
    """Tumbling/sliding window aggregation deployed as a Pulsar function.

    Parameters
    ----------
    window_s:
        Window length in (simulated, processing-time) seconds.
    slide_s:
        Hop between window starts; equal to ``window_s`` (the default)
        gives tumbling windows, smaller gives overlapping sliding
        windows.
    key_fn:
        Optional ``payload -> key``; with a key function, windows are
        tracked and emitted per key.
    add_many:
        Optional ``(acc, [payloads]) -> acc`` batch combiner.  When
        provided, the aggregator deploys as a *batch* Pulsar function:
        every delivery batch folds into each open window through one
        ``add_many`` call — the vectorized sketch path — instead of one
        ``add`` call per message.
    """

    def __init__(
        self,
        runtime: FunctionsRuntime,
        name: str,
        input_topics: typing.Sequence[str],
        output_topic: str,
        window_s: float,
        slide_s: typing.Optional[float] = None,
        key_fn: typing.Optional[typing.Callable[[object], str]] = None,
        initial: typing.Callable[[], object] = lambda: 0,
        add: typing.Callable[[object, object], object] = lambda acc, x: acc + 1,
        finalize: typing.Callable[[object], object] = lambda acc: acc,
        add_many: typing.Optional[
            typing.Callable[[object, list], object]
        ] = None,
    ):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        slide_s = window_s if slide_s is None else slide_s
        if not 0 < slide_s <= window_s:
            raise ValueError("need 0 < slide_s <= window_s")
        self.runtime = runtime
        self.cluster: PulsarCluster = runtime.cluster
        self.sim: Simulation = self.cluster.sim
        self.name = name
        self.output_topic = output_topic
        self.window_s = window_s
        self.slide_s = slide_s
        self.key_fn = key_fn
        self.initial = initial
        self.add = add
        self.finalize = finalize
        self.add_many = add_many
        self.metrics = MetricRegistry()
        self._messages = None  # bound on the first message
        self._producer = None  # created at the first flush
        #: (key, window_start) -> [accumulator, count]
        self._open_windows: dict = {}
        self._flush_scheduled: set = set()
        if add_many is not None:
            runtime.deploy(
                PulsarFunction(
                    name=name,
                    process_batch=self._process_batch,
                    input_topics=list(input_topics),
                )
            )
        else:
            runtime.deploy(
                PulsarFunction(
                    name=name,
                    process=self._process,
                    input_topics=list(input_topics),
                )
            )

    # ------------------------------------------------------------------

    def _process(self, payload: object, ctx) -> None:
        key = self.key_fn(payload) if self.key_fn else None
        now = self.sim.now
        for window_start in self._windows_containing(now):
            slot = (key, window_start)
            if slot not in self._open_windows:
                self._open_windows[slot] = [self.initial(), 0]
                self._schedule_flush(window_start)
            window = self._open_windows[slot]
            window[0] = self.add(window[0], payload)
            window[1] += 1
        self._count_messages(1)
        return None

    def _process_batch(self, payloads: list, ctx) -> None:
        """Fold one delivery batch into every window it belongs to.

        All payloads in a batch share the same simulated arrival time,
        so they land in the same windows; per key, each open window
        absorbs the whole group through one ``add_many`` call.
        """
        now = self.sim.now
        if self.key_fn is None:
            groups = {None: payloads}
        else:
            groups = {}
            for payload in payloads:
                groups.setdefault(self.key_fn(payload), []).append(payload)
        for key, group in groups.items():
            for window_start in self._windows_containing(now):
                slot = (key, window_start)
                if slot not in self._open_windows:
                    self._open_windows[slot] = [self.initial(), 0]
                    self._schedule_flush(window_start)
                window = self._open_windows[slot]
                window[0] = self.add_many(window[0], group)
                window[1] += len(group)
        self._count_messages(len(payloads))
        return None

    def _count_messages(self, count: int) -> None:
        if self._messages is None:
            self._messages = self.metrics.counter("messages")
        self._messages.add(count)

    def _windows_containing(self, time: float) -> list:
        """Start times of every window (tumbling: one) covering ``time``."""
        last_start = (time // self.slide_s) * self.slide_s
        starts = []
        start = last_start
        while start > time - self.window_s:
            starts.append(start)
            start -= self.slide_s
        return [s for s in starts if s >= 0]

    def _schedule_flush(self, window_start: float) -> None:
        if window_start in self._flush_scheduled:
            return
        self._flush_scheduled.add(window_start)
        self.sim.schedule_at(
            window_start + self.window_s, self._flush, window_start
        )

    def _flush(self, window_start: float) -> None:
        closing = [
            slot for slot in self._open_windows if slot[1] == window_start
        ]
        if self._producer is None:
            self._producer = self.cluster.producer(self.output_topic)
        for slot in sorted(closing, key=lambda s: (s[0] is None, s[0])):
            accumulator, count = self._open_windows.pop(slot)
            result = WindowResult(
                key=slot[0],
                window_start=window_start,
                window_end=window_start + self.window_s,
                value=self.finalize(accumulator),
                count=count,
            )
            self._producer.send(result, key=slot[0])
            self.metrics.counter("windows_emitted").add()
        self._flush_scheduled.discard(window_start)
