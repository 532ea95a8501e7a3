"""Spans, the tracer, and the trace store.

A :class:`Span` is a named, attributed interval of simulated time with a
parent link; spans sharing a ``trace_id`` form one trace tree.  The
:class:`Tracer` mints deterministic identifiers (plain counters — two
runs of the same seeded program produce byte-identical traces) and files
finished spans into a :class:`TraceStore`, from which :class:`Trace`
views are cut for rendering and analysis.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

__all__ = ["SpanContext", "NULL_CONTEXT", "Span", "Trace", "Tracer", "TraceStore"]


@dataclasses.dataclass(frozen=True)
class SpanContext:
    """The portable, explicit propagation handle: carry it on payloads.

    A handler that wants its downstream work stitched into the caller's
    trace passes this (from ``ctx.span_context()`` or ``message.trace``)
    rather than relying on any ambient state.
    """

    trace_id: str
    span_id: str


#: Convenience "no parent" sentinel (``None`` works everywhere too).
NULL_CONTEXT: typing.Optional[SpanContext] = None


class Span:
    """One named interval of simulated time inside a trace.

    A span keeps no id string and no attribute dict until one is read.
    ``span_id`` renders ``s<seq>`` on each read unless the span was
    built with an id of its own; ``parent_id`` reads the id of the
    parent ``Span`` held by reference, or returns the id string it was
    given (from a :class:`SpanContext` or a hand-built span).  A minted
    span's attributes are a value tuple beside a key tuple that its
    :class:`Tracer` shares among every span with that key set; the first
    read of :attr:`attributes` turns the pair into the one dict that
    later reads and :meth:`set_attribute` share.
    """

    __slots__ = (
        "trace_id",
        "name",
        "start",
        "end",
        "status",
        "_seq",
        "_id",
        "_parent",
        "_keys",
        "_values",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: typing.Optional[str],
        parent_id: typing.Union[str, "Span", None],
        name: str,
        start: float,
        seq: int,
        attributes: typing.Optional[dict] = None,
        end: typing.Optional[float] = None,
        status: str = "ok",
    ):
        self.trace_id = trace_id
        self._id = span_id  # None: render s<seq> on read
        self._parent = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.status = status
        # ``_keys`` is None once ``_values`` holds the attribute dict.
        if attributes is None:
            self._keys = self._values = ()
        else:
            self._keys = None
            self._values = attributes
        self._seq = seq  # creation order; deterministic tie-break

    @property
    def span_id(self) -> str:
        span_id = self._id
        return f"s{self._seq}" if span_id is None else span_id

    @property
    def parent_id(self) -> typing.Optional[str]:
        parent = self._parent
        return parent.span_id if isinstance(parent, Span) else parent

    @property
    def attributes(self) -> dict:
        """The attributes in call order: one dict, built on first read."""
        keys = self._keys
        if keys is None:
            return self._values
        attributes = self._values = dict(zip(keys, self._values))
        self._keys = None
        return attributes

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration_s(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is not finished")
        return self.end - self.start

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def finish(self, end: float, status: str = "ok") -> "Span":
        if self.end is not None:
            raise ValueError(f"span {self.name!r} finished twice")
        if end < self.start:
            raise ValueError(
                f"span {self.name!r}: end {end} precedes start {self.start}"
            )
        self.end = end
        self.status = status
        return self

    def __repr__(self):  # pragma: no cover - debug aid
        window = f"{self.start:.6f}→{self.end:.6f}" if self.finished else "open"
        return f"Span({self.name!r}, {self.span_id}, {window})"


class Trace:
    """A read-only view over all spans sharing one ``trace_id``."""

    def __init__(self, trace_id: str, spans: typing.Sequence[Span]):
        self.trace_id = trace_id
        self.spans = sorted(spans, key=lambda s: (s.start, s._seq))
        self._children: typing.Dict[typing.Optional[str], list] = {}
        for span in self.spans:
            self._children.setdefault(span.parent_id, []).append(span)

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def root(self) -> Span:
        local_ids = {span.span_id for span in self.spans}
        for span in self.spans:
            if span.parent_id is None or span.parent_id not in local_ids:
                return span
        raise ValueError(f"trace {self.trace_id!r} has no root span")

    def children(self, span: Span) -> typing.List[Span]:
        return list(self._children.get(span.span_id, []))

    def span_named(self, name: str) -> Span:
        """The first span named ``name`` (start order); KeyError if absent."""
        for span in self.spans:
            if span.name == name:
                return span
        raise KeyError(f"trace {self.trace_id!r} has no span named {name!r}")

    def spans_named(self, name: str) -> typing.List[Span]:
        return [span for span in self.spans if span.name == name]

    @property
    def duration_s(self) -> float:
        return self.root.duration_s

    # -- analysis / export shortcuts (implemented in sibling modules) -----

    def critical_path(self):
        from taureau.obs.analysis import critical_path

        return critical_path(self)

    def cost_attribution(self) -> dict:
        from taureau.obs.analysis import cost_attribution

        return cost_attribution(self)

    def render(self) -> str:
        from taureau.obs.export import render_tree

        return render_tree(self)

    def to_chrome_trace(self) -> dict:
        from taureau.obs.export import to_chrome_trace

        return to_chrome_trace(self)


class TraceStore:
    """Finished and in-flight spans, grouped by trace, in arrival order."""

    def __init__(self):
        self._spans: typing.Dict[str, list] = {}

    def add(self, span: Span) -> None:
        spans = self._spans.get(span.trace_id)
        if spans is None:
            self._spans[span.trace_id] = [span]
        else:
            spans.append(span)

    def trace_ids(self) -> typing.List[str]:
        return list(self._spans)

    def trace(self, trace_id: str) -> Trace:
        if trace_id not in self._spans:
            raise KeyError(f"unknown trace {trace_id!r}")
        return Trace(trace_id, self._spans[trace_id])

    def last_trace(self) -> Trace:
        if not self._spans:
            raise ValueError("no traces recorded")
        last_id = next(reversed(self._spans))
        return self.trace(last_id)

    def __len__(self) -> int:
        return len(self._spans)


class Tracer:
    """Mints spans against the virtual clock and files them in a store.

    Install on a simulation (``sim.tracer = Tracer(sim)``) and every
    traced subsystem picks it up; leave ``sim.tracer`` as ``None`` and
    the entire tracing surface collapses to ``if tracer is None`` checks.
    """

    def __init__(self, sim, store: typing.Optional[TraceStore] = None):
        self.sim = sim
        # Explicit None check: an empty TraceStore is falsy (len 0).
        self.store = store if store is not None else TraceStore()
        self._trace_ids = itertools.count()
        self._span_ids = itertools.count()
        #: One key tuple per distinct attribute key set, shared by spans.
        self._key_sets: typing.Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: typing.Union[Span, SpanContext, None] = None,
        start: typing.Optional[float] = None,
        **attributes,
    ) -> Span:
        """Open a span; with no ``parent`` a new trace is started."""
        return self._file(name, parent, self.sim.now if start is None else start,
                          None, "ok", attributes)

    def record(
        self,
        name: str,
        parent: typing.Union[Span, SpanContext, None],
        start: float,
        end: float,
        status: str = "ok",
        **attributes,
    ) -> Span:
        """File a finished span whose bounds are already known.

        The bounds are checked first: a rejected call files nothing and
        uses up no id.
        """
        if end < start:
            raise ValueError(f"span {name!r}: end {end} precedes start {start}")
        return self._file(name, parent, start, end, status, attributes)

    def _file(self, name, parent, start, end, status, attributes) -> Span:
        """Mint a span under ``parent`` (a new trace when ``None``) and
        file it, packing ``attributes`` into a shared key tuple and a
        value tuple."""
        if parent is None:
            trace_id = f"trace-{next(self._trace_ids)}"
        else:
            trace_id = parent.trace_id
            if not isinstance(parent, Span):
                parent = parent.span_id
        span = Span(trace_id, None, parent, name, start, next(self._span_ids),
                    None, end, status)
        if attributes:
            keys = tuple(attributes)
            span._keys = self._key_sets.setdefault(keys, keys)
            span._values = tuple(attributes.values())
        self.store.add(span)
        return span

    # -- store passthroughs ------------------------------------------------

    def trace(self, trace_id: str) -> Trace:
        return self.store.trace(trace_id)

    def last_trace(self) -> Trace:
        return self.store.last_trace()
