"""Trace-derived profiling: flamegraph folded stacks and cost tables.

PR 2's span trees answer "where did *this* request go?"; this module
answers the aggregate question — across every trace in a store, which
call paths accumulate the time and which functions/tenants accumulate
the bill.  The folded-stack output is the `flamegraph.pl` / speedscope
interchange format (one ``root;child;leaf value`` line per call path,
value in integer microseconds of *self* time), so any off-the-shelf
flamegraph renderer consumes the simulator's profile directly.

All outputs are deterministically ordered: same-seed runs produce
byte-identical profiles, which is what lets ``tests/test_golden.py``
pin them.
"""

from __future__ import annotations

import typing

from taureau.obs.trace import Span, Trace, TraceStore

__all__ = [
    "folded_stacks",
    "folded_profile",
    "validate_folded",
    "cost_table",
    "render_cost_table",
    "Profiler",
]


def _frame(name: str) -> str:
    """A span name sanitized for the folded-stack grammar.

    Semicolons separate frames and spaces separate the path from the
    value, so both are rewritten; control characters would corrupt the
    line-oriented format and are dropped.
    """
    cleaned = []
    for ch in name:
        if ch == ";":
            cleaned.append(":")
        elif ch.isspace():
            cleaned.append("_")
        elif ch.isprintable():
            cleaned.append(ch)
    return "".join(cleaned) or "unnamed"


def _accumulate(
    trace: Trace,
    span: Span,
    prefix: str,
    totals: typing.Dict[str, int],
) -> None:
    path = f"{prefix};{_frame(span.name)}" if prefix else _frame(span.name)
    children = [c for c in trace.children(span) if c.finished]
    covered = sum(
        max(0.0, min(c.end, span.end) - max(c.start, span.start))
        for c in children
    )
    self_us = int(round(max(0.0, span.duration_s - covered) * 1e6))
    if self_us > 0:
        totals[path] = totals.get(path, 0) + self_us
    for child in children:
        _accumulate(trace, child, path, totals)


def folded_stacks(trace: Trace) -> typing.List[str]:
    """One trace as folded-stack lines (``a;b;c self_microseconds``).

    Each finished span contributes its *self* time — duration minus the
    windows covered by its finished children — so a path's frames sum to
    the root duration and the flamegraph's widths are exact.  Unfinished
    spans (and their subtrees) are skipped; zero-self-time frames are
    elided, matching what stack samplers emit.  Lines are sorted by
    path.
    """
    root = trace.root
    totals: typing.Dict[str, int] = {}
    if root.finished:
        _accumulate(trace, root, "", totals)
    return [f"{path} {value}" for path, value in sorted(totals.items())]


def folded_profile(store: TraceStore) -> typing.List[str]:
    """Every trace in ``store`` merged into one folded-stack profile.

    Identical call paths across traces aggregate (their self-times sum),
    which is what turns a thousand invocations into one readable
    flamegraph.  Lines are sorted by path for deterministic output.
    """
    totals: typing.Dict[str, int] = {}
    for trace_id in store.trace_ids():
        trace = store.trace(trace_id)
        try:
            root = trace.root
        except ValueError:
            continue
        if root.finished:
            _accumulate(trace, root, "", totals)
    return [f"{path} {value}" for path, value in sorted(totals.items())]


def validate_folded(lines: typing.Iterable[str]) -> typing.List[str]:
    """Structurally check folded-stack ``lines``; returns a problem list.

    A valid line is ``frame(;frame)* value`` with non-empty frames and a
    positive integer value — exactly what flamegraph.pl accepts.
    """
    problems: typing.List[str] = []
    for lineno, line in enumerate(lines, start=1):
        path, sep, value = line.rpartition(" ")
        if not sep or not path:
            problems.append(f"line {lineno}: missing path or value {line!r}")
            continue
        if not value.isdigit() or int(value) <= 0:
            problems.append(
                f"line {lineno}: value must be a positive integer, got "
                f"{value!r}"
            )
        frames = path.split(";")
        if any(not frame or " " in frame for frame in frames):
            problems.append(f"line {lineno}: malformed frame in {path!r}")
    return problems


def cost_table(store: TraceStore) -> dict:
    """Per-function and per-tenant request/GB-s/cost attribution.

    Walks every trace's ``faas.billing`` spans (minted once per billed
    attempt) and charges them to the ``function`` / ``tenant``
    attributes of the invocation's root span.  Returns::

        {"by_function": {name: {"requests", "gb_s", "cost_usd"}},
         "by_tenant":   {tenant: {...same...}}}

    with keys sorted for deterministic iteration.
    """
    by_function: dict = {}
    by_tenant: dict = {}

    def credit(table: dict, key: str, gb_s: float, cost: float) -> None:
        row = table.setdefault(
            key, {"requests": 0, "gb_s": 0.0, "cost_usd": 0.0}
        )
        row["requests"] += 1
        row["gb_s"] += gb_s
        row["cost_usd"] += cost

    for trace_id in store.trace_ids():
        trace = store.trace(trace_id)
        try:
            root = trace.root
        except ValueError:
            continue
        function = str(root.attributes.get("function", root.name))
        tenant = str(root.attributes.get("tenant", "unknown"))
        for bill in trace.spans_named("faas.billing"):
            gb_s = float(bill.attributes.get("gb_s", 0.0))
            cost = float(bill.attributes.get("cost_usd", 0.0))
            credit(by_function, function, gb_s, cost)
            credit(by_tenant, tenant, gb_s, cost)

    return {
        "by_function": dict(sorted(by_function.items())),
        "by_tenant": dict(sorted(by_tenant.items())),
    }


def render_cost_table(table: dict) -> str:
    """The :func:`cost_table` dict as a fixed-width accounting report."""
    lines: typing.List[str] = []
    for title, key in (("function", "by_function"), ("tenant", "by_tenant")):
        rows = table.get(key, {})
        lines.append(f"cost by {title}:")
        header = f"  {title:<24} {'requests':>9} {'GB-s':>12} {'cost $':>12}"
        lines.append(header)
        for name, row in rows.items():
            lines.append(
                f"  {name:<24} {row['requests']:>9d} "
                f"{row['gb_s']:>12.4f} {row['cost_usd']:>12.6f}"
            )
        if not rows:
            lines.append("  (no billed traces)")
    return "\n".join(lines)


class Profiler:
    """The convenience handle the facade exposes: store in, reports out."""

    def __init__(self, store: TraceStore):
        self.store = store

    def folded(self) -> typing.List[str]:
        """The aggregated folded-stack profile (see :func:`folded_profile`)."""
        return folded_profile(self.store)

    def folded_text(self) -> str:
        """The profile as one newline-terminated document for file dumps."""
        lines = self.folded()
        return "\n".join(lines) + ("\n" if lines else "")

    def cost_table(self) -> dict:
        return cost_table(self.store)

    def render_cost_table(self) -> str:
        return render_cost_table(self.cost_table())
