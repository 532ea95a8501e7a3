"""Retention guard: the bytes tracing keeps per filed span.

One ``full_stack`` replay at scale 0.25 (seed 1) files 11,839 spans,
all kept after the run.  The guard replays it twice in one process,
traced and through a subclass with ``tracing=False``, and divides the
difference in live bytes (tracemalloc, after a collection) by the spans
filed.  A small untraced replay runs first, before tracemalloc starts,
so imports and first-call caches count on neither side.

A span keeps its slots, its sequence int, its end float and one value
tuple; its id renders on read and its attribute key tuple is shared.
That read 288 B per span.  When each span kept a formatted ``s<N>`` id
and the caller's kwargs dict as its attributes it read 468 B.  The
bound, 320 B, is the measured figure plus about 10% for allocator and
interpreter differences, and fails either of those two back.
"""

import gc
import pathlib
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

BOUND_B_PER_SPAN = 320


class UntracedFullStack(workloads.FullStack):
    """``full_stack`` with every layer but tracing."""

    platform_kwargs = dict(workloads.FullStack.platform_kwargs, tracing=False)


def retained_bytes(replay) -> int:
    """Live bytes a replay leaves behind, measured around set-up and run."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    replay.setup()
    replay.run()
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before


def test_tracing_keeps_a_compact_record_per_span():
    warmup = UntracedFullStack(1, 0.01)
    warmup.setup()
    warmup.run()
    del warmup
    tracemalloc.start(1)
    try:
        traced = workloads.FullStack(1, 0.25)
        traced_bytes = retained_bytes(traced)
        store = traced.app.tracer.store
        spans = sum(len(store.trace(trace_id)) for trace_id in store.trace_ids())
        del traced, store
        untraced_bytes = retained_bytes(UntracedFullStack(1, 0.25))
    finally:
        tracemalloc.stop()
    assert spans == 11839
    assert (traced_bytes - untraced_bytes) / spans < BOUND_B_PER_SPAN
