"""Retention guard: the bytes Pulsar keeps per persisted message.

One ``stream_sketch`` replay at scale 0.25 (seed 1) persists 5,629
messages that stay in their topics' backlogs and ledgers after the run.
Each keeps a slotted ``Message``, its ``MessageId`` tuple, a slotted
``LedgerEntry``, the publish time and the entry id; bookies keep nothing
per entry.  The guard counts the bytes tracemalloc still finds live
that were allocated by code in ``taureau/pulsar/`` (the allocating frame
or its caller, so a ``MessageId`` built by its generated ``__new__``
counts), per message.  It read about 630 B when bookies kept a tuple set
and ``Message`` and ``MessageId`` carried instance dicts, and 282 B with
one compact record per message.
"""

import gc
import pathlib
import sys
import tracemalloc

import taureau.pulsar

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

PULSAR = str(pathlib.Path(taureau.pulsar.__file__).resolve().parent)

#: Bytes per message: the measured 282 B plus a margin for allocator and
#: interpreter differences, well under the 630 B of the dict-backed
#: records it replaced.
BOUND_B_PER_MESSAGE = 340


def test_pulsar_keeps_one_compact_record_per_message():
    replay = workloads.make_workload("stream_sketch", 1, 0.25)
    tracemalloc.start(2)
    try:
        replay.setup()
        replay.run()
        # The workload's own per-arrival record holds the flush times
        # the Pulsar function scheduled; that is not Pulsar's retention.
        replay.processed_at = None
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    messages = len(replay.trace)
    assert messages == 5629
    retained = sum(
        trace.size for trace in snapshot.traces
        if any(frame.filename.startswith(PULSAR) for frame in trace.traceback)
    )
    assert retained / messages < BOUND_B_PER_MESSAGE
