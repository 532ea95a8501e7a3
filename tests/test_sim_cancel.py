"""Kernel cancellation: ``Simulation.cancel(handle)``.

``schedule_at`` and ``schedule_after`` return a handle.  A cancelled
entry never runs, never advances the clock and stops counting as work
at once, on every path that reads the queue.  Once cancelled entries
outnumber live ones by more than ``_CANCELLED_SLACK``, the queue is
compacted, so it never holds more than 2 x live + slack entries.
"""

import gc
import heapq
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taureau.sim import Simulation, SimulationError, engine


def test_a_cancelled_entry_does_not_run():
    sim = Simulation()
    ran = []
    keep = sim.schedule_at(1.0, ran.append, "kept")
    drop = sim.schedule_after(2.0, ran.append, "dropped")
    assert keep != drop
    sim.cancel(drop)
    sim.cancel(drop)  # twice is harmless
    sim.run()
    assert ran == ["kept"]


def test_the_clock_stops_at_the_last_live_entry():
    sim = Simulation()
    sim.schedule_at(1.0, lambda: None)
    sim.cancel(sim.schedule_at(300.0, lambda: None))
    sim.run()
    assert sim.now == 1.0
    assert not sim.has_work()


def test_a_cancelled_burst_member_is_skipped():
    sim = Simulation()
    ran = []
    handles = [sim.schedule_at(1.0, ran.append, index) for index in range(4)]
    sim.cancel(handles[1])
    sim.schedule_many([0.5, 1.0, 1.5], ran.append, ["a", "b", "c"])
    sim.run()
    assert ran == ["a", 0, 2, 3, "b", "c"]


def test_every_loops_go_dormant_on_cancelled_work():
    sim = Simulation()
    ticks = []
    sim.every(1.0, lambda: ticks.append(sim.now))
    handle = sim.schedule_at(10.0, lambda: None)
    sim.schedule_at(2.5, sim.cancel, handle)
    sim.run()
    # The tick at t=3 finds only the cancelled entry and stops.
    assert ticks == [1.0, 2.0, 3.0]
    assert sim.now == 3.0
    assert not sim.has_foreground_work()


def test_run_until_event_reports_a_deadlock():
    sim = Simulation()
    never = sim.event()
    sim.cancel(sim.schedule_at(1.0, never.succeed))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=never)
    assert sim.now == 0.0


@pytest.mark.parametrize("sanitize", [False, True])
def test_peek_and_run_until_skip_a_cancelled_head(sanitize):
    sim = Simulation(sanitize=sanitize)
    ran = []
    head = sim.schedule_at(1.0, ran.append, "head")
    sim.schedule_at(5.0, ran.append, "later")
    sim.cancel(head)
    assert sim.peek() == 5.0
    sim.run(until=2.0)
    assert ran == [] and sim.now == 2.0
    sim.run()
    assert ran == ["later"] and sim.now == 5.0


def test_step_skips_cancelled_entries():
    sim = Simulation()
    ran = []
    sim.cancel(sim.schedule_at(1.0, ran.append, "dropped"))
    sim.schedule_at(2.0, ran.append, "kept")
    sim.step()
    assert ran == ["kept"] and sim.now == 2.0
    with pytest.raises(SimulationError, match="no scheduled work"):
        sim.step()


def test_a_cancelled_entry_is_never_a_tie_break_partner():
    sim = Simulation(sanitize=True)

    def first():
        pass

    def second():
        pass

    sim.schedule_at(1.0, first)
    sim.cancel(sim.schedule_at(1.0, second))
    sim.run()
    assert not sim.sanitizer.findings_of("tie-break")


def test_a_cancelled_entry_does_not_hide_a_tie_break_partner():
    sim = Simulation(sanitize=True)

    def first():
        pass

    def second():
        pass

    sim.schedule_at(1.0, first)
    sim.cancel(sim.schedule_at(1.0, lambda: None))
    sim.schedule_at(1.0, second)
    sim.run()
    assert len(sim.sanitizer.findings_of("tie-break")) == 1


def test_a_handle_works_through_an_instance_wrapper():
    sim = Simulation()
    schedule_at = sim.schedule_at
    wrapped = []

    def traced_schedule_at(when, callback, *args):
        def traced(*call_args):
            wrapped.append(when)
            return callback(*call_args)

        return schedule_at(when, traced, *args)

    sim.schedule_at = traced_schedule_at
    ran = []
    sim.schedule_after(1.0, ran.append, "kept")
    sim.cancel(sim.schedule_after(2.0, ran.append, "dropped"))
    sim.run()
    assert ran == ["kept"] and wrapped == [1.0]
    assert sim.now == 1.0


def test_cancelling_an_entry_that_already_ran_raises():
    sim = Simulation()
    handle = sim.schedule_at(1.0, lambda: None)
    sim.run()
    sim.cancel(handle)
    with pytest.raises(SimulationError, match="already ran"):
        sim.run()
    sim.run()  # reported once


def test_cancelling_none_or_an_unknown_handle_raises():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.cancel(None)
    with pytest.raises(SimulationError):
        sim.cancel(sim.schedule_at(1.0, lambda: None) + 1)


def within_bound(sim):
    live = len(sim._heap) - len(sim._cancelled)
    return len(sim._heap) <= 2 * live + engine._CANCELLED_SLACK


def test_cancel_churn_keeps_the_queue_bounded_and_frees_arguments():
    sim = Simulation()
    ran = []
    for when in (1.0, 2.0, 3.0):
        sim.schedule_at(when, ran.append, when)

    class Payload:
        pass

    first = Payload()
    freed = weakref.ref(first)
    sim.cancel(sim.schedule_at(1000.0, ran.append, first))
    del first
    for index in range(20_000):
        sim.cancel(sim.schedule_after(1000.0 + index, ran.append, Payload()))
        assert within_bound(sim)
    assert len(sim._heap) <= 6 + engine._CANCELLED_SLACK
    gc.collect()
    assert freed() is None  # long before its due time, t=1000
    sim.run()
    assert ran == [1.0, 2.0, 3.0] and sim.now == 3.0
    assert not sim._heap and not sim._cancelled


@pytest.mark.parametrize("sanitize", [False, True])
def test_popped_live_entries_compact_the_queue_too(sanitize):
    sim = Simulation(sanitize=sanitize)
    ran = []

    def run_one(when):
        ran.append(when)
        assert within_bound(sim)

    for when in range(1, 101):
        sim.schedule_at(float(when), run_one, when)
    for __ in range(100):
        sim.cancel(sim.schedule_at(1000.0, ran.append, "dropped"))
    assert len(sim._heap) == 200  # within 2 x 100 live + slack
    sim.run()
    assert ran == list(range(1, 101)) and sim.now == 100.0


def test_cancelling_a_handle_that_compaction_dropped_raises():
    sim = Simulation()
    handles = [sim.schedule_at(1.0, lambda: None)
               for __ in range(engine._CANCELLED_SLACK + 1)]
    for handle in handles:
        sim.cancel(handle)
    # The last cancel compacted the queue: no entry is left to skip.
    assert not sim._heap and not sim._cancelled
    sim.cancel(handles[0])
    with pytest.raises(SimulationError, match="already ran or were dropped"):
        sim.run()


def test_a_compaction_reports_a_handle_whose_entry_already_ran():
    sim = Simulation()
    ran = sim.schedule_at(1.0, lambda: None)
    sim.run()
    sim.cancel(ran)
    handles = [sim.schedule_at(2.0, lambda: None)
               for __ in range(engine._CANCELLED_SLACK)]
    with pytest.raises(SimulationError, match=rf"dropped: \[{ran}\]"):
        for handle in handles:
            sim.cancel(handle)
    assert not sim._heap and not sim._cancelled


def test_a_compaction_inside_a_callback_keeps_the_run_order():
    sim = Simulation()
    ran = []
    whens = [10.0 + (index * 7919 % 1000) / 100 for index in range(300)]
    handles = [sim.schedule_at(when, ran.append, index)
               for index, when in enumerate(whens)]
    dropped = set(range(0, 300, 3)) | set(range(1, 300, 3))

    def cancel_two_thirds():
        for index in sorted(dropped):
            sim.cancel(handles[index])
        # The 183rd cancel compacted the queue that run() is draining.
        assert len(sim._cancelled) == len(dropped) - 183

    sim.schedule_at(1.0, cancel_two_thirds)
    sim.run()
    kept = sorted(set(range(300)) - dropped, key=lambda index: (whens[index], index))
    assert ran == kept


class Reference:
    """A never-compacting kernel: one queue entry per scheduled item,
    and a cancelled entry is skipped when its turn comes."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.heap = []
        self.cancelled = set()
        self.log = []

    def schedule(self, when, label):
        self.seq += 1
        heapq.heappush(self.heap, (when, self.seq, label))
        return self.seq

    def head(self):
        """The next live entry, or ``None``."""
        while self.heap and self.heap[0][1] in self.cancelled:
            heapq.heappop(self.heap)
        return self.heap[0] if self.heap else None

    def step(self):
        when, __, label = heapq.heappop(self.heap)
        self.now = when
        if not isinstance(label, Marker):
            self.log.append(label)
        if isinstance(label, tuple):
            target = label[1]
            if target not in self.log and target not in self.cancelled:
                self.cancelled.add(target)
        return label

    def run_until(self, deadline):
        while self.head() is not None and self.heap[0][0] <= deadline:
            self.step()


class Marker:
    """The reference's stand-in for a :class:`Timeout`'s queue entry."""


DELAYS = st.integers(0, 12).map(lambda quarters: quarters / 4)
OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["at", "after", "until_t", "until_event"]), DELAYS),
    st.tuples(st.just("many"), st.lists(DELAYS, min_size=1, max_size=8),
              st.booleans()),
    st.tuples(st.sampled_from(["cancel", "cancel", "cancel_again"]),
              st.integers(0, 1000)),
    # An entry that, when it runs, cancels one drawn now if still queued.
    st.tuples(st.just("at_cancelling"), DELAYS, st.integers(0, 1000)),
    st.tuples(st.just("step")),
), max_size=100)


@settings(max_examples=150, deadline=None)
@given(ops=OPS, sanitize=st.booleans(), slack=st.sampled_from([0, 1, 4, 64]))
def test_cancellation_matches_a_never_compacting_reference(ops, sanitize, slack):
    sim = Simulation(sanitize=sanitize)
    ref = Reference()
    log = []
    handles = []  # what schedule_at and schedule_after returned
    cancelled = set()  # handles the test cancelled in ``sim``

    def record(label):
        log.append(label)
        assert within_bound(sim)

    def cancel_if_queued(label):
        record(label)
        target = label[1]
        if target not in log and target not in cancelled:
            cancelled.add(target)
            sim.cancel(target)

    def live_handle(index):
        queued = {seq for __, seq, __ in ref.heap} - ref.cancelled
        live = [handle for handle in handles if handle in queued]
        return live[index % len(live)] if live else None

    with mock.patch.object(engine, "_CANCELLED_SLACK", slack):
        for op in ops:
            kind = op[0]
            if kind in ("at", "after"):
                label = ref.seq + 1
                if kind == "at":
                    handle = sim.schedule_at(sim.now + op[1], record, label)
                else:
                    handle = sim.schedule_after(op[1], record, label)
                assert handle == ref.schedule(ref.now + op[1], label)
                handles.append(handle)
            elif kind == "many":
                whens = [sim.now + delay for delay in op[1]]
                labels = range(ref.seq + 1, ref.seq + 1 + len(whens))
                sim.schedule_many(whens, record,
                                  args=labels if op[2] else list(labels))
                for when, label in sorted(zip(whens, labels), key=lambda pair: pair[0]):
                    ref.schedule(when, label)
            elif kind == "cancel":
                handle = live_handle(op[1])
                if handle is not None:
                    cancelled.add(handle)
                    sim.cancel(handle)
                    ref.cancelled.add(handle)
            elif kind == "at_cancelling":
                target = live_handle(op[2])
                if target is not None:
                    label = ("cancel", target)
                    sim.schedule_after(op[1], cancel_if_queued, label)
                    ref.schedule(ref.now + op[1], label)
            elif kind == "cancel_again":
                # Only while its entry is still queued.
                still = sorted(sim._cancelled)
                if still:
                    sim.cancel(still[op[1] % len(still)])
            elif kind == "step":
                if ref.head() is None:
                    with pytest.raises(SimulationError, match="no scheduled work"):
                        sim.step()
                else:
                    sim.step()
                    ref.step()
            elif kind == "until_t":
                deadline = sim.now + op[1]
                sim.run(until=deadline)
                ref.run_until(deadline)
                ref.now = deadline
            else:
                marker = Marker()
                ref.schedule(ref.now + op[1], marker)
                sim.run(until=sim.timeout(op[1]))
                while ref.head()[2] is not marker:
                    ref.step()
                ref.step()
            assert log == ref.log and sim.now == ref.now
            assert within_bound(sim)
            assert sim.has_foreground_work() == (ref.head() is not None)
        sim.run()
    ref.run_until(float("inf"))
    assert log == ref.log and sim.now == ref.now
    assert not sim._heap and not sim._cancelled
