"""Kernel cancellation: ``Simulation.cancel(handle)``.

``schedule_at`` and ``schedule_after`` return a handle.  A cancelled
entry never runs, never advances the clock and stops counting as work
at once, on every path that reads the queue.
"""

import pytest

from taureau.sim import Simulation, SimulationError


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
