"""Bulk scheduling: ``schedule_many`` must execute exactly like N
individual ``schedule_at`` calls (same order, same clock, same FIFO
tie-breaks), including across ``run(until=)`` pauses and ``step()``.
"""

import random

import pytest

from taureau.sim import Simulation, SimulationError


class TestScheduleMany:
    def test_equivalent_to_individual_pushes(self):
        rng = random.Random(2)
        times = [rng.uniform(0, 30) for _ in range(300)]

        bulk_sim, bulk_seen = Simulation(), []
        bulk_sim.schedule_many(times, bulk_seen.append, args=range(len(times)))
        bulk_sim.run()

        loop_sim, loop_seen = Simulation(), []
        for index, when in enumerate(times):
            loop_sim.schedule_at(when, loop_seen.append, index)
        loop_sim.run()

        assert bulk_seen == loop_seen
        assert bulk_sim.now == loop_sim.now

    def test_unsorted_input_keeps_fifo_ties(self):
        # Equal timestamps must run in submission order, as N pushes would.
        sim, seen = Simulation(), []
        sim.schedule_many([2.0, 1.0, 2.0, 1.0], seen.append, args="abcd")
        sim.run()
        assert seen == ["b", "d", "a", "c"]

    def test_interleaves_with_schedule_at(self):
        sim, seen = Simulation(), []
        sim.schedule_at(1.0, seen.append, "pre-tie")
        sim.schedule_many([0.5, 1.0, 2.0], seen.append, args=["r0", "r1", "r2"])
        sim.schedule_at(1.0, seen.append, "post-tie")
        sim.schedule_at(1.5, seen.append, "mid")
        sim.run()
        assert seen == ["r0", "pre-tie", "r1", "post-tie", "mid", "r2"]

    def test_a_range_of_args_is_kept_as_given(self):
        sim, seen = Simulation(), []
        args = range(10, 14)
        sim.schedule_many([1.0, 2.0, 3.0, 4.0], seen.append, args=args)
        assert sim._heap[0][3][0].args is args  # no int built per arrival
        sim.run()
        assert seen == [10, 11, 12, 13]

    def test_callbacks_see_the_virtual_clock(self):
        sim, stamps = Simulation(), []
        sim.schedule_many([0.25, 0.5, 0.75], lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == [0.25, 0.5, 0.75]

    def test_numpy_array_input(self):
        numpy = pytest.importorskip("numpy")
        sim, seen = Simulation(), []
        sim.schedule_many(numpy.array([3.0, 1.0, 2.0]), seen.append, args=[3, 1, 2])
        sim.run()
        assert seen == [1, 2, 3]

    def test_rejects_past_times(self):
        sim = Simulation()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_many([6.0, 1.0], lambda: None)

    def test_rejects_args_length_mismatch(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.schedule_many([1.0, 2.0], lambda x: None, args=[1])

    def test_empty_vector_is_a_noop(self):
        sim = Simulation()
        assert sim.schedule_many([], lambda: None) == 0
        assert not sim.has_work()

    def test_run_until_pauses_a_run_mid_way(self):
        sim, seen = Simulation(), []
        sim.schedule_many([1.0, 2.0, 3.0, 4.0], seen.append, args=range(4))
        sim.run(until=2.5)
        assert seen == [0, 1]
        assert sim.now == 2.5
        sim.run()
        assert seen == [0, 1, 2, 3]

    def test_step_executes_one_entry_of_a_run(self):
        sim, seen = Simulation(), []
        sim.schedule_many([1.0, 1.0, 2.0], seen.append, args=range(3))
        sim.step()
        assert seen == [0]
        assert sim.peek() == 1.0
        sim.step()
        assert seen == [0, 1]

    def test_run_until_event_with_bulk_work(self):
        sim, seen = Simulation(), []
        sim.schedule_many([1.0, 2.0, 3.0], seen.append, args=range(3))
        timeout = sim.timeout(2.0, value="t")
        assert sim.run(until=timeout) == "t"
        assert seen == [0, 1]

    def test_sanitizer_falls_back_to_individual_entries(self):
        sim, seen = Simulation(sanitize=True), []
        sim.schedule_many([1.0, 1.0], seen.append, args=["a", "b"])
        sim.schedule_at(1.0, lambda: seen.append("rival"))
        sim.run()
        assert seen == ["a", "b", "rival"]
        # The fallback keeps feeding the collision detector: the bulk
        # entries and the rival lambda tie ambiguously at t=1.0.
        assert sim.sanitizer.findings_of("tie-break")

    def test_callback_exception_consumes_its_entry(self):
        sim = Simulation()

        def boom(tag):
            if tag == 1:
                raise RuntimeError("boom")

        sim.schedule_many([1.0, 2.0, 3.0], boom, args=range(3))
        with pytest.raises(RuntimeError):
            sim.run()
        # The failed entry is gone; the rest of the run still drains.
        sim.run()
        assert not sim.has_work()
        assert sim.now == 3.0

