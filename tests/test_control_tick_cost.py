"""Control and recorder ticks cost in proportion to what changed.

The platform records which functions and pool keys changed only while a
:class:`~taureau.control.ControlLoop` is attached; a bare platform keeps
no change set at all.  With a loop, a tick after the first refreshes and
reports as active only the functions that saw an event since the
previous tick (or have parked work), however many are registered.  The
recorder's cold-fraction lane reads start totals, checked here against
the walk over every ``starts_by`` child it replaced.
"""

import pytest

import taureau
from taureau.control import ControlLoop, Policy
from taureau.core import FaasPlatform, FunctionSpec, PlatformConfig
from taureau.obs import RunRecorder
from taureau.sim import Simulation


def quick(event, ctx):
    ctx.charge(0.05)


class ActiveProbe(Policy):
    """Records each tick's active functions and the event log position."""

    name = "probe"

    def __init__(self, events):
        self.events = events
        self.ticks = []  # (active functions, events since the last tick)
        self._seen = 0

    def tick(self, signals, actuator):
        since = set(self.events[self._seen:])
        self._seen = len(self.events)
        self.ticks.append((signals.active(), since))


def log_events(faas, events):
    """Append the function of every platform event to ``events``.

    A keep-alive check counts only when it expires its sandbox; one that
    finds the sandbox reused since (executing, or idle with a later
    deadline) changes nothing.
    """
    def logged(method, name_of):
        def wrapper(*args, **kwargs):
            name = name_of(*args)
            if name is not None:
                events.append(name)
            return method(*args, **kwargs)
        return wrapper

    faas._invoke_once = logged(faas._invoke_once, lambda name, *rest: name)
    for method in ("_start", "_finish"):
        setattr(faas, method, logged(
            getattr(faas, method), lambda attempt, *rest: attempt.spec.name))
    faas._expire = logged(faas._expire, lambda sandbox: (
        sandbox.spec.name
        if sandbox.idle_until is not None and faas.sim.now >= sandbox.idle_until
        else None))


class TestChangeSet:
    def test_a_bare_platform_keeps_no_change_set(self):
        sim = Simulation(seed=1)
        faas = FaasPlatform(sim, config=PlatformConfig(keep_alive_s=5.0))
        for index in range(1000):
            faas.register(FunctionSpec(name=f"fn{index}", handler=quick))
        for index in range(200):
            sim.schedule_at(index * 0.05, faas.invoke, f"fn{index * 7 % 1000}")
        sim.run()
        assert faas._changed is None
        assert faas.start_count == 200

    def test_a_second_loop_on_one_platform_raises(self):
        app = taureau.Platform(seed=1)
        ControlLoop(app.faas, [])
        with pytest.raises(RuntimeError, match="already attached"):
            ControlLoop(app.faas, [])

    def test_active_is_bounded_by_the_functions_with_events(self):
        app = taureau.Platform(
            seed=2, tracing=False, config=PlatformConfig(keep_alive_s=30.0))
        for index in range(2000):
            app.register(FunctionSpec(name=f"fn{index}", handler=quick))
        events = []
        log_events(app.faas, events)
        probe = ActiveProbe(events)
        app.with_control(policies=[probe], interval_s=1.0)
        for step in range(40):
            app.sim.schedule_at(step * 0.7, app.invoke,
                                ("fn17", "fn1999")[step % 3 == 0])
        app.run()
        (first, __), *rest = probe.ticks
        assert len(first) == 2000
        idle = 0
        for active, since in rest:
            assert set(active) <= since
            assert len(active) <= len(since)
            idle += not since
        assert idle >= 20  # the keep-alive tail: nothing moves, nothing active
        assert {name for active, __ in rest for name in active} == {
            "fn17", "fn1999"}


class TestRecorderStartTotals:
    def test_cold_fraction_lane_matches_the_starts_by_walk(self, monkeypatch):
        app = taureau.Platform(
            seed=4, machines=1, machine_memory_mb=1024.0, tracing=False,
            config=PlatformConfig(keep_alive_s=6.0))
        names = [f"fn{index}" for index in range(6)]
        for name in names:
            app.register(FunctionSpec(name=name, handler=quick, memory_mb=256))
        previous = {}
        walked = []
        original_tick = RunRecorder.tick

        def walked_tick(recorder):
            original_tick(recorder)
            cold = total = 0.0
            starts = app.faas.metrics.find("starts_by")
            for (__, kind), child in (starts.items() if starts else ()):
                delta = child.value - previous.get(child, 0.0)
                previous[child] = child.value
                total += delta
                if kind == "cold":
                    cold += delta
            walked.append(cold / total if total > 0 else 0.0)

        # The kernel's loop holds the tick registered at install, so the
        # walk wraps the class's tick before with_recorder().
        monkeypatch.setattr(RunRecorder, "tick", walked_tick)
        app.with_recorder(interval_s=1.0)
        recorder = app.recorder
        for index in range(90):
            app.sim.schedule_at(index * 0.4, app.invoke,
                                names[index * index % len(names)])
        app.run()
        lane = recorder._series["faas.cold_fraction"]
        assert lane == walked
        assert any(0.0 < value < 1.0 for value in lane)
        assert app.faas.metrics.counter("sandbox_evictions").value > 0
