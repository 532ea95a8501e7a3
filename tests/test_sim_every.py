"""Housekeeping loops on the kernel clock: ``Simulation.every``.

A loop ticks while foreground work remains, sleeps when none does, and
wakes when work is next scheduled, whoever schedules it: the facade,
``app.sim`` directly, or a bare simulation.
"""

import pytest

import taureau
from taureau.core import PlatformConfig
from taureau.obs import Monitor, RecordingRule
from taureau.sim import MetricRegistry, Simulation


def test_interval_must_be_positive():
    sim = Simulation()
    for interval_s in (0.0, -1.0):
        with pytest.raises(ValueError):
            sim.every(interval_s, lambda: None)


def test_loops_stop_at_a_drain_and_resume_with_new_work():
    sim = Simulation()
    ticks = []
    sim.every(1.0, lambda: ticks.append(("a", sim.now)))
    sim.every(1.0, lambda: ticks.append(("b", sim.now)))
    for when in (0.5, 2.5):
        sim.schedule_at(when, lambda: None)
    sim.run()
    # Each loop's tick at t=3 finds only the other's tick queued.
    assert ticks == [("a", 1.0), ("b", 1.0), ("a", 2.0), ("b", 2.0),
                     ("a", 3.0), ("b", 3.0)]
    assert not sim.has_work()
    sim.schedule_at(sim.now + 0.5, lambda: None)
    sim.run()
    assert ticks[6:] == [("a", 4.0), ("b", 4.0)]
    assert not sim.has_work()


def test_arming_a_loop_wakes_no_other():
    sim = Simulation()
    ticks = []
    sim.every(1.0, lambda: ticks.append(("a", sim.now)))
    sim.run()
    sim.every(2.0, lambda: ticks.append(("b", sim.now)))
    sim.run()
    assert ticks == [("a", 1.0), ("b", 3.0)]


def test_bare_monitor_ticks_after_a_drain():
    sim = Simulation(seed=0)
    registry = MetricRegistry(namespace="app")
    monitor = Monitor(sim, [registry], interval_s=1.0)
    monitor.add_rule(RecordingRule("rate", "rate", "app.requests", window_s=5.0))
    requests = registry.counter("requests")
    for i in range(5):
        sim.schedule_after(i * 1.0, requests.add, 1)
    monitor.ensure_running()
    sim.run()
    first_phase = monitor.ticks
    assert first_phase == 4
    for i in range(15):
        sim.schedule_after(i * 1.0, requests.add, 1)
    sim.run()
    assert monitor.ticks - first_phase == 14


def _loop_ticks(app):
    return (app.monitor.ticks, app.recorder.ticks, app.control.ticks)


def test_facade_loops_follow_work_scheduled_through_app_sim():
    app = taureau.Platform(
        seed=5, tracing=False, config=PlatformConfig(keep_alive_s=10.0))

    @app.function("work", memory_mb=128)
    def work(event, ctx):
        ctx.charge(0.05)
        return event

    app.with_monitoring().with_recorder().with_control()
    for index in range(20):
        app.invoke("work", index)
    app.run()
    first_phase = _loop_ticks(app)
    start = app.sim.now
    for index in range(20):
        app.sim.schedule_at(start + index * 0.5, app.faas.invoke, "work", index)
    app.sim.run()
    second_phase = tuple(
        after - before for after, before in zip(_loop_ticks(app), first_phase))
    assert min(first_phase) > 0
    assert min(second_phase) > 0
    # The second phase outlasts the first by its 9.5 s of arrivals.
    assert second_phase[0] >= first_phase[0] + 9


def test_sanitized_loops_pass_verify_determinism():
    def scenario(app):
        @app.function("work", memory_mb=128)
        def work(event, ctx):
            ctx.charge(0.05)
            return event

        app.with_monitoring().with_recorder().with_control()
        for index in range(10):
            app.invoke("work", index)

    app = taureau.Platform(
        seed=5, sanitize=True, config=PlatformConfig(keep_alive_s=5.0))
    report = app.verify_determinism(scenario)
    assert report.ok, report.render()
    sibling = taureau.Platform(
        seed=5, sanitize=True, config=PlatformConfig(keep_alive_s=5.0))
    scenario(sibling)

    def marker():
        pass

    # A foreground entry at a loop's tick time is a real tie.
    sibling.sim.schedule_at(2.0, marker)
    sibling.run()
    messages = [f.message for f in sibling.sanitizer.findings_of("tie-break")]
    # The kernel orders two loops' ticks itself: no finding.
    loops = ("Monitor.tick", "RunRecorder.tick", "ControlLoop.tick")
    assert not [message for message in messages
                if sum(loop in message for loop in loops) == 2]
    # Loop entries are named after their owner's tick, never by repr().
    assert any("marker" in message and "Monitor.tick" in message
               for message in messages)
    assert not any(" at 0x" in message for message in messages)
