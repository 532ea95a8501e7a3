"""Tests for the virtual-time rule engine: rules, SLOs, burn-rate alerts."""

import pytest

from taureau.obs import (
    BurnRatePolicy,
    Monitor,
    RecordingRule,
    SloObjective,
)
from taureau.sim import MetricRegistry, Simulation


def make_monitor(interval_s=1.0):
    sim = Simulation(seed=1)
    registry = MetricRegistry(namespace="app")
    monitor = Monitor(sim, [registry], interval_s=interval_s)
    return sim, registry, monitor


class TestRecordingRules:
    def test_rate_over_window(self):
        sim, registry, monitor = make_monitor()
        monitor.add_rule(RecordingRule("req_rate", "rate", "app.requests", window_s=10.0))
        requests = registry.counter("requests")
        for _ in range(20):
            sim.run(until=sim.now + 1.0)
            requests.add(5)
            monitor.tick()
        series = monitor.results.series("req_rate")
        # Steady 5/s once the window is full.
        assert series.values[-1] == pytest.approx(5.0)

    def test_ratio_rule_and_flat_denominator(self):
        sim, registry, monitor = make_monitor()
        monitor.add_rule(RecordingRule(
            "err_ratio", "ratio", "app.errors",
            denominator="app.requests", window_s=10.0,
        ))
        monitor.tick()  # both counters missing -> 0, not a crash
        assert monitor.results.series("err_ratio").values[-1] == 0.0
        requests = registry.counter("requests")
        errors = registry.counter("errors")
        for _ in range(10):
            sim.run(until=sim.now + 1.0)
            requests.add(4)
            errors.add(1)
            monitor.tick()
        assert monitor.results.series("err_ratio").values[-1] == pytest.approx(0.25)

    def test_quantile_rule_windows_out_old_samples(self):
        sim, registry, monitor = make_monitor()
        monitor.add_rule(RecordingRule(
            "p99", "quantile", "app.latency_s", window_s=5.0, q=99,
        ))
        latency = registry.histogram("latency_s")
        for _ in range(10):
            sim.run(until=sim.now + 1.0)
            latency.observe(0.010)
            monitor.tick()
        slow_phase_start = monitor.results.series("p99").values[-1]
        assert slow_phase_start == pytest.approx(0.010, rel=0.06)
        for _ in range(10):
            sim.run(until=sim.now + 1.0)
            latency.observe(1.0)
            monitor.tick()
        # The 10ms era has aged out of the 5 s window entirely.
        assert monitor.results.series("p99").values[-1] == pytest.approx(1.0, rel=0.06)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            RecordingRule("r", "bogus", "x")
        with pytest.raises(ValueError):
            RecordingRule("r", "ratio", "x")  # no denominator
        with pytest.raises(ValueError):
            RecordingRule("r", "rate", "x", window_s=0.0)
        _sim, _registry, monitor = make_monitor()
        monitor.add_rule(RecordingRule("r", "rate", "x"))
        with pytest.raises(ValueError):
            monitor.add_rule(RecordingRule("r", "rate", "y"))


class TestSloObjective:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SloObjective("s", objective=1.5, good="g", total="t")
        with pytest.raises(ValueError):
            SloObjective("s", objective=0.99)  # neither shape
        with pytest.raises(ValueError):
            SloObjective(  # both shapes
                "s", objective=0.99, good="g", total="t",
                latency="l", threshold_s=0.1,
            )
        slo = SloObjective("s", objective=0.99, good="g", total="t")
        assert slo.budget == pytest.approx(0.01)

    def test_burn_policy_validation(self):
        with pytest.raises(ValueError):
            BurnRatePolicy(10.0, 5.0, 2.0)  # short > long
        with pytest.raises(ValueError):
            BurnRatePolicy(5.0, 10.0, 0.0)


class TestBurnRateAlerts:
    def build(self):
        sim, registry, monitor = make_monitor()
        monitor.add_slo(SloObjective(
            "avail", objective=0.9, window_s=60.0,
            good="app.good", total="app.total",
            burn_policies=(BurnRatePolicy(3.0, 6.0, 2.0, severity="page"),),
        ))
        return sim, registry, monitor

    def test_alert_fires_and_resolves(self):
        sim, registry, monitor = self.build()
        good, total = registry.counter("good"), registry.counter("total")
        # Healthy phase: no alert.
        for _ in range(10):
            sim.run(until=sim.now + 1.0)
            good.add(10)
            total.add(10)
            monitor.tick()
        assert monitor.events == []
        # Outage: 50% errors => burn 5x the 10% budget, above factor 2.
        for _ in range(8):
            sim.run(until=sim.now + 1.0)
            good.add(5)
            total.add(10)
            monitor.tick()
        fired = [e for e in monitor.events if e.kind == "fire"]
        assert len(fired) == 1
        assert fired[0].severity == "page"
        assert "avail:burn2x" in fired[0].name
        assert monitor.active_alerts()
        # Recovery: burn decays below the factor in both windows.
        for _ in range(10):
            sim.run(until=sim.now + 1.0)
            good.add(10)
            total.add(10)
            monitor.tick()
        kinds = [e.kind for e in monitor.events]
        assert kinds == ["fire", "resolve"]
        assert monitor.active_alerts() == []
        resolved = monitor.alerts[0]
        assert resolved.resolved_at > resolved.fired_at

    def test_short_blip_does_not_page(self):
        sim, registry, monitor = self.build()
        good, total = registry.counter("good"), registry.counter("total")
        for _ in range(6):
            sim.run(until=sim.now + 1.0)
            good.add(10)
            total.add(10)
            monitor.tick()
        # One bad second: the long window stays below the factor.
        sim.run(until=sim.now + 1.0)
        total.add(10)
        monitor.tick()
        for _ in range(6):
            sim.run(until=sim.now + 1.0)
            good.add(10)
            total.add(10)
            monitor.tick()
        assert monitor.events == []

    def test_error_budget_accounting(self):
        sim, registry, monitor = self.build()
        slo = monitor.slos[0]
        good, total = registry.counter("good"), registry.counter("total")
        for _ in range(10):
            sim.run(until=sim.now + 1.0)
            good.add(95)
            total.add(100)
            monitor.tick()
        # 5% errors against a 10% budget: half the budget left.
        assert monitor.error_ratio(slo, 60.0) == pytest.approx(0.05)
        assert monitor.burn_rate(slo, 60.0) == pytest.approx(0.5)
        assert monitor.error_budget_remaining(slo) == pytest.approx(0.5)
        status = monitor.slo_status()["avail"]
        assert status["budget_remaining"] == pytest.approx(0.5)

    def test_latency_slo(self):
        sim, registry, monitor = make_monitor()
        monitor.add_slo(SloObjective(
            "fast", objective=0.9, window_s=60.0,
            latency="app.latency_s", threshold_s=0.1,
            burn_policies=(BurnRatePolicy(3.0, 6.0, 2.0),),
        ))
        latency = registry.histogram("latency_s")
        for _ in range(10):
            sim.run(until=sim.now + 1.0)
            latency.observe(0.010)  # within threshold
            latency.observe(2.0)    # breach: 50% slow
            monitor.tick()
        assert monitor.events and monitor.events[0].kind == "fire"
        slo = monitor.slos[0]
        assert monitor.error_ratio(slo, 60.0) == pytest.approx(0.5)

    def test_latency_slo_matches_a_bucket_walk_every_tick(self):
        import bisect
        import random

        sim, registry, monitor = make_monitor()
        slo = monitor.add_slo(SloObjective(
            "fast", objective=0.9, window_s=20.0,
            latency="app.latency_s", threshold_s=0.1,
            burn_policies=(BurnRatePolicy(3.0, 8.0, 2.0),),
        ))
        latency = registry.histogram("latency_s")
        rng = random.Random(3)
        times, states = [], []

        def walked_below(state):
            __, zero, counts = state
            return zero + sum(
                count for index, count in counts.items()
                if latency.bucket_upper(index) <= 0.1 * (1.0 + 1e-12))

        def reference(window_s):
            index = bisect.bisect_right(times, sim.now - window_s) - 1
            then = states[max(index, 0)]
            total = latency.count - then[0]
            if total <= 0:
                return 0.0
            good = walked_below(latency.state()) - walked_below(then)
            return max(0.0, 1.0 - good / total)

        for __ in range(40):
            sim.run(until=sim.now + 1.0)
            for __ in range(rng.randint(0, 6)):
                latency.observe(rng.choice((0.0, rng.expovariate(8.0))))
            monitor.tick()
            times.append(sim.now)
            states.append(latency.state())
            for window_s in (3.0, 8.0, 20.0):
                assert monitor.error_ratio(slo, window_s) == reference(window_s)

    def test_each_snapshot_is_walked_at_most_once(self, monkeypatch):
        from taureau.obs import slo as slo_module

        walks = {}
        held = []
        walk = slo_module._count_at_or_below_state

        def counting_walk(histogram, state, threshold):
            held.append(state)  # keeps ids unique for the whole test
            key = (id(state), threshold)
            walks[key] = walks.get(key, 0) + 1
            return walk(histogram, state, threshold)

        monkeypatch.setattr(slo_module, "_count_at_or_below_state",
                            counting_walk)
        sim, registry, monitor = make_monitor()
        monitor.add_slo(SloObjective(
            "fast", objective=0.9, window_s=10.0,
            latency="app.latency_s", threshold_s=0.1,
            burn_policies=(BurnRatePolicy(2.0, 5.0, 2.0),
                           BurnRatePolicy(5.0, 10.0, 1.5)),
        ))
        latency = registry.histogram("latency_s")
        for step in range(30):
            sim.run(until=sim.now + 1.0)
            latency.observe(0.01 if step % 3 else 2.0)
            monitor.tick()
            monitor.slo_status()
        assert walks and max(walks.values()) == 1

    def test_alert_listener_callbacks(self):
        sim, registry, monitor = self.build()
        seen = []
        monitor.on_alert(lambda alert, event: seen.append((alert.name, event.kind)))
        total = registry.counter("total")
        for _ in range(8):
            sim.run(until=sim.now + 1.0)
            total.add(10)  # 100% errors
            monitor.tick()
        assert seen and seen[0][1] == "fire"


class TestSelfScheduling:
    def test_monitor_does_not_block_simulation_drain(self):
        sim = Simulation(seed=0)
        registry = MetricRegistry(namespace="app")
        monitor = Monitor(sim, [registry], interval_s=1.0)
        monitor.add_rule(RecordingRule("rate", "rate", "app.requests", window_s=5.0))
        requests = registry.counter("requests")
        for i in range(5):
            sim.schedule_after(i * 1.0, requests.add, 1)
        monitor.ensure_running()
        sim.run()  # must terminate: the monitor stops with the workload
        assert monitor.ticks >= 4
        assert sim.now < 100.0

    def test_registries_callable_resolves_late_attachments(self):
        sim = Simulation(seed=0)
        registries = []
        monitor = Monitor(sim, lambda: registries, interval_s=1.0)
        monitor.add_rule(RecordingRule("rate", "rate", "app.requests", window_s=5.0))
        sim.run(until=1.0)
        monitor.tick()  # source missing everywhere -> treated as zero
        registry = MetricRegistry(namespace="app")
        registries.append(registry)
        registry.counter("requests").add(10)
        sim.run(until=2.0)
        monitor.tick()
        assert monitor.results.series("rate").values[-1] > 0.0

    def test_determinism_same_seed_same_alerts(self):
        def run():
            sim = Simulation(seed=3)
            registry = MetricRegistry(namespace="app")
            monitor = Monitor(sim, [registry], interval_s=1.0)
            monitor.add_slo(SloObjective(
                "avail", objective=0.95, window_s=30.0,
                good="app.good", total="app.total",
                burn_policies=(BurnRatePolicy(2.0, 4.0, 1.5),),
            ))
            good, total = registry.counter("good"), registry.counter("total")
            rng = sim.rng.stream("workload")
            for _ in range(40):
                sim.run(until=sim.now + 1.0)
                total.add(10)
                good.add(10 if rng.random() < 0.8 else 5)
                monitor.tick()
            return [(e.name, e.kind, e.time, e.severity) for e in monitor.events]

        first, second = run(), run()
        assert first == second
        assert any(kind == "fire" for _n, kind, _t, _s in first)


class TestAlertCallbackRegistration:
    def build(self):
        sim, registry, monitor = make_monitor()
        monitor.add_slo(SloObjective(
            "avail", objective=0.9, window_s=60.0,
            good="app.good", total="app.total",
            burn_policies=(BurnRatePolicy(3.0, 6.0, 2.0, severity="page"),),
        ))
        return sim, registry, monitor

    def burn(self, sim, registry, monitor, ticks=8):
        total = registry.counter("total")
        for _ in range(ticks):
            sim.run(until=sim.now + 1.0)
            total.add(10)  # 100% errors
            monitor.tick()

    def test_multiple_callbacks_fire_in_registration_order(self):
        sim, registry, monitor = self.build()
        order = []
        monitor.on_alert(lambda alert, event: order.append("first"))
        monitor.on_alert(lambda alert, event: order.append("second"))
        monitor.on_alert(lambda alert, event: order.append("third"))
        self.burn(sim, registry, monitor)
        assert order, "the outage must page"
        # Every emission reaches every listener, in registration order.
        assert order == ["first", "second", "third"] * (len(order) // 3)

    def test_on_alert_returns_the_callback(self):
        __, __reg, monitor = self.build()
        def listener(alert, event):
            pass
        assert monitor.on_alert(listener) is listener

    def test_callback_reentering_tick_raises_named_error(self):
        from taureau.obs import MonitorReentrancyError

        sim, registry, monitor = self.build()
        monitor.on_alert(lambda alert, event: monitor.tick())
        with pytest.raises(MonitorReentrancyError, match="re-entered"):
            self.burn(sim, registry, monitor)

    def test_tick_usable_again_after_reentrancy_error(self):
        from taureau.obs import MonitorReentrancyError

        sim, registry, monitor = self.build()
        bomb = monitor.on_alert(lambda alert, event: monitor.tick())
        with pytest.raises(MonitorReentrancyError):
            self.burn(sim, registry, monitor)
        monitor.listeners.remove(bomb)
        self.burn(sim, registry, monitor, ticks=2)  # no residual lock
