"""The closed-loop control plane: signals, actuator, policies, PolicyLab.

Covers the contract stack bottom-up: the Actuator suppresses no-op
writes and attributes every action; the ControlLoop turns cumulative
platform counters into per-tick deltas and feeds alerts through
``Monitor.on_alert``; each reference policy actuates under the traffic
shape it was designed for — and **no policy scales a function up while
its circuit breaker is open**; the PolicyLab replays one seeded
scenario per candidate and renders a byte-stable comparison table.
"""

import pytest

import taureau
from taureau.chaos import ResiliencePolicy, RetryPolicy
from taureau.control import (
    ControlLoop,
    HybridKeepAlive,
    PolicyLab,
    PredictivePrewarm,
    ReactiveConcurrency,
    SignalView,
)
from taureau.core import FunctionSpec


def make_view(**overrides):
    """A hand-assembled SignalView for unit-level policy tests."""
    base = dict(
        now=0.0,
        interval_s=5.0,
        functions=("f",),
        arrivals={},
        cold={},
        warm={},
        queue={},
        running={},
        warm_pool={},
        provisioned={},
        keep_alive={"f": 600.0},
        conc_limit={},
        interarrival={},
        latency={},
        alerts=(),
        breaker={},
    )
    base.update(overrides)
    return SignalView(**base)


def busy(event, ctx):
    ctx.charge(0.5)
    return event


class TestActuator:
    def build(self):
        app = taureau.Platform(seed=0)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        loop = ControlLoop(app.faas, [], interval_s=1.0)
        return app, loop.actuator

    def test_noop_writes_are_suppressed(self):
        app, actuator = self.build()
        assert not actuator.set_keep_alive("f", None)  # no override to clear
        assert not actuator.set_keep_alive("f", app.faas.keep_alive_for("f"))
        assert not actuator.set_concurrency_limit("f", None)
        assert not actuator.set_provisioned_concurrency("f", 0)
        assert actuator.prewarm("f", 0) == 0
        assert actuator.actions == []

    def test_actions_are_recorded_and_attributable(self):
        __, actuator = self.build()
        actuator._policy = "alpha"
        assert actuator.set_keep_alive("f", 42.0)
        actuator._policy = "beta"
        assert actuator.prewarm("f", 2) == 2
        verbs = [(a.policy, a.verb, a.function, a.value)
                 for a in actuator.actions]
        assert verbs == [
            ("alpha", "keep_alive", "f", 42.0),
            ("beta", "prewarm", "f", 2),
        ]
        assert actuator.actions_by(policy="beta") == actuator.actions[1:]
        assert actuator.actions_by(verb="keep_alive") == actuator.actions[:1]
        assert actuator.actions_by(function="ghost") == []

    def test_clearing_an_override_is_a_real_action(self):
        __, actuator = self.build()
        actuator.set_concurrency_limit("f", 7)
        assert actuator.set_concurrency_limit("f", None)
        assert [a.value for a in actuator.actions_by(verb="concurrency_limit")] \
            == [7, None]


class TestSignalViewActive:
    def test_a_view_built_without_active_treats_every_function_as_active(self):
        view = make_view(functions=("f", "g", "h"))
        assert view.active() == ("f", "g", "h")
        assert view.active(also=("g",)) == ("f", "g", "h")

    def test_also_merges_in_deployment_order(self):
        view = make_view(functions=("f", "g", "h"), active=("h",))
        assert view.active() == ("h",)
        assert view.active(also=("f",)) == ("f", "h")
        assert view.active(also={"h": True}) == ("h",)


class TestControlLoopSignals:
    def test_arrival_deltas_reset_between_ticks(self):
        app = taureau.Platform(seed=1)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        loop = ControlLoop(app.faas, [], interval_s=1.0)
        for __ in range(3):
            app.invoke("f")
        app.run()
        view = loop.build_view()
        assert view.arrivals("f") == 3
        assert view.arrival_rate("f") == pytest.approx(3.0)
        view = loop.build_view()
        assert view.arrivals("f") == 0  # delta, not cumulative
        assert view.cold_starts("f") == 0

    def test_instantaneous_state_reflects_platform(self):
        app = taureau.Platform(seed=1)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128,
                                  reserved_concurrency=1))
        for __ in range(4):
            app.invoke("f")  # dispatch is synchronous: 1 running, 3 parked
        loop = ControlLoop(app.faas, [], interval_s=1.0)
        view = loop.build_view()
        assert view.running("f") == 1
        assert view.queue_depth("f") == 3
        assert view.queue_depth() == 3
        assert view.concurrency_limit("f") == 1
        assert view.keep_alive("f") == app.faas.keep_alive_for("f")
        assert not view.breaker_open("f")  # no resilience layer installed

    def test_loop_ticks_with_the_simulation_and_terminates(self):
        seen = []

        class Recorder(ReactiveConcurrency):
            name = "recorder"

            def tick(self, signals, actuator):
                seen.append(signals.now)

        app = taureau.Platform(seed=2)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        app.with_control(policies=[Recorder()], interval_s=1.0)
        for index in range(5):
            app.sim.schedule_at(float(index), app.invoke, "f")
        app.run()
        assert app.control.ticks == len(seen) >= 4
        assert seen == sorted(seen)
        assert not app.sim.has_work()  # the loop never wedges the drain

    def test_alert_buffer_drains_into_one_view(self):
        class FakeEvent:
            kind = "fire"
            severity = "page"

        app = taureau.Platform(seed=3)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        loop = ControlLoop(app.faas, [], interval_s=1.0)
        loop._collect_alert("alert-obj", FakeEvent())
        view = loop.build_view()
        assert view.alerting()
        assert view.alerting(severity="page")
        assert not view.alerting(severity="ticket")
        assert loop.build_view().alerts == ()  # consumed by the first view

    def test_monitor_alerts_reach_policies(self):
        from taureau.obs import BurnRatePolicy, SloObjective

        firing_ticks = []

        class AlertWatcher(ReactiveConcurrency):
            name = "watcher"

            def tick(self, signals, actuator):
                if signals.alerting():
                    firing_ticks.append(signals.now)

        app = taureau.Platform(seed=4)

        @app.function("slow", memory_mb=128)
        def slow(event, ctx):
            ctx.charge(0.4)

        app.with_monitoring(slos=[SloObjective(
            "fast", objective=0.99, window_s=60.0,
            latency="faas.e2e_latency_s", threshold_s=0.01,
            burn_policies=(BurnRatePolicy(30.0, 60.0, 1.5, severity="page"),),
        )], interval_s=1.0)
        app.with_control(policies=[AlertWatcher()], interval_s=1.0)
        for index in range(60):
            app.sim.schedule_at(index * 1.0, app.invoke, "slow")
        app.run()
        assert app.monitor.events, "the SLO must burn"
        assert firing_ticks, "alerts must reach the control loop"


class TestReactiveConcurrency:
    def test_scales_up_on_deep_queue_and_cools_down(self):
        app = taureau.Platform(seed=5)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128,
                                  reserved_concurrency=1))
        app.with_control(
            policies=[ReactiveConcurrency(high_queue=3, step=4,
                                          cooldown_ticks=2)],
            interval_s=1.0,
        )
        for __ in range(12):
            app.invoke("f")
        # Trailing singles keep the simulation (and thus the loop) alive
        # long enough for the cooldown to observe consecutive calm ticks.
        for late in (6.0, 8.0, 10.0, 12.0):
            app.sim.schedule_at(late, app.invoke, "f")
        app.run()
        actions = app.control.actuator.actions
        raises = [a for a in actions
                  if a.verb == "concurrency_limit" and a.value is not None]
        assert raises and raises[0].value == 5  # 1 + step
        # After the burst drains, the override is cleared (cooldown).
        clears = [a for a in actions
                  if a.verb == "concurrency_limit" and a.value is None]
        assert clears
        assert app.faas.concurrency_limit_for("f") == 1  # back to deploy-time

    def test_prewarm_covers_the_backlog(self):
        app = taureau.Platform(seed=5)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128,
                                  reserved_concurrency=2))
        app.with_control(
            policies=[ReactiveConcurrency(high_queue=3, prewarm_cap=4)],
            interval_s=1.0,
        )
        for __ in range(10):
            app.invoke("f")
        app.run()
        prewarms = app.control.actuator.actions_by(verb="prewarm")
        assert prewarms and all(a.value <= 4 for a in prewarms)

    def test_calm_traffic_triggers_nothing(self):
        app = taureau.Platform(seed=5)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        app.with_control(policies=[ReactiveConcurrency()], interval_s=1.0)
        for index in range(5):
            app.sim.schedule_at(index * 10.0, app.invoke, "f")
        app.run()
        assert app.control.actuator.actions == []


class TestPredictivePrewarm:
    def ramp(self, app, intervals=10, interval_s=5.0):
        arrival = 0.0
        for block in range(intervals):
            count = 2 * (block + 1)  # rising rate: the diurnal morning ramp
            for k in range(count):
                arrival = block * interval_s + k * (interval_s / count)
                app.sim.schedule_at(arrival, app.invoke, "f")

    def test_prewarms_on_a_rising_ramp(self):
        app = taureau.Platform(seed=6)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        app.with_control(policies=[PredictivePrewarm(max_prewarm=8)],
                         interval_s=5.0)
        self.ramp(app)
        app.run()
        prewarms = app.control.actuator.actions_by(
            policy="predictive", verb="prewarm"
        )
        assert prewarms, "a rising rate must trigger pre-warming"

    def test_flat_traffic_prewarms_nothing(self):
        app = taureau.Platform(seed=6)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        app.with_control(policies=[PredictivePrewarm()], interval_s=5.0)
        for index in range(40):
            app.sim.schedule_at(index * 1.0, app.invoke, "f")
        app.run()
        assert app.control.actuator.actions == []


class TestHybridKeepAlive:
    def sparse_traffic(self, app, gap_s=30.0, count=20):
        for index in range(count):
            app.sim.schedule_at(index * gap_s, app.invoke, "f")

    def cold_starts(self, app):
        starts = app.faas.metrics.labeled_counter(
            "starts_by", ("function", "start")
        )
        return sum(c.value for (__, kind), c in starts.items()
                   if kind == "cold")

    def test_stretches_keep_alive_past_the_interarrival_gap(self):
        from taureau.core import PlatformConfig

        config = PlatformConfig(keep_alive_s=10.0)  # shorter than the gap
        baseline = taureau.Platform(seed=7, config=config)
        baseline.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        self.sparse_traffic(baseline)
        baseline.run()
        assert self.cold_starts(baseline) == 20  # every call cold

        app = taureau.Platform(seed=7, config=config)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        app.with_control(policies=[HybridKeepAlive(min_samples=4)],
                         interval_s=5.0)
        self.sparse_traffic(app)
        app.run()
        tuned = app.control.actuator.actions_by(verb="keep_alive")
        assert tuned and tuned[0].value > 30.0  # p95 gap x safety
        assert self.cold_starts(app) < 20  # later calls reuse warm sandboxes
        # Idle warmth is free to the user: same execution bill.
        assert app.total_cost_usd() == baseline.total_cost_usd()

    def test_too_few_samples_means_no_tuning(self):
        policy = HybridKeepAlive(min_samples=8)
        app = taureau.Platform(seed=7)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        loop = ControlLoop(app.faas, [policy], interval_s=5.0)
        loop.tick()
        assert loop.actuator.actions == []


class TestBreakerInteraction:
    def test_reactive_never_scales_behind_an_open_breaker(self):
        app = taureau.Platform(seed=8)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128,
                                  reserved_concurrency=1))
        loop = ControlLoop(app.faas, [], interval_s=1.0)
        policy = ReactiveConcurrency(high_queue=2)
        view = make_view(queue={"f": 10}, conc_limit={"f": 1},
                         breaker={"f": "open"})
        policy.tick(view, loop.actuator)
        assert loop.actuator.actions == []
        # half-open is still probing: same rule.
        view = make_view(queue={"f": 10}, conc_limit={"f": 1},
                         breaker={"f": "half_open"})
        policy.tick(view, loop.actuator)
        assert loop.actuator.actions == []

    def test_predictive_never_prewarms_behind_an_open_breaker(self):
        app = taureau.Platform(seed=8)
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
        loop = ControlLoop(app.faas, [], interval_s=1.0)
        policy = PredictivePrewarm(min_arrivals=0, min_latency_s=1.0)
        policy._prev_rate["f"] = 1.0
        view = make_view(arrivals={"f": 50.0}, breaker={"f": "open"})
        policy.tick(view, loop.actuator)
        assert loop.actuator.actions == []

    def test_open_breaker_suppresses_scale_up_end_to_end(self):
        def explode(event, ctx):
            ctx.charge(0.2)
            raise RuntimeError("down")

        app = taureau.Platform(seed=8)
        app.register(FunctionSpec(name="bad", handler=explode, memory_mb=128,
                                  reserved_concurrency=1))
        app.with_resilience(ResiliencePolicy(
            retry=RetryPolicy(max_attempts=0),
            breaker_failure_threshold=2,
            breaker_reset_timeout_s=1000.0,
        ))
        app.with_control(
            policies=[ReactiveConcurrency(high_queue=2),
                      PredictivePrewarm(min_arrivals=2)],
            interval_s=1.0,
        )
        for index in range(20):
            app.sim.schedule_at(index * 0.1, app.invoke, "bad")
        app.run(until=60.0)
        assert app.resilience.breaker_state("bad") == "open"
        assert app.control.ticks > 0
        assert app.control.actuator.actions_by(function="bad") == []


class TestDeterminism:
    def test_controlled_run_is_byte_identical_across_runs(self):
        def scenario(app):
            app.register(FunctionSpec(name="f", handler=busy, memory_mb=128,
                                      reserved_concurrency=1))
            app.with_control(
                policies=[ReactiveConcurrency(high_queue=3),
                          PredictivePrewarm(),
                          HybridKeepAlive(min_samples=4)],
                interval_s=2.0,
            )
            for index in range(30):
                app.sim.schedule_at(index * 0.7, app.invoke, "f")

        report = taureau.Platform(seed=11).verify_determinism(
            scenario, runs=3
        )
        assert report.ok, report.mismatches
        assert len(set(report.digests)) == 1

    def test_same_seed_same_action_log(self):
        def run_once():
            app = taureau.Platform(seed=12)
            app.register(FunctionSpec(name="f", handler=busy, memory_mb=128,
                                      reserved_concurrency=1))
            app.with_control(policies=[ReactiveConcurrency(high_queue=2)],
                             interval_s=1.0)
            for __ in range(10):
                app.invoke("f")
            app.run()
            return app.control.actuator.actions

        assert run_once() == run_once()


class TestPolicyLab:
    def scenario(self, app):
        app.register(FunctionSpec(name="f", handler=busy, memory_mb=128,
                                  reserved_concurrency=1))
        for index in range(20):
            app.sim.schedule_at(index * 0.4, app.invoke, "f")

    def test_reserved_baseline_label_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            PolicyLab(self.scenario, {"static": ReactiveConcurrency})

    def test_candidates_must_be_factories(self):
        with pytest.raises(TypeError, match="factory"):
            PolicyLab(self.scenario, {"reactive": "not-a-factory"})

    def test_table_is_byte_identical_across_runs(self):
        def lab():
            return PolicyLab(
                self.scenario,
                {
                    "reactive": lambda: ReactiveConcurrency(high_queue=2),
                    "hybrid": lambda: HybridKeepAlive(min_samples=4),
                },
                seed=13,
                interval_s=1.0,
            )

        first = lab().run()
        second = lab().run()
        assert first.table() == second.table()
        assert [row["policy"] for row in first.rows] == [
            "static", "reactive", "hybrid",
        ]
        assert first.row("static")["invocations"] == 20

    def test_improvement_over_static_baseline(self):
        from taureau.core import PlatformConfig

        def sparse(app):
            app.register(FunctionSpec(name="f", handler=busy, memory_mb=128))
            for index in range(20):
                app.sim.schedule_at(index * 30.0, app.invoke, "f")

        report = PolicyLab(
            sparse,
            {"hybrid": lambda: HybridKeepAlive(min_samples=4)},
            seed=13,
            interval_s=5.0,
            platform_kwargs={"config": PlatformConfig(keep_alive_s=10.0)},
        ).run()
        improved = report.improvements()
        assert [row["policy"] for row in improved] == ["hybrid"]
        hybrid, static = report.row("hybrid"), report.row("static")
        assert hybrid["cold_fraction"] < static["cold_fraction"]
        assert hybrid["cost_usd"] <= static["cost_usd"]
