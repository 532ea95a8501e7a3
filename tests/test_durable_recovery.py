"""Crash recovery through the journal, and the duplicate-effect audit.

Two halves.  Durable recovery: an injected fault past the retry
budget re-drives the invocation off the journal (with backoff, without
consuming the user's retry allowance), billing only the uncovered
slices.  The audit (issue satellites): each known duplicate-side-effect
hazard of the existing retry/DLQ paths — notification re-publish, KV
counter double-increment, DB re-commit, Pulsar redelivery — gets a
baseline test *demonstrating* the duplicate and a durable test proving
the journal closes it.
"""

import pytest

import taureau
from taureau.chaos import (
    ChaosExperiment,
    FaultInjected,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
    all_invocations_terminated,
    exactly_once_effects,
    no_double_billing,
    no_lost_acked_work,
)
from taureau.durable import DurabilityManager
from taureau.pulsar import PulsarFunction


def counter_scenario(app, invocations=40, spread_s=4.0):
    """Register a billing+KV workload; returns nothing (scenario form)."""
    app.with_kvstore()

    @app.function("writer")
    def writer(event, ctx):
        ctx.charge(0.05)
        ctx.service("kv").counter_add("total", 1, ctx=ctx)
        return event

    step = spread_s / invocations
    for index in range(invocations):
        app.sim.schedule_at(index * step, app.invoke, "writer", index)


def mixed_plan(span=4.0):
    """Sandbox crashes across the run plus a hard BaaS error window."""
    return (FaultPlan()
            .crash_sandbox(rate_hz=2.0, start_s=0.0, end_s=span)
            .baas_errors(start_s=0.2 * span, end_s=0.4 * span,
                         error_rate=1.0, component="baas.kv"))


class TestRecoveryManager:
    def test_faults_recover_without_resilience_layer(self):
        experiment = ChaosExperiment(
            counter_scenario,
            plan=FaultPlan().crash_sandbox(rate_hz=2.0, start_s=0.0, end_s=4.0),
            seed=11,
            durability=True,
            invariants=[all_invocations_terminated, exactly_once_effects,
                        no_lost_acked_work, no_double_billing],
        )
        report = experiment.run()
        assert report.ok, report.summary()
        assert report.fault_events, "the plan must actually inject faults"
        summary = report.platform.durable.summary()
        assert summary["recoveries"] > 0
        assert summary["recoveries_exhausted"] == 0
        assert summary["entries_open"] == 0

    def test_recovery_does_not_consume_user_retry_budget(self):
        app = taureau.Platform(seed=5).with_durability()

        @app.function("fn", max_retries=0)
        def fn(event, ctx):
            ctx.charge(2.0)  # long enough that the crash lands mid-flight
            return event

        app.with_chaos(FaultPlan().crash_sandbox(at_s=1.0))
        record = app.invoke_sync("fn", "x")
        # max_retries=0: without durable recovery the injected crash
        # would have failed the record outright.
        assert record.succeeded
        assert app.durable.summary()["recoveries"] >= 1

    def test_non_fault_errors_are_not_recovered(self):
        app = taureau.Platform(seed=5).with_durability()

        @app.function("buggy", max_retries=0)
        def buggy(event, ctx):
            ctx.charge(0.01)
            raise RuntimeError("application bug")

        record = app.invoke_sync("buggy")
        assert not record.succeeded
        assert app.durable.summary()["recoveries"] == 0

    def test_recoveries_cap_exhausts_inside_endless_fault_window(self):
        app = taureau.Platform(seed=5).with_durability()

        @app.function("fn", max_retries=0)
        def fn(event, ctx):
            ctx.charge(2000.0)  # every attempt outlives the fault window
            return event

        app.with_chaos(
            FaultPlan().crash_sandbox(rate_hz=1.0, start_s=0.0, end_s=1e7)
        )
        record = app.invoke_sync("fn")
        assert not record.succeeded
        summary = app.durable.summary()
        assert summary["recoveries_exhausted"] == 1
        assert summary["recoveries"] == 8  # RECOVERY.max_attempts

    def test_recovery_backoff_is_the_retry_policy_formula(self):
        manager = DurabilityManager()
        entry = manager.open_entry("fn")
        fault = FaultInjected("crash", kind="sandbox_crash", component="faas")
        delays = []
        while manager.should_recover(entry, fault):
            delays.append(manager.recovery_delay(entry))
        assert delays == [0.5 * 2.0 ** n for n in range(8)]
        with pytest.raises(TypeError):
            taureau.Platform(seed=5).with_durability(manager)

    def test_parked_work_takes_the_slot_during_recovery_backoff(self):
        app = taureau.Platform(seed=5).with_durability()

        @app.function("fn", max_retries=0, reserved_concurrency=1)
        def fn(event, ctx):
            ctx.charge(2.0)
            return event

        app.with_chaos(FaultPlan().crash_sandbox(at_s=1.0))
        crashed = app.invoke("fn", "a")
        parked = app.invoke("fn", "b")
        app.run()
        assert crashed.value.succeeded and parked.value.succeeded
        # The crash frees the only slot at t=1; the parked call starts
        # then, not after the recovered call re-dispatches at t=1.5.
        assert parked.value.start_time < 1.5

    def test_resilience_and_durability_compose(self):
        experiment = ChaosExperiment(
            counter_scenario,
            plan=mixed_plan(),
            seed=11,
            durability=True,
            policy=ResiliencePolicy(retry=RetryPolicy(max_attempts=3)),
            invariants=[all_invocations_terminated, exactly_once_effects,
                        no_lost_acked_work, no_double_billing],
        )
        report = experiment.run()
        assert report.ok, report.summary()
        assert report.platform.kv.get("total") == 40


class TestBillingHighWaterMark:
    def test_replayed_attempt_is_credited(self):
        app = taureau.Platform(seed=5).with_durability()
        state = {"failed": False}

        @app.function("fn", max_retries=1)
        def fn(event, ctx):
            ctx.charge(0.55)
            if not state["failed"]:
                state["failed"] = True
                raise RuntimeError("fails after billing 6 slices")
            return "ok"

        record = app.invoke_sync("fn")
        assert record.succeeded
        # Both attempts billed 0.55s => 6 slices each raw; the journal
        # credits the second attempt's overlap entirely.
        assert record.billed_duration_s == pytest.approx(0.6)
        assert app.durable.summary()["billing_credit_slices"] == 6
        metric = app.faas.metrics.find("billing.double_billed_slices")
        assert metric is None or metric.value == 0

    def test_baseline_platform_retry_double_bills(self):
        app = taureau.Platform(seed=5)
        state = {"failed": False}

        @app.function("fn", max_retries=1)
        def fn(event, ctx):
            ctx.charge(0.55)
            if not state["failed"]:
                state["failed"] = True
                raise RuntimeError("fails after billing")
            return "ok"

        record = app.invoke_sync("fn")
        assert record.succeeded
        assert record.billed_duration_s == pytest.approx(1.2)  # both, in full
        assert app.faas.metrics.find(
            "billing.double_billed_slices"
        ).value == 6
        ok, detail = no_double_billing(app)
        assert not ok, detail

    def test_baseline_resilience_retry_double_bills(self):
        app = taureau.Platform(seed=5).with_resilience(
            ResiliencePolicy(retry=RetryPolicy(max_attempts=2))
        )
        state = {"failed": False}

        @app.function("fn")
        def fn(event, ctx):
            ctx.charge(0.25)
            if not state["failed"]:
                state["failed"] = True
                raise RuntimeError("fails after billing")
            return "ok"

        record = app.invoke_sync("fn")
        assert record.succeeded
        assert app.faas.metrics.find(
            "billing.double_billed_slices"
        ).value == 3


class TestDuplicateEffectAudit:
    """Satellite: the duplicate-side-effect audit of existing retry paths.

    Each pair documents a hazard the E38-style chaos plan exposes in the
    plain retry machinery and proves the durable layer closes it.
    """

    def test_kv_counter_baseline_overcounts_and_durable_does_not(self):
        def build(durable):
            app = taureau.Platform(seed=5).with_kvstore()
            if durable:
                app.with_durability()
            state = {"failed": False}

            @app.function("fn", max_retries=1)
            def fn(event, ctx):
                ctx.charge(0.01)
                ctx.service("kv").counter_add("n", 1, ctx=ctx)
                if not state["failed"]:
                    state["failed"] = True
                    raise RuntimeError("transient after increment")
                return "ok"

            assert app.invoke_sync("fn").succeeded
            return app.kv.get("n")

        assert build(durable=False) == 2, "baseline double-increments"
        assert build(durable=True) == 1, "journal replays the increment"

    def test_notification_baseline_republishes_and_durable_does_not(self):
        def build(durable):
            app = taureau.Platform(seed=5).with_notifications()
            if durable:
                app.with_durability()
            app.sns.create_topic("t")
            deliveries = []
            app.sns.subscribe("t", deliveries.append)
            state = {"failed": False}

            @app.function("fn", max_retries=1)
            def fn(event, ctx):
                ctx.charge(0.01)
                ctx.service("sns").publish("t", event, ctx=ctx)
                if not state["failed"]:
                    state["failed"] = True
                    raise RuntimeError("transient after publish")
                return "ok"

            assert app.invoke_sync("fn", "msg").succeeded
            app.run()
            return deliveries

        assert build(durable=False) == ["msg", "msg"]
        assert build(durable=True) == ["msg"]

    def test_db_autocommit_baseline_rewrites_and_durable_does_not(self):
        def build(durable):
            app = taureau.Platform(seed=5).with_database()
            if durable:
                app.with_durability()
            app.db.create_table("rows")
            state = {"failed": False}

            @app.function("fn", max_retries=1)
            def fn(event, ctx):
                ctx.charge(0.01)
                ctx.service("db").put("rows", "k", {"v": event}, ctx=ctx)
                if not state["failed"]:
                    state["failed"] = True
                    raise RuntimeError("transient after write")
                return "ok"

            assert app.invoke_sync("fn", 9).succeeded
            return app.db._row("rows", "k").version

        assert build(durable=False) == 2, "baseline bumps the version twice"
        assert build(durable=True) == 1, "replay leaves one committed write"


class TestPulsarRedelivery:
    def build(self, durable, seed=3):
        app = taureau.Platform(seed=seed)
        runtime = app.with_pulsar(broker_count=3, bookie_count=3).pulsar
        if durable:
            app.with_durability()
        runtime.cluster.create_topic("in")
        runtime.cluster.create_topic("out")
        outputs = []
        runtime.cluster.subscribe(
            "out", subscription_name="sink",
            listener=lambda message, consumer: (
                outputs.append(message.payload), consumer.ack(message)
            ),
        )
        state = {"failed": False}

        def process(payload, ctx):
            ctx.publish("out", payload)
            if not state["failed"]:
                state["failed"] = True
                raise RuntimeError("crash after the side output")
            return None

        runtime.deploy(PulsarFunction(
            "relay", process=process, input_topics=["in"],
        ))
        return app, runtime, outputs

    def test_baseline_redelivery_duplicates_side_output(self):
        app, runtime, outputs = self.build(durable=False)
        runtime.cluster.producer("in").send("payload")
        app.run()
        # First delivery published then nacked; the redelivery publishes
        # again — the classic at-least-once duplicate.
        assert outputs == ["payload", "payload"]

    def test_durable_redelivery_replays_side_output(self):
        app, runtime, outputs = self.build(durable=True)
        runtime.cluster.producer("in").send("payload")
        app.run()
        assert outputs == ["payload"]
        ok, detail = exactly_once_effects(app)
        assert ok, detail

    def test_completed_message_dedups_on_redelivery(self):
        app = taureau.Platform(seed=3)
        runtime = app.with_pulsar().pulsar
        app.with_durability()
        runtime.cluster.create_topic("in")
        processed = []
        seen = []

        def process(payload, ctx):
            seen.append(ctx.current_message)
            processed.append(payload)

        runtime.deploy(PulsarFunction(
            "consume", process=process, input_topics=["in"],
        ))
        runtime.cluster.producer("in").send("m0")
        app.run()
        assert processed == ["m0"]
        entries = app.durable.journal.entries
        assert any(key.startswith("pulsar:consume:") for key in entries)
        # Simulate a lost ack: the broker redelivers the message the
        # first delivery fully processed.
        message = seen[0]
        subscription = None
        for broker in runtime.cluster.brokers:
            for topic in broker.topics.values():
                for candidate in topic.subscriptions.values():
                    if candidate.name == "fn-consume":
                        subscription = candidate
        assert subscription is not None
        subscription._redeliver(message)
        app.run()
        assert processed == ["m0"], "the redelivery must not reprocess"
        assert app.durable.summary()["messages_deduped"] == 1
