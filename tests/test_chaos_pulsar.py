"""Chaos over Pulsar: broker/bookie crashes mid-stream, redelivery, DLQ.

The contract under test: a broker or bookie crash during active
dispatch never loses an acked message — topics fail over, unacked
deliveries are redelivered, and poison messages land in the dead-letter
queue instead of wedging the subscription.
"""

import taureau
from taureau.chaos import (
    ChaosExperiment,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
    no_inflight_messages,
    sandboxes_conserved,
)
from taureau.pulsar import PulsarFunction


def attach_pulsar(app, topic="events", partitions=3):
    runtime = app.with_pulsar(broker_count=3, bookie_count=3).pulsar
    runtime.cluster.create_topic(topic, partitions=partitions)
    return runtime


class TestBrokerCrash:
    def test_crash_during_dispatch_loses_no_messages(self):
        app = taureau.Platform(seed=3)
        runtime = attach_pulsar(app)
        processed = []
        runtime.deploy(PulsarFunction(
            "collect",
            process=lambda payload, ctx: processed.append(payload),
            input_topics=["events"],
        ))
        app.with_chaos(FaultPlan().crash_broker(at_s=0.5))
        producer = runtime.cluster.producer("events")
        for index in range(40):
            app.sim.schedule_at(
                index * 0.05, lambda i=index: producer.send(i)
            )
        app.run()
        assert sorted(processed) == list(range(40))
        assert [e.kind for e in app.chaos.events] == ["broker_crash"]
        # The crashed broker's partitions were adopted by live peers.
        crashed = next(
            b for b in runtime.cluster.brokers if not b.alive
        )
        assert not crashed.topics
        ok, detail = no_inflight_messages(app)
        assert ok, detail

    def test_last_live_broker_is_never_crashed(self):
        app = taureau.Platform(seed=0)
        runtime = app.with_pulsar(broker_count=1, bookie_count=3).pulsar
        runtime.cluster.create_topic("t")
        app.with_chaos(FaultPlan().crash_broker(at_s=1.0))
        app.run()
        assert all(b.alive for b in runtime.cluster.brokers)
        skipped = [e for e in app.chaos.events if e.target == "(no target)"]
        assert skipped and "last live broker" in skipped[0].detail
        snapshot = app.chaos.metrics.snapshot()
        assert "chaos.faults_injected_by" not in {
            key.split("{")[0] for key in snapshot
        }

    def test_recover_after_rejoins_rotation(self):
        app = taureau.Platform(seed=1)
        runtime = attach_pulsar(app)
        app.with_chaos(FaultPlan().crash_broker(at_s=1.0, recover_after_s=2.0))
        app.run()
        assert all(b.alive for b in runtime.cluster.brokers)
        kinds = [e.kind for e in app.chaos.events]
        assert kinds == ["broker_crash", "broker_recover"]
        recover = app.chaos.events[-1]
        assert recover.time == 3.0


class TestBookieCrash:
    def test_quorum_survives_one_bookie_loss(self):
        app = taureau.Platform(seed=2)
        runtime = attach_pulsar(app, partitions=1)
        processed = []
        runtime.deploy(PulsarFunction(
            "collect",
            process=lambda payload, ctx: processed.append(payload),
            input_topics=["events"],
        ))
        app.with_chaos(FaultPlan().crash_bookie(at_s=0.3, recover_after_s=1.0))
        producer = runtime.cluster.producer("events")
        for index in range(20):
            app.sim.schedule_at(
                index * 0.05, lambda i=index: producer.send(i)
            )
        app.run()
        # write_quorum=2 of 3 bookies: one loss never blocks an ack.
        assert sorted(processed) == list(range(20))
        assert all(b.alive for b in runtime.cluster.bookies)
        kinds = [e.kind for e in app.chaos.events]
        assert kinds == ["bookie_crash", "bookie_recover"]


class TestRedelivery:
    def test_transient_failure_is_redelivered_until_success(self):
        app = taureau.Platform(seed=4)
        runtime = attach_pulsar(app, partitions=1)
        attempts = {}
        processed = []

        def flaky(payload, ctx):
            attempts[payload] = attempts.get(payload, 0) + 1
            if attempts[payload] <= 2:
                raise RuntimeError("transient")
            processed.append(payload)

        runtime.deploy(PulsarFunction(
            "flaky", process=flaky, input_topics=["events"],
            max_redeliveries=5,
        ))
        producer = runtime.cluster.producer("events")
        producer.send("m1")
        producer.send("m2")
        app.run()
        assert sorted(processed) == ["m1", "m2"]
        assert attempts == {"m1": 3, "m2": 3}
        ok, detail = no_inflight_messages(app)
        assert ok, detail

    def test_poison_message_goes_to_dead_letter_topic(self):
        app = taureau.Platform(seed=5)
        runtime = attach_pulsar(app, partitions=1)
        dead = []

        def poison(payload, ctx):
            raise RuntimeError("always fails")

        runtime.deploy(PulsarFunction(
            "poison", process=poison, input_topics=["events"],
            max_redeliveries=2, dead_letter_topic="events-dlq",
        ))
        producer = runtime.cluster.producer("events")
        producer.send({"id": 1})
        app.run()
        # The DLQ topic was auto-created and received the poison payload.
        runtime.cluster.subscribe(
            "events-dlq", "inspect",
            listener=lambda m, c: (dead.append(m.payload), c.ack(m)),
            replay_backlog=True,
        )
        app.run()
        assert dead == [{"id": 1}]
        assert runtime.metrics.counter("poison.dead_lettered").value == 1
        family = runtime.metrics.labeled_counter(
            "dead_letters_by", ("function",)
        )
        assert {k: c.value for k, c in family.items()} == {("poison",): 1}
        ok, detail = no_inflight_messages(app)
        assert ok, detail

    def test_runtime_default_cap_comes_from_resilience_policy(self):
        app = taureau.Platform(seed=6)
        app.with_resilience(ResiliencePolicy(
            retry=RetryPolicy(max_attempts=0), max_redeliveries=1,
        ))
        runtime = attach_pulsar(app, partitions=1)
        assert runtime.default_max_redeliveries == 1
        calls = []
        runtime.deploy(PulsarFunction(
            "poison",
            process=lambda payload, ctx: calls.append(payload) or (_ for _ in ()).throw(RuntimeError()),
            input_topics=["events"],
        ))
        runtime.cluster.producer("events").send("x")
        app.run()
        # 1 initial delivery + 1 redelivery, then dead-lettered (dropped).
        assert len(calls) == 2
        assert runtime.metrics.counter("poison.dead_lettered").value == 1


class TestExperimentHarness:
    def test_crash_experiment_passes_invariants_and_replays(self):
        def scenario(app):
            # ack_quorum=1 keeps ack times finite across the bookie
            # outage (a crashed-quorum append acks at t=inf by design).
            runtime = app.with_pulsar(
                broker_count=3, bookie_count=3, ack_quorum=1
            ).pulsar
            runtime.cluster.create_topic("events", partitions=3)
            runtime.deploy(PulsarFunction(
                "count",
                process=lambda payload, ctx: ctx.incr_counter("seen"),
                input_topics=["events"],
            ))
            producer = runtime.cluster.producer("events")
            for index in range(30):
                app.sim.schedule_at(
                    index * 0.1, lambda i=index: producer.send(i)
                )

        experiment = ChaosExperiment(
            scenario,
            plan=(FaultPlan()
                  .crash_broker(at_s=1.0)
                  .crash_bookie(at_s=1.5, recover_after_s=1.0)),
            seed=11,
            invariants=[no_inflight_messages, sandboxes_conserved],
        )
        report = experiment.run()
        assert report.ok, report.summary()
        assert {e.kind for e in report.fault_events} >= {
            "broker_crash", "bookie_crash",
        }
        runtime = report.platform._subsystems["pulsar"]
        assert runtime.context_of("count").get_counter("seen") == 30
        determinism = experiment.verify_determinism()
        assert determinism.ok, determinism.mismatches
