"""Tests for the Pulsar Functions runtime (paper §4.3.1 / Figure 3)."""

import collections

import pytest

from taureau.pulsar import (
    FunctionsRuntime,
    PulsarCluster,
    PulsarFunction,
    SubscriptionType,
)
from taureau.sim import Simulation


def make_runtime(**cluster_kwargs):
    sim = Simulation(seed=0)
    cluster = PulsarCluster(sim, **cluster_kwargs)
    return sim, cluster, FunctionsRuntime(cluster)


class TestFunctionsRuntime:
    def test_function_transforms_input_to_output_topic(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")
        cluster.create_topic("out")
        runtime.deploy(
            PulsarFunction(
                name="upper",
                process=lambda payload, ctx: payload.upper(),
                input_topics=["in"],
                output_topic="out",
            )
        )
        results = []
        cluster.subscribe("out", "check", listener=lambda m, c: results.append(m.payload))
        cluster.publish_all("in", ["a", "b"])
        sim.run()
        assert sorted(results) == ["A", "B"]

    def test_none_result_publishes_nothing(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")
        cluster.create_topic("out")
        runtime.deploy(
            PulsarFunction(
                name="filter",
                process=lambda payload, ctx: payload if payload > 2 else None,
                input_topics=["in"],
                output_topic="out",
            )
        )
        results = []
        cluster.subscribe("out", "check", listener=lambda m, c: results.append(m.payload))
        cluster.publish_all("in", [1, 2, 3, 4])
        sim.run()
        assert sorted(results) == [3, 4]

    def test_state_and_counters_persist_across_messages(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")

        def track(payload, ctx):
            ctx.incr_counter("seen")
            ctx.put_state("last", payload)
            return None

        context = runtime.deploy(
            PulsarFunction(name="tracker", process=track, input_topics=["in"])
        )
        cluster.publish_all("in", ["x", "y", "z"])
        sim.run()
        assert context.get_counter("seen") == 3
        assert context.get_state("last") == "z"
        assert context.get_state("missing", "default") == "default"

    def test_count_min_sketch_as_function_figure_3(self):
        """The paper's Figure 3, ported: Count-Min inside a function."""
        from taureau.sketches import CountMinSketch

        sim, cluster, runtime = make_runtime()
        cluster.create_topic("words")
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)

        def count_min_function(word, ctx):
            sketch.add(word, 1)
            ctx.put_state("estimate:" + word, sketch.estimate(word))
            return None

        runtime.deploy(
            PulsarFunction(
                name="count-min", process=count_min_function, input_topics=["words"]
            )
        )
        stream = ["cat"] * 10 + ["dog"] * 3 + ["cat"] * 5
        cluster.publish_all("words", stream)
        sim.run()
        assert sketch.estimate("cat") >= 15
        assert sketch.estimate("dog") >= 3

    def test_poison_message_dead_letters_after_retries(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")
        attempts = []

        def explode(payload, ctx):
            attempts.append(payload)
            raise ValueError("poison")

        runtime.deploy(
            PulsarFunction(name="boom", process=explode, input_topics=["in"])
        )
        cluster.producer("in").send("bad")
        sim.run()
        assert len(attempts) == 4  # initial + 3 redeliveries
        assert runtime.metrics.counter("boom.dead_lettered").value == 1

    def test_parallel_instances_share_the_work(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in", partitions=1)
        processed = []
        runtime.deploy(
            PulsarFunction(
                name="worker",
                process=lambda payload, ctx: processed.append(payload),
                input_topics=["in"],
                parallelism=3,
            )
        )
        cluster.publish_all("in", range(9))
        sim.run()
        assert sorted(processed) == list(range(9))  # each message exactly once

    def test_side_output_via_context_publish(self):
        sim, cluster, runtime = make_runtime()
        for topic in ("in", "side"):
            cluster.create_topic(topic)
        side = []
        cluster.subscribe("side", "check", listener=lambda m, c: side.append(m.payload))

        def process(payload, ctx):
            if payload < 0:
                ctx.publish("side", payload)
            return None

        runtime.deploy(PulsarFunction(name="split", process=process, input_topics=["in"]))
        cluster.publish_all("in", [1, -2, 3, -4])
        sim.run()
        assert sorted(side) == [-4, -2]

    def test_duplicate_deploy_rejected(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")
        fn = PulsarFunction(name="f", process=lambda p, c: None, input_topics=["in"])
        runtime.deploy(fn)
        with pytest.raises(ValueError):
            runtime.deploy(fn)

    def test_validation(self):
        with pytest.raises(ValueError):
            PulsarFunction(name="f", process=lambda p, c: None, input_topics=[])
        with pytest.raises(ValueError):
            PulsarFunction(
                name="f", process=lambda p, c: None, input_topics=["x"], parallelism=0
            )


class TestBatchFunctions:
    def test_same_instant_messages_coalesce_into_one_batch(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")
        batches = []
        runtime.deploy(
            PulsarFunction(
                name="batched",
                process_batch=lambda payloads, ctx: batches.append(list(payloads)),
                input_topics=["in"],
            )
        )
        cluster.publish_all("in", ["a", "b", "c"])
        sim.run()
        assert sorted(sum(batches, [])) == ["a", "b", "c"]
        # Everything published at one simulated instant arrives together.
        assert len(batches) < 3
        assert runtime.metrics.counter("batched.processed").value == 3
        assert runtime.metrics.counter("batched.batches").value == len(batches)

    def test_batch_results_fan_out_to_output_topic(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")
        cluster.create_topic("out")
        runtime.deploy(
            PulsarFunction(
                name="upper",
                process_batch=lambda payloads, ctx: [p.upper() for p in payloads],
                input_topics=["in"],
                output_topic="out",
            )
        )
        results = []
        cluster.subscribe("out", "check", listener=lambda m, c: results.append(m.payload))
        cluster.publish_all("in", ["a", "b"])
        sim.run()
        assert sorted(results) == ["A", "B"]

    def test_max_batch_caps_delivery_size(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")
        batches = []
        runtime.deploy(
            PulsarFunction(
                name="capped",
                process_batch=lambda payloads, ctx: batches.append(len(payloads)),
                input_topics=["in"],
                max_batch=4,
            )
        )
        cluster.publish_all("in", range(10))
        sim.run()
        assert sum(batches) == 10
        assert max(batches) <= 4

    def test_poison_message_does_not_dead_letter_batchmates(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")
        good = []

        def process_batch(payloads, ctx):
            if "bad" in payloads:
                raise ValueError("poison")
            good.extend(payloads)

        runtime.deploy(
            PulsarFunction(
                name="boom", process_batch=process_batch, input_topics=["in"]
            )
        )
        cluster.publish_all("in", ["ok1", "bad", "ok2"])
        sim.run()
        # The batch fails once, splits, and the innocent messages succeed.
        assert sorted(good) == ["ok1", "ok2"]
        assert runtime.metrics.counter("boom.dead_lettered").value == 1

    def test_count_min_ingests_batches_via_add_many(self):
        from taureau.sketches import CountMinSketch

        sim, cluster, runtime = make_runtime()
        cluster.create_topic("words")
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        runtime.deploy(
            PulsarFunction(
                name="count-min",
                process_batch=lambda payloads, ctx: sketch.add_many(payloads),
                input_topics=["words"],
            )
        )
        stream = ["cat"] * 10 + ["dog"] * 3 + ["cat"] * 5
        cluster.publish_all("words", stream)
        sim.run()
        assert sketch.estimate("cat") >= 15
        assert sketch.estimate("dog") >= 3
        # Batch ingestion leaves the exact same table a scalar loop would.
        scalar = CountMinSketch(epsilon=0.01, delta=0.01)
        for word in stream:
            scalar.add(word)
        assert sketch.estimate_many(stream).tolist() == [
            scalar.estimate(word) for word in stream
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            PulsarFunction(name="f", input_topics=["x"])  # no process at all
        with pytest.raises(ValueError):
            PulsarFunction(
                name="f",
                process_batch=lambda p, c: None,
                input_topics=["x"],
                max_batch=0,
            )


def _side_output(payload, ctx):
    ctx.publish("out", payload)


def _poison(payload, ctx):
    raise ValueError("poison message")


class TestUnkeyedOutputs:
    """A function's unkeyed outputs round-robin over the output topic's
    partitions, as one producer's sends do."""

    @pytest.mark.parametrize("kwargs", [
        dict(process=lambda payload, ctx: payload, output_topic="out"),
        dict(process_batch=lambda payloads, ctx: payloads, output_topic="out"),
        dict(process=_side_output),
        dict(process=_poison, max_redeliveries=0, dead_letter_topic="out"),
    ], ids=["output", "batch_output", "publish", "dead_letter"])
    def test_spread_over_partitions(self, kwargs):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")
        cluster.create_topic("out", partitions=4)
        runtime.deploy(PulsarFunction(name="echo", input_topics=["in"], **kwargs))
        delivered = collections.Counter()
        cluster.subscribe(
            "out", "check", listener=lambda m, c: delivered.update([m.topic])
        )
        cluster.publish_all("in", range(40))
        sim.run()
        assert delivered == {f"out-partition-{index}": 10 for index in range(4)}

    def test_keyed_outputs_still_route_by_key(self):
        sim, cluster, runtime = make_runtime()
        cluster.create_topic("in")
        cluster.create_topic("out", partitions=4)
        runtime.deploy(PulsarFunction(
            name="echo", process=lambda payload, ctx: payload,
            input_topics=["in"], output_topic="out",
        ))
        partitions = collections.defaultdict(set)
        cluster.subscribe(
            "out", "check",
            listener=lambda m, c: partitions[m.key].add(m.topic),
        )
        producer = cluster.producer("in")
        for index in range(40):
            producer.send(index, key=f"user{index % 5}")
        sim.run()
        assert len(partitions) == 5
        assert all(len(topics) == 1 for topics in partitions.values())
