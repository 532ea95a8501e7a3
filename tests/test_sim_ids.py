"""Every id comes from the simulation that owns it.

Each case builds the same thing on two same-seed simulations, one after
the other in one process, and expects the same ids: an id drawn from a
process-wide counter would differ on the second run, and some ids name
RNG streams (a FedAvg job's cohort sampling, a coded matvec's straggler
draws), so the second run's numbers would differ too.
"""

import numpy as np

from taureau.analytics import MonteCarloJob, pi_estimator
from taureau.cluster import Machine, ResourceVector
from taureau.core import FaasPlatform, FunctionSpec
from taureau.edge import EdgeSite
from taureau.ml import (
    FederatedAveraging,
    StragglerModel,
    classification_dataset,
    coded_matvec,
    non_iid_shards,
)
from taureau.pulsar import PulsarCluster
from taureau.sim import Simulation
from taureau.virt import LayerKind, UnitFactory


def twice(build):
    """``build`` on two same-seed simulations, one after the other."""
    first, second = build(Simulation(seed=7)), build(Simulation(seed=7))
    assert first == second
    return first


def fedavg(sim):
    data, labels, __ = classification_dataset(120, 4, seed=1)
    shards = non_iid_shards(data, labels, 6, seed=2)
    job = FederatedAveraging(FaasPlatform(sim), shards, local_epochs=1)
    job.run_sync(rounds=1)
    # The first round's loss follows from the cohort the job sampled.
    return job.job_id, job.history


def matvec(sim):
    rng = np.random.default_rng(0)
    a, x = rng.standard_normal((40, 5)), rng.standard_normal(5)
    platform = FaasPlatform(sim)
    __, finish = coded_matvec(
        platform, a, x, k=4, n=6,
        stragglers=StragglerModel(probability=0.5, slowdown=20.0),
    )
    return platform.function_names(), finish


def pulsar(sim):
    cluster = PulsarCluster(sim, broker_count=2, bookie_count=3)
    cluster.create_topic("events", partitions=2)
    consumers = cluster.subscribe("events", "sub")
    ledgers = [
        cluster.broker_of(partition).topics[partition].ledgers[-1].ledger_id
        for partition in cluster.partitions_of("events")
    ]
    return (
        [consumer.consumer_id for consumer in consumers],
        [bookie.bookie_id for bookie in cluster.bookies],
        [broker.broker_id for broker in cluster.brokers],
        ledgers,
    )


def units(sim):
    factory = UnitFactory(sim)
    machine = Machine(ResourceVector(16, 4096), "m0")
    return [
        factory.boot(LayerKind.CONTAINER, machine, ResourceVector(1, 64))[0].unit_id
        for __ in range(2)
    ]


def analytics_and_edge(sim):
    platform = FaasPlatform(sim)
    jobs = [MonteCarloJob(platform, pi_estimator) for __ in range(2)]
    sites = [EdgeSite(platform) for __ in range(2)]
    return [job.job_id for job in jobs], [site.name for site in sites]


def faas(sim):
    platform = FaasPlatform(sim)
    platform.register(FunctionSpec(
        name="f", handler=lambda event, ctx: ctx.sandbox_id,
    ))
    records = [platform.invoke_sync("f", index) for index in range(2)]
    # A second function cannot reuse the first one's warm sandbox.
    platform.register(FunctionSpec(
        name="g", handler=lambda event, ctx: ctx.sandbox_id,
    ))
    records.append(platform.invoke_sync("g"))
    return [(record.invocation_id, record.response) for record in records]


def test_fedavg_job_and_its_sampling_stream_replay():
    job_id, history = twice(fedavg)
    assert job_id == "fedavg0" and len(history) == 1


def test_coded_matvec_task_and_straggler_draws_replay():
    names, finish = twice(matvec)
    assert names == ["coded0"] and finish > 0


def test_pulsar_cluster_ids_replay_and_stay_distinct():
    consumers, bookies, brokers, ledgers = twice(pulsar)
    assert consumers == ["c0", "c1"]
    assert bookies == ["bk0", "bk1", "bk2"]
    assert brokers == ["broker0", "broker1"]
    assert ledgers == [0, 1]


def test_execution_units_replay_and_stay_distinct():
    assert twice(units) == ["u0", "u1"]


def test_analytics_jobs_and_edge_sites_replay_and_stay_distinct():
    assert twice(analytics_and_edge) == (["mc0", "mc1"], ["edge0", "edge1"])


def test_invocation_and_sandbox_ids_replay_and_stay_distinct():
    invocations = twice(faas)
    assert [invocation for invocation, __ in invocations] == ["inv0", "inv1", "inv2"]
    assert [sandbox for __, sandbox in invocations] == ["sb0", "sb0", "sb1"]


def test_two_clusters_on_one_simulation_get_distinct_ids():
    sim = Simulation(seed=7)
    first = PulsarCluster(sim, broker_count=1, bookie_count=1)
    second = PulsarCluster(sim, broker_count=1, bookie_count=1)
    assert [first.bookies[0].bookie_id, second.bookies[0].bookie_id] == ["bk0", "bk1"]
    assert [first.brokers[0].broker_id, second.brokers[0].broker_id] == [
        "broker0", "broker1"]
