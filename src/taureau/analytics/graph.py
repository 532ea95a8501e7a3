"""Pregel-style serverless graph processing (§5.1, [173] Graphless).

Toader et al.'s Graphless runs the Pregel computation model [142] on
serverless functions with a memory engine for intermediate state.  Here
the graph is vertex-partitioned across worker functions; each superstep
one function per partition consumes its incoming messages (from the
previous superstep's Jiffy hash tables), updates its vertices, and
emits messages for the next superstep.  The driver loops until no
messages remain or ``max_supersteps`` is hit.

Three classic algorithms ship as vertex programs: PageRank,
single-source shortest paths, and connected components (via label
propagation).
"""

from __future__ import annotations

import typing

import networkx as nx

from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform
from taureau.jiffy.client import JiffyClient

__all__ = [
    "PregelJob",
    "pagerank_program",
    "sssp_program",
    "connected_components_program",
]


class VertexProgram:
    """One Pregel algorithm: init, compute, combine."""

    def __init__(
        self,
        init: typing.Callable[[object, nx.Graph], object],
        compute: typing.Callable,
        combine: typing.Callable[[list], object],
    ):
        self.init = init
        self.compute = compute
        self.combine = combine


def pagerank_program(damping: float = 0.85) -> VertexProgram:
    """PageRank: value = (1-d)/N + d * sum(incoming rank shares)."""

    def init(vertex, graph):
        return 1.0 / graph.number_of_nodes()

    def compute(vertex, value, incoming, graph, superstep):
        n = graph.number_of_nodes()
        if superstep > 0:
            value = (1.0 - damping) / n + damping * sum(incoming)
        out_degree = graph.out_degree(vertex) if graph.is_directed() else graph.degree(
            vertex
        )
        share = value / out_degree if out_degree else 0.0
        neighbors = (
            graph.successors(vertex) if graph.is_directed() else graph.neighbors(vertex)
        )
        return value, [(neighbor, share) for neighbor in neighbors]

    return VertexProgram(init, compute, combine=lambda messages: messages)


def sssp_program(source: object) -> VertexProgram:
    """Single-source shortest paths over unit-weight edges."""

    def init(vertex, graph):
        return 0.0 if vertex == source else float("inf")

    def compute(vertex, value, incoming, graph, superstep):
        candidate = min(incoming) if incoming else float("inf")
        if superstep == 0 and value == 0.0:
            pass  # the source fires its initial messages
        elif candidate >= value:
            return value, []  # no improvement: vote to halt
        else:
            value = candidate
        return value, [
            (neighbor, value + 1.0) for neighbor in graph.neighbors(vertex)
        ]

    return VertexProgram(init, compute, combine=lambda messages: [min(messages)])


def connected_components_program() -> VertexProgram:
    """Label propagation: every vertex adopts the minimum label seen."""

    def init(vertex, graph):
        return vertex

    def compute(vertex, value, incoming, graph, superstep):
        candidate = min(incoming) if incoming else value
        if superstep > 0 and candidate >= value:
            return value, []
        value = min(value, candidate)
        return value, [(neighbor, value) for neighbor in graph.neighbors(vertex)]

    return VertexProgram(init, compute, combine=lambda messages: [min(messages)])


class PregelJob:
    """Drive a vertex program over serverless workers with Jiffy state."""

    def __init__(
        self,
        platform: FaasPlatform,
        jiffy: JiffyClient,
        graph: nx.Graph,
        program: VertexProgram,
        workers: int = 4,
        compute_s_per_vertex: float = 0.0001,
        max_supersteps: int = 50,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.platform = platform
        self.jiffy = jiffy
        self.graph = graph
        self.program = program
        self.workers = workers
        self.max_supersteps = max_supersteps
        self.supersteps_run = 0
        self.job_id = f"pregel{next(platform.sim.ids('pregel'))}"
        self._task_name = f"{self.job_id}-worker"
        self._partitions = self._partition_vertices()
        self._compute_s_per_vertex = compute_s_per_vertex
        self._register()

    def _partition_vertices(self) -> list:
        partitions: list = [[] for __ in range(self.workers)]
        self._owner: dict = {}
        for index, vertex in enumerate(sorted(self.graph.nodes(), key=str)):
            partitions[index % self.workers].append(vertex)
            self._owner[vertex] = index % self.workers
        return partitions

    def _register(self) -> None:
        job = self

        def worker(event, ctx):
            partition_id, superstep = event["partition"], event["superstep"]
            store = ctx.service("jiffy")
            vertices = job._partitions[partition_id]
            ctx.charge(len(vertices) * job._compute_s_per_vertex)
            inbox_path = job._inbox_path(superstep, partition_id)
            inbox: dict = {}
            if store.exists(inbox_path, ctx=ctx):
                for key in store.keys(inbox_path, ctx=ctx):
                    inbox[key] = store.get(inbox_path, key, ctx=ctx)
            values = store.get(job._values_path(), f"p{partition_id}", ctx=ctx)
            outgoing: dict = {}
            active = 0
            for vertex in vertices:
                raw = inbox.get(str(vertex), [])
                messages = job.program.combine(raw) if raw else []
                value, emitted = job.program.compute(
                    vertex, values[vertex], messages, job.graph, superstep
                )
                values[vertex] = value
                for target, message in emitted:
                    outgoing.setdefault(target, []).append(message)
                if emitted:
                    active += 1
            store.put(job._values_path(), f"p{partition_id}", values, ctx=ctx)
            # Route outgoing messages to next-superstep inboxes by owner.
            per_partition: dict = {}
            for target, messages in outgoing.items():
                owner = job._owner_of(target)
                per_partition.setdefault(owner, {}).setdefault(
                    str(target), []
                ).extend(messages)
            for owner, bundle in per_partition.items():
                out_path = job._inbox_path(superstep + 1, owner)
                if not store.exists(out_path, ctx=ctx):
                    store.create(out_path, "hash_table", ttl_s=3600.0)
                for target_key, messages in bundle.items():
                    existing = (
                        store.get(out_path, target_key, ctx=ctx)
                        if target_key in store.controller.open(out_path)
                        else []
                    )
                    store.put(out_path, target_key, existing + messages, ctx=ctx)
            return {"active": active, "sent": sum(len(m) for m in outgoing.values())}

        self.platform.wire_service("jiffy", self.jiffy)
        self.platform.register(
            FunctionSpec(
                name=self._task_name, handler=worker, memory_mb=1024, timeout_s=900
            )
        )

    # ------------------------------------------------------------------

    def run_sync(self) -> dict:
        """Run supersteps until quiescence; returns vertex -> value."""
        return self.platform.sim.run(until=self.platform.sim.process(self._drive()))

    def _drive(self):
        values_path = self._values_path()
        self.jiffy.create(values_path, "hash_table", ttl_s=3600.0)
        for partition_id, vertices in enumerate(self._partitions):
            initial = {
                vertex: self.program.init(vertex, self.graph) for vertex in vertices
            }
            self.jiffy.put(values_path, f"p{partition_id}", initial)
        for superstep in range(self.max_supersteps):
            events = [
                self.platform.invoke(
                    self._task_name,
                    {"partition": partition_id, "superstep": superstep},
                )
                for partition_id in range(self.workers)
            ]
            records = yield self.platform.sim.all_of(events)
            failures = [record for record in records if not record.succeeded]
            if failures:
                raise RuntimeError(
                    f"superstep {superstep}: {len(failures)} workers failed: "
                    f"{failures[0].error!r}"
                )
            self.supersteps_run = superstep + 1
            total_sent = sum(record.response["sent"] for record in records)
            if total_sent == 0:
                break
        results: dict = {}
        for partition_id in range(self.workers):
            results.update(self.jiffy.get(values_path, f"p{partition_id}"))
        self.jiffy.remove(f"/{self.job_id}")
        return results

    # ------------------------------------------------------------------

    def _owner_of(self, vertex) -> int:
        if vertex not in self._owner:
            raise KeyError(f"vertex {vertex!r} not in graph")
        return self._owner[vertex]

    def _values_path(self) -> str:
        return f"/{self.job_id}/values"

    def _inbox_path(self, superstep: int, partition_id: int) -> str:
        return f"/{self.job_id}/s{superstep}/inbox{partition_id}"
