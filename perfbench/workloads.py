"""The benchmark's four workloads: set-up, replay and outcome checks.

Every workload generates one seeded :mod:`taureau.workload` trace and
sends *every* arrival through the public client path: ``Platform.invoke``
on the three FaaS workloads, ``Producer.send`` on ``stream_sketch``.
Arrivals form an open loop in simulated time (the kernel fires each one
at its trace due time whether or not earlier ones finished); in host
time one replay is a batch, drained by ``Platform.run``.

A workload object is built in three steps, each timed by the caller:

1. ``setup()`` — trace generation, ``with_*`` wiring (chaos-plan
   compilation included), function registration and scheduling of the
   replay.  This is the ``setup_s`` metric.
2. ``run()`` — ``Platform.run`` until the simulation drains.  This is
   the run phase behind ``arrivals_per_s``.
3. ``outcomes()`` / ``checks()`` — per-arrival outcome arrays (the
   ``sim_digest`` input) and the named outcome checks that decide
   ``correct``.

Handlers, the replay ``fire`` and completion callbacks live in this
module on purpose: the traced run attributes time spent in this module
to ``handler.s`` (user code, which no platform change may move).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time

import numpy

import taureau
from taureau.chaos import (
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
    all_invocations_terminated,
    exactly_once_effects,
    no_double_billing,
    no_inflight_messages,
    no_lost_acked_work,
)
from taureau.control import HybridKeepAlive
from taureau.core.function import FunctionSpec, InvocationStatus
from taureau.obs import SloObjective
from taureau.pulsar import WindowedAggregator
from taureau.sketches import SpaceSaving
from taureau.workload import WorkloadSpec, generate_trace

__all__ = ["WORKLOADS", "Outcomes", "make_workload"]

#: Status codes in the outcome arrays (and so in ``sim_digest``).
STATUS_OK = 0
_STATUS_CODES = {
    InvocationStatus.OK: STATUS_OK,
    InvocationStatus.ERROR: 1,
    InvocationStatus.TIMEOUT: 2,
    InvocationStatus.THROTTLED: 3,
}
STATUS_MISSING = 4


@dataclasses.dataclass
class Outcomes:
    """Per-arrival simulated outcomes, aligned with the trace."""

    status: numpy.ndarray      # int8, STATUS_* codes
    latency_s: numpy.ndarray   # float64, final outcome time - due time
    cold: numpy.ndarray        # bool
    cost_usd: numpy.ndarray    # float64

    def digest(self) -> str:
        """blake2b over the four arrays: the ``sim_digest``."""
        hasher = hashlib.blake2b(digest_size=16)
        for column in (self.status, self.latency_s, self.cold, self.cost_usd):
            hasher.update(numpy.ascontiguousarray(column).tobytes())
        return hasher.hexdigest()


def _durations(seed: int, count: int) -> list:
    """Seeded per-arrival handler durations (log-normal, median 50 ms).

    Continuous durations keep the simulated latency percentiles smooth
    across seeds instead of snapping between a few discrete values.
    """
    rng = numpy.random.default_rng([seed, 1])
    values = rng.lognormal(mean=math.log(0.05), sigma=0.6, size=count)
    return numpy.clip(values, 0.005, 2.0).tolist()


def charge_handler(event, ctx):
    """Bare handler: charge the arrival's duration, nothing else."""
    ctx.charge(event[1])


def kv_read_handler(event, ctx):
    """Reads the tenant's key (live, never journaled), then computes."""
    ctx.service("kv").get(event[2], ctx=ctx)
    ctx.charge(event[1])


def kv_write_handler(event, ctx):
    """Writes the tenant's key (a journaled effect), then computes."""
    ctx.service("kv").put(event[2], event[0], ctx=ctx)
    ctx.charge(event[1])


class _Workload:
    """Shared shape: a trace, a platform, one record per arrival."""

    name = ""
    faas = True

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.app = None
        self.trace = None
        self.generate_s = 0.0
        #: Hooks called on the platform right after it is constructed
        #: (the traced run installs its kernel wrapper here).
        self.on_platform = []
        #: Hooks called on each window sketch the stream workload opens.
        self.on_sketch = []

    def spec(self) -> WorkloadSpec:
        raise NotImplementedError

    def params(self) -> dict:
        """The workload parameters recorded in every result."""
        return {"trace": dataclasses.asdict(self.spec()), "scale": self.scale}

    def _generate(self):
        start = time.perf_counter()
        self.trace = generate_trace(self.spec(), seed=self.seed)
        self.generate_s = time.perf_counter() - start
        return self.trace

    def _platform(self, **kwargs):
        self.app = taureau.Platform(seed=self.seed, **kwargs)
        for hook in self.on_platform:
            hook(self.app)
        return self.app

    def run(self) -> None:
        self.app.run()

    def extra_registries(self) -> list:
        """Metric registries the platform's ``registries()`` misses."""
        return []


class _FaasWorkload(_Workload):
    """A trace replayed through ``Platform.invoke``, one function per
    (tenant, function) pair of the trace."""

    platform_kwargs: dict = {}

    def setup(self) -> None:
        trace = self._generate()
        app = self._platform(**self.platform_kwargs)
        self.wire(app)
        spec = self.spec()
        per_tenant = spec.functions_per_tenant
        names = []
        for tenant in range(spec.tenants):
            for function in range(per_tenant):
                name = f"t{tenant}.f{function}"
                app.register(FunctionSpec(
                    name=name,
                    handler=self.handler_for(function),
                    tenant=f"t{tenant}",
                ))
                names.append(name)
        slots = (trace.tenants.astype(numpy.int64) * per_tenant
                 + trace.functions.astype(numpy.int64))
        arrival_names = [names[slot] for slot in slots.tolist()]
        payloads = self.make_payloads(trace)
        self.due = trace.times
        self.records = [None] * len(trace)
        self.duplicates = 0
        collect = self.collect

        def fire(index):
            app.invoke(arrival_names[index], payloads[index]).add_callback(collect)

        self.fire = fire
        # Late-bound, so the traced run can wrap ``self.fire`` after set-up.
        app.with_workload(trace, fire=lambda index: self.fire(index))

    def wire(self, app) -> None:
        """Attach the workload's optional layers (none when bare)."""

    def handler_for(self, function: int):
        return charge_handler

    def make_payloads(self, trace) -> list:
        durations = _durations(self.seed, len(trace))
        return [(index, duration) for index, duration in enumerate(durations)]

    def collect(self, event) -> None:
        """Completion callback: file the arrival's final record."""
        record = event.value
        index = record.payload[0]
        if self.records[index] is not None:
            self.duplicates += 1
        self.records[index] = record

    # ------------------------------------------------------------------

    def outcomes(self) -> Outcomes:
        count = len(self.records)
        status = numpy.full(count, STATUS_MISSING, dtype=numpy.int8)
        end = numpy.zeros(count)
        cold = numpy.zeros(count, dtype=bool)
        cost = numpy.zeros(count)
        for index, record in enumerate(self.records):
            if record is None:
                continue
            status[index] = _STATUS_CODES[record.status]
            end[index] = record.end_time
            cold[index] = record.cold_start
            cost[index] = record.cost_usd
        return Outcomes(status, end - self.due, cold, cost)

    def counter(self, name: str) -> float:
        metric = self.app.metrics.find(name)
        return metric.value if metric is not None else 0.0

    def pressure_evictions(self) -> float:
        """Evictions forced by memory pressure: ``sandbox_evictions``
        also counts keep-alive expirations, so subtract those."""
        return (self.counter("sandbox_evictions")
                - self.counter("sandbox_expirations"))

    def checks(self, exercise: bool = True) -> list:
        """Named ``(name, ok, detail)`` outcome checks.

        ``exercise`` adds the checks that the workload exercised its
        layers, which only a full-size replay is sure to pass.
        """
        app = self.app
        records = self.records
        missing = sum(1 for record in records if record is None)
        late = sum(
            1 for index, record in enumerate(records)
            if record is not None
            and record.arrival_time != float(self.due[index])
        )
        billed = math.fsum(r.cost_usd for r in records if r is not None)
        total = app.total_cost_usd()
        checks = [
            ("all_invocations_terminated", *all_invocations_terminated(app)),
            ("one_final_record_per_arrival",
             missing == 0 and self.duplicates == 0,
             f"{missing} missing, {self.duplicates} duplicate records"),
            ("arrival_time_is_due_time", late == 0,
             f"{late} records arrived off their trace due time"),
            ("record_costs_sum_to_bill",
             math.isclose(billed, total, rel_tol=1e-9, abs_tol=1e-12),
             f"records {billed:.9g} USD, platform bill {total:.9g} USD"),
        ]
        checks += self.invariant_checks()
        return checks + (self.exercise_checks() if exercise else [])

    def invariant_checks(self) -> list:
        return []

    def exercise_checks(self) -> list:
        return []


class FaasWarm(_FaasWorkload):
    """A few hundred functions on a cluster with memory headroom."""

    name = "faas_warm"
    platform_kwargs = {"tracing": False, "machines": 2,
                       "machine_memory_mb": 262144.0}

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            tenants=100, functions_per_tenant=4, horizon_s=900.0,
            mean_rps=25.0 * self.scale, peak_to_mean=4.0, period_s=900.0,
        )

    def exercise_checks(self) -> list:
        evictions = self.pressure_evictions()
        return [("no_evictions", evictions == 0,
                 f"{evictions:g} sandbox evictions under memory pressure")]


class ColdEvict(_FaasWorkload):
    """Tens of thousands of long-tail functions on a memory-bound
    cluster with the default 600 s keep-alive."""

    name = "cold_evict"
    platform_kwargs = {"tracing": False, "machines": 2,
                       "machine_memory_mb": 16384.0}

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            tenants=10_000, functions_per_tenant=4, horizon_s=900.0,
            mean_rps=25.0 * self.scale, peak_to_mean=4.0, period_s=900.0,
        )

    def exercise_checks(self) -> list:
        cold = self.counter("cold_starts")
        evictions = self.pressure_evictions()
        return [("evictions_on_most_cold_starts",
                 cold > 0 and evictions > 0.5 * cold,
                 f"{evictions:g} evictions over {cold:g} cold starts")]


class FullStack(_FaasWorkload):
    """The bare platform plus every optional layer on the invoke path."""

    name = "full_stack"
    platform_kwargs = {"tracing": True, "machines": 2,
                       "machine_memory_mb": 262144.0}

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            tenants=100, functions_per_tenant=4, horizon_s=600.0,
            mean_rps=18.0 * self.scale, peak_to_mean=4.0, period_s=600.0,
        )

    def plan(self) -> FaultPlan:
        horizon = self.spec().horizon_s
        return (FaultPlan()
                .crash_sandbox(rate_hz=0.2, start_s=0.0, end_s=horizon)
                .baas_errors(start_s=0.3 * horizon, end_s=0.4 * horizon,
                             error_rate=0.3, component="baas.kv"))

    def wire(self, app) -> None:
        (app.with_kvstore()
            .with_monitoring(slos=[SloObjective(
                "latency", objective=0.99, window_s=300.0,
                latency="faas.e2e_latency_s", threshold_s=1.0)],
                interval_s=5.0)
            .with_recorder(interval_s=5.0)
            .with_chaos(self.plan())
            .with_resilience(ResiliencePolicy(retry=RetryPolicy(max_attempts=3)))
            .with_durability()
            .with_control(policies=[HybridKeepAlive()]))
        for tenant in range(self.spec().tenants):
            app.kv.put(f"t{tenant}", 0)

    def handler_for(self, function: int):
        # Odd-numbered functions write (journaled effects); the rest
        # only read, which stays live and unjournaled.
        return kv_write_handler if function % 2 else kv_read_handler

    def make_payloads(self, trace) -> list:
        durations = _durations(self.seed, len(trace))
        return [
            (index, duration, f"t{tenant}")
            for index, (duration, tenant) in enumerate(
                zip(durations, trace.tenants.tolist())
            )
        ]

    def invariant_checks(self) -> list:
        app = self.app
        return [
            ("exactly_once_effects", *exactly_once_effects(app)),
            ("no_lost_acked_work", *no_lost_acked_work(app)),
            ("no_double_billing", *no_double_billing(app)),
        ]

    def exercise_checks(self) -> list:
        app = self.app
        fired = len([e for e in app.chaos.events if e.target != "(no target)"])
        replayed = app.durable.metrics.counter("effects_replayed").value
        actions = len(app.control.actuator.actions)
        return [
            ("chaos_faults_fired", fired > 0, f"{fired} faults fired"),
            ("durable_effects_replayed", replayed > 0,
             f"{replayed:g} effects replayed"),
            ("control_actions", actions > 0, f"{actions} control actions"),
        ]


class StreamSketch(_Workload):
    """Keyed events through a partitioned Pulsar topic into a windowed
    SpaceSaving heavy-hitter sketch.  No FaaS invocation runs."""

    name = "stream_sketch"
    faas = False
    window_s = 60.0
    sketch_k = 64
    function = "heavy-hitters"

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            tenants=10_000, functions_per_tenant=1, horizon_s=900.0,
            mean_rps=25.0 * self.scale, peak_to_mean=4.0, period_s=900.0,
        )

    def setup(self) -> None:
        trace = self._generate()
        app = self._platform(tracing=False)
        app.with_pulsar()
        cluster = app.pulsar.cluster
        cluster.create_topic("events", partitions=4)
        cluster.create_topic("windows")
        self.aggregator = WindowedAggregator(
            app.pulsar, self.function, ["events"], "windows",
            window_s=self.window_s, initial=self.new_sketch,
            add_many=self.fold, finalize=self.close_window,
        )
        self.producer = cluster.producer("events")
        self.keys = [f"t{tenant}" for tenant in trace.tenants.tolist()]
        self.due = trace.times
        self.processed_at = [None] * len(trace)
        self.sent_at = [None] * len(trace)
        self.duplicates = 0
        self.closed = []
        producer = self.producer
        keys = self.keys
        sent_at = self.sent_at
        sim = app.sim

        def fire(index):
            key = keys[index]
            sent_at[index] = sim.now
            producer.send((index, key), key=key)

        self.fire = fire
        # Late-bound, so the traced run can wrap ``self.fire`` after set-up.
        app.with_workload(trace, fire=lambda index: self.fire(index))

    def extra_registries(self) -> list:
        return [self.aggregator.metrics]

    def new_sketch(self):
        sketch = SpaceSaving(self.sketch_k)
        for hook in self.on_sketch:
            hook(sketch)
        return sketch

    def fold(self, sketch, payloads):
        """The windowed combiner: one ``add_many`` per delivery batch."""
        now = self.app.sim.now
        processed_at = self.processed_at
        for index, _key in payloads:
            if processed_at[index] is not None:
                self.duplicates += 1
            processed_at[index] = now
        sketch.add_many([key for _index, key in payloads])
        return sketch

    def close_window(self, sketch):
        self.closed.append((self.app.sim.now - self.window_s, sketch))
        return sketch.top(8)

    # ------------------------------------------------------------------

    def outcomes(self) -> Outcomes:
        """An event's final outcome is the emission of the window result
        that counts it, at the end of the window it was folded into."""
        count = len(self.processed_at)
        processed = numpy.array(
            [math.nan if t is None else t for t in self.processed_at]
        )
        status = numpy.where(numpy.isnan(processed), STATUS_MISSING,
                             STATUS_OK).astype(numpy.int8)
        emitted = (processed // self.window_s + 1.0) * self.window_s
        return Outcomes(status, emitted - self.due,
                        numpy.zeros(count, dtype=bool), numpy.zeros(count))

    def checks(self, exercise: bool = True) -> list:
        app = self.app
        metrics = app.pulsar.metrics
        published = len(self.processed_at)
        processed = metrics.counter(f"{self.function}.processed").value
        dead = metrics.counter(f"{self.function}.dead_lettered").value
        missing = sum(1 for t in self.processed_at if t is None)
        return [
            ("no_inflight_messages", *no_inflight_messages(app)),
            ("processed_plus_dead_lettered_is_published",
             processed + dead == published,
             f"{processed:g} processed + {dead:g} dead-lettered "
             f"of {published} published"),
            ("one_final_outcome_per_arrival",
             missing == 0 and self.duplicates == 0,
             f"{missing} unprocessed, {self.duplicates} processed twice"),
            ("arrival_time_is_due_time",
             numpy.array_equal(numpy.array(self.sent_at, dtype=float),
                               self.due),
             "every event was sent at its trace due time"),
            ("space_saving_guarantees", *self._sketch_check()),
        ]

    def _sketch_check(self) -> tuple:
        """Every window's sketch bounds its true counts and keeps every
        key heavier than total/k (the SpaceSaving guarantee)."""
        exact: dict = {}
        for index, when in enumerate(self.processed_at):
            if when is None:
                continue
            start = (when // self.window_s) * self.window_s
            window = exact.setdefault(start, {})
            window[self.keys[index]] = window.get(self.keys[index], 0) + 1
        if len(self.closed) != len(exact):
            return False, f"{len(self.closed)} windows closed, {len(exact)} seen"
        violations = 0
        for start, sketch in self.closed:
            counts = exact.get(start, {})
            total = sum(counts.values())
            if sketch.total != total:
                violations += 1
                continue
            for key, true in counts.items():
                estimate = sketch.estimate(key)
                if estimate and not (sketch.guaranteed_count(key) <= true
                                     <= estimate):
                    violations += 1
                if true * self.sketch_k > total and not estimate:
                    violations += 1
        return violations == 0, (
            f"{len(self.closed)} windows, {violations} bound violations"
        )


WORKLOADS = {
    cls.name: cls for cls in (FaasWarm, ColdEvict, FullStack, StreamSketch)
}


def make_workload(name: str, seed: int, scale: float = 1.0) -> _Workload:
    return WORKLOADS[name](seed, scale)
