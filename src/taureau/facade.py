"""The unified platform facade: one object wiring the whole stack.

Before this module, every example hand-assembled five objects — a
``Simulation``, an optional ``Cluster``, a ``FaasPlatform``, service
clients, and (now) a tracer.  :class:`Platform` is the stable public
entry point that wires them together:

>>> import taureau
>>> app = taureau.Platform(seed=42)
>>> @app.function("hello")
... def hello(event, ctx):
...     ctx.charge(0.1)
...     return f"hi {event}"
>>> record = app.invoke_sync("hello", "there")
>>> print(app.trace(record.trace_id).render())   # doctest: +SKIP

Tracing is on by default (pass ``tracing=False`` for a bare platform).
Subsystems attach through the fluent ``with_*`` builders — every one
returns the platform itself, so a whole stack reads as one chain:

>>> app = (taureau.Platform(seed=7)
...        .with_jiffy()
...        .with_pulsar()
...        .with_monitoring()
...        .with_control())

The attached handles are read-only properties: ``app.jiffy`` (client),
``app.pulsar`` (functions runtime), ``app.kv`` / ``app.blob`` / ``app.db``
/ ``app.sns`` (stores), ``app.chaos`` (controller), ``app.resilience``
(invoker), ``app.control`` (control loop), ``app.monitor`` and
``app.workload_trace``; custom-named stores come back via
:meth:`Platform.subsystem`.  Everything is wired both as handler
services and into the shared trace/metric surface.  The old
constructors remain supported — the facade only composes them.
"""

from __future__ import annotations

import typing

from taureau.cluster import Cluster
from taureau.core.function import FunctionSpec, InvocationRecord
from taureau.core.platform import FaasPlatform, PlatformConfig
from taureau.obs import (
    Monitor,
    Profiler,
    Trace,
    Tracer,
    TraceStore,
    dashboard_snapshot,
    to_prometheus,
)
from taureau.sim import Event, Simulation

__all__ = ["Platform"]


class Platform:
    """Simulation + cluster + FaaS platform + tracer, pre-wired.

    Parameters
    ----------
    seed:
        Master seed for the shared :class:`Simulation`.
    machines / machine_cores / machine_memory_mb:
        Build a homogeneous provider cluster; ``machines=0`` (default)
        keeps the idealized elastic backend.
    config:
        Provider policy knobs, as for :class:`FaasPlatform`.
    services:
        Extra name → client objects for handler contexts.
    tracing:
        Install a :class:`~taureau.obs.Tracer` on the simulation
        (default).  With ``tracing=False`` every hook degrades to one
        attribute check.
    sanitize:
        Install a :class:`~taureau.lint.RaceSanitizer` on the simulation
        (off by default): records ambiguous same-timestamp tie-breaks
        and cross-sandbox shared-state mutations as findings on
        :attr:`sanitizer`, and surfaces them in :meth:`dashboard`.
    """

    def __init__(
        self,
        seed: int = 0,
        machines: int = 0,
        machine_cores: float = 16.0,
        machine_memory_mb: float = 65536.0,
        config: typing.Optional[PlatformConfig] = None,
        services: typing.Optional[dict] = None,
        tracing: bool = True,
        sanitize: bool = False,
    ):
        #: Construction arguments, kept verbatim so verify_determinism
        #: can build byte-equivalent sibling platforms.
        self._init_kwargs = {
            "seed": seed,
            "machines": machines,
            "machine_cores": machine_cores,
            "machine_memory_mb": machine_memory_mb,
            "config": config,
            "services": dict(services) if services else None,
            "tracing": tracing,
            "sanitize": sanitize,
        }
        self.sim = Simulation(seed=seed, sanitize=sanitize)
        self.tracer: typing.Optional[Tracer] = None
        if tracing:
            self.tracer = Tracer(self.sim, TraceStore())
            self.sim.tracer = self.tracer
        self.cluster = (
            Cluster.homogeneous(
                machines, cpu_cores=machine_cores, memory_mb=machine_memory_mb
            )
            if machines
            else None
        )
        self.faas = FaasPlatform(
            self.sim, cluster=self.cluster, config=config, services=services
        )
        #: Attached subsystem handles (name -> object), for snapshot().
        self._subsystems: dict = {}
        #: Installed by :meth:`with_monitoring`.
        self.monitor: typing.Optional[Monitor] = None
        #: The trace scheduled by :meth:`with_workload`, if any.
        self.workload_trace = None
        #: Installed by :meth:`with_chaos` (read via :attr:`chaos`).
        self._chaos = None
        #: Installed by :meth:`with_control` (read via :attr:`control`).
        self._control = None
        #: The Jiffy client handle (read via :attr:`jiffy`).
        self._jiffy = None
        #: Installed by :meth:`with_recorder` (read via :attr:`recorder`).
        self._recorder = None
        #: Installed by :meth:`with_audit` (read via :attr:`auditor`).
        self._auditor = None
        #: Installed by :meth:`with_resilience`.
        self._resilience_policy = None
        #: Installed by :meth:`with_durability` (read via :attr:`durable`).
        self._durable = None
        #: Clients whose operations the fault plane guards.
        self._gated_clients: list = []

    # ------------------------------------------------------------------
    # FaaS surface (delegation)
    # ------------------------------------------------------------------

    @property
    def metrics(self):
        return self.faas.metrics

    @property
    def config(self) -> PlatformConfig:
        return self.faas.config

    def register(self, spec: FunctionSpec) -> FunctionSpec:
        return self.faas.register(spec)

    def function(self, name: str, **spec_kwargs):
        """Decorator form of :meth:`register` (see FaasPlatform.function)."""
        return self.faas.function(name, **spec_kwargs)

    def wire_service(self, name: str, client) -> None:
        self.faas.wire_service(name, client)

    def invoke(self, name: str, payload: object = None, *,
               parent=None) -> Event:
        self._poke_loops()
        return self.faas.invoke(name, payload, parent=parent)

    def invoke_sync(self, name: str, payload: object = None, *,
                    parent=None) -> InvocationRecord:
        """Invoke and drain; returns the final
        :class:`~taureau.core.function.InvocationRecord` (same shape as
        the :meth:`invoke` event's result)."""
        self._poke_loops()
        return self.faas.invoke_sync(name, payload, parent=parent)

    def schedule_periodic(self, name: str, interval_s: float, *,
                          payload_fn=None, start_after_s=None,
                          jitter: float = 0.0):
        self._poke_loops()
        return self.faas.schedule_periodic(
            name, interval_s, payload_fn=payload_fn,
            start_after_s=start_after_s, jitter=jitter,
        )

    def run(self, until=None):
        """Advance the shared simulation (see :meth:`Simulation.run`)."""
        self._poke_loops()
        return self.sim.run(until=until)

    def total_cost_usd(self) -> float:
        return self.faas.total_cost_usd()

    # ------------------------------------------------------------------
    # Attached-subsystem properties (the read side of the fluent API)
    # ------------------------------------------------------------------

    @property
    def jiffy(self):
        """The :class:`~taureau.jiffy.JiffyClient`, or ``None``."""
        return self._jiffy

    @property
    def pulsar(self):
        """The :class:`~taureau.pulsar.FunctionsRuntime`, or ``None``."""
        return self._subsystems.get("pulsar")

    @property
    def kv(self):
        """The default-named (``"kv"``) key-value store, or ``None``."""
        return self._subsystems.get("kv")

    @property
    def blob(self):
        """The default-named (``"blob"``) blob store, or ``None``."""
        return self._subsystems.get("blob")

    @property
    def db(self):
        """The default-named (``"db"``) serverless database, or ``None``."""
        return self._subsystems.get("db")

    @property
    def sns(self):
        """The default-named (``"sns"``) notification service, or ``None``."""
        return self._subsystems.get("sns")

    @property
    def chaos(self):
        """The :class:`~taureau.chaos.ChaosController`, or ``None``."""
        return self._chaos

    @property
    def resilience(self):
        """The :class:`~taureau.chaos.ResilientInvoker`, or ``None``."""
        return self.faas._resilience

    @property
    def durable(self):
        """The :class:`~taureau.durable.DurabilityManager`, or ``None``."""
        return self._durable

    @property
    def control(self):
        """The :class:`~taureau.control.ControlLoop`, or ``None``."""
        return self._control

    @property
    def recorder(self):
        """The :class:`~taureau.obs.RunRecorder`, or ``None``."""
        return self._recorder

    def subsystem(self, name: str):
        """An attached subsystem by its wire name (custom-named stores)."""
        if name not in self._subsystems:
            raise KeyError(f"no subsystem named {name!r} is attached")
        return self._subsystems[name]

    # ------------------------------------------------------------------
    # Subsystem attachment
    # ------------------------------------------------------------------

    def with_jiffy(self, **controller_kwargs) -> "Platform":
        """Attach a Jiffy ephemeral-state layer; returns ``self``.

        The client (:attr:`jiffy`) is wired as the ``"jiffy"`` handler
        service, so handlers reach it via ``ctx.service("jiffy")`` and
        its I/O shows up as ``jiffy.*`` child spans on traced
        invocations.
        """
        from taureau.jiffy import JiffyClient, JiffyController

        controller = JiffyController(self.sim, **controller_kwargs)
        client = JiffyClient(controller)
        self.wire_service("jiffy", client)
        self._subsystems["jiffy"] = controller
        self._jiffy = client
        self._gate_client(client, "jiffy")
        return self

    def with_pulsar(self, broker_count: int = 3, bookie_count: int = 3,
                    **cluster_kwargs) -> "Platform":
        """Attach a Pulsar cluster + functions runtime; returns ``self``.

        The cluster is wired as the ``"pulsar"`` handler service; the
        runtime (:attr:`pulsar`) exposes ``.cluster`` for topic
        administration.
        """
        from taureau.pulsar import FunctionsRuntime, PulsarCluster

        cluster = PulsarCluster(
            self.sim, broker_count=broker_count, bookie_count=bookie_count,
            **cluster_kwargs,
        )
        runtime = FunctionsRuntime(cluster)
        self.wire_service("pulsar", cluster)
        self._subsystems["pulsar"] = runtime
        if self._resilience_policy is not None:
            runtime.default_max_redeliveries = (
                self._resilience_policy.max_redeliveries
            )
        if self._durable is not None:
            runtime.durable = self._durable
        return self

    def with_kvstore(self, name: str = "kv", **kwargs) -> "Platform":
        """Attach a key-value store as service ``name``; returns ``self``
        (the store is :attr:`kv`, or :meth:`subsystem` for custom names)."""
        from taureau.baas import KvStore

        store = KvStore(self.sim, name=name, **kwargs)
        self.wire_service(name, store)
        self._subsystems[name] = store
        self._gate_client(store, f"baas.{name}")
        return self

    def with_blobstore(self, name: str = "blob", **kwargs) -> "Platform":
        """Attach a blob store as service ``name``; returns ``self``
        (the store is :attr:`blob`, or :meth:`subsystem` for custom names)."""
        from taureau.baas import BlobStore

        store = BlobStore(self.sim, name=name, **kwargs)
        self.wire_service(name, store)
        self._subsystems[name] = store
        self._gate_client(store, f"baas.{name}")
        return self

    def with_database(self, name: str = "db", **kwargs) -> "Platform":
        """Attach a serverless (MVCC) database as service ``name``;
        returns ``self`` (the store is :attr:`db`)."""
        from taureau.baas import ServerlessDatabase

        store = ServerlessDatabase(self.sim, name=name, **kwargs)
        self.wire_service(name, store)
        self._subsystems[name] = store
        return self

    def with_notifications(self, name: str = "sns", **kwargs) -> "Platform":
        """Attach a pub/sub notification service as ``name``; returns
        ``self`` (the service is :attr:`sns`)."""
        from taureau.baas import NotificationService

        service = NotificationService(self.sim, **kwargs)
        self.wire_service(name, service)
        self._subsystems[name] = service
        return self

    def orchestrator(self, **kwargs):
        """An :class:`~taureau.orchestration.Orchestrator` over this platform.

        The first orchestrator is registered as the ``"orchestration"``
        subsystem so its metrics appear in :meth:`snapshot`,
        :meth:`dashboard` and chaos-experiment invariants.
        """
        from taureau.orchestration import Orchestrator

        orchestrator = Orchestrator(self.faas, **kwargs)
        self._subsystems.setdefault("orchestration", orchestrator)
        return orchestrator

    def with_workload(
        self,
        workload,
        *,
        function: typing.Optional[str] = None,
        payload_fn=None,
        fire=None,
        chunk_size: int = 200_000,
    ) -> "Platform":
        """Schedule a trace-driven workload onto this platform; run later.

        ``workload`` is a :class:`~taureau.workload.WorkloadSpec` (a
        trace is generated on the spot, seeded from the platform's
        master seed via the ``"workload.trace"`` named stream — same
        platform seed, same trace, so chaos plans, SLO monitors and
        tracing all ride one replayable arrival sequence) or a
        pre-built :class:`~taureau.workload.Trace` (replayed as-is).

        Each arrival invokes the registered ``function`` with payload
        ``payload_fn(index, tenant, function_index)`` (default: a dict
        of the two ids), or — for full control — calls a custom
        ``fire(index)`` instead; look columns up on the returned trace.
        Scheduling is chunked bulk posts of ``chunk_size`` arrivals, so
        ten-million-invocation traces keep the kernel's pending set
        small.  Returns ``self``; the scheduled trace is
        :attr:`workload_trace` and :meth:`run` executes it.
        """
        from taureau.workload import WorkloadSpec, generate_trace, replay_trace

        if isinstance(workload, WorkloadSpec):
            seed = self.sim.rng.numpy_seed("workload.trace")
            trace = generate_trace(workload, seed=seed)
        else:
            trace = workload
        if fire is None:
            if function is None:
                raise ValueError(
                    "with_workload needs a registered `function` name "
                    "(or a custom `fire` callable)"
                )
            if payload_fn is None:
                def payload_fn(index, tenant, function_index):
                    return {"tenant": tenant, "function": function_index}
            tenant_column = trace.tenants
            function_column = trace.functions
            invoke = self.faas.invoke

            def fire(index, _name=function):
                invoke(
                    _name,
                    payload_fn(
                        index,
                        int(tenant_column[index]),
                        int(function_column[index]),
                    ),
                )

        self._poke_loops()
        replay_trace(self.sim, trace, fire, chunk_size=chunk_size)
        self.workload_trace = trace
        return self

    # ------------------------------------------------------------------
    # Chaos engineering & resilience
    # ------------------------------------------------------------------

    def with_chaos(self, plan) -> "Platform":
        """Install a :class:`~taureau.chaos.FaultPlan` on this platform.

        The plan is compiled immediately against the current simulation:
        every fault's firing instant is drawn from dedicated
        ``sim.rng`` streams, so a given master seed replays the identical
        fault sequence (``verify_determinism`` covers chaos runs).
        Returns ``self``; the compiled
        :class:`~taureau.chaos.ChaosController` is :attr:`chaos` and its
        ``chaos.*`` metrics join :meth:`dashboard`.
        """
        from taureau.chaos import ChaosController

        if self._chaos is not None:
            raise RuntimeError("a chaos plan is already installed")
        self._chaos = ChaosController(self, plan)
        self._subsystems["chaos"] = self._chaos
        for client in self._gated_clients:
            client.faults = self._chaos
        return self

    def with_resilience(self, policy=None) -> "Platform":
        """Install a :class:`~taureau.chaos.ResiliencePolicy` platform-wide.

        FaaS invocations (orchestration and Pulsar triggers included) go
        through a :class:`~taureau.chaos.ResilientInvoker`
        (:attr:`resilience`); guarded BaaS/Jiffy clients retry injected
        faults in place; the Pulsar Functions runtime adopts
        ``policy.max_redeliveries`` as its dead-letter default.  Returns
        ``self``.
        """
        from taureau.chaos import ResiliencePolicy

        policy = policy if policy is not None else ResiliencePolicy()
        self._resilience_policy = policy
        self.faas.with_resilience(policy)
        for client in self._gated_clients:
            client.resilience = policy.retry
        pulsar = self._subsystems.get("pulsar")
        if pulsar is not None:
            pulsar.default_max_redeliveries = policy.max_redeliveries
        return self

    def with_durability(self) -> "Platform":
        """Install durable execution: journaled replay instead of re-run.

        Every FaaS invocation (and every single-message Pulsar function
        delivery) gets a write-ahead :class:`~taureau.durable.JournalEntry`.
        Journaled side effects — ``ctx.effect(key, fn)`` plus the
        intercepted KV/blob/DB/notification writes and Pulsar publishes
        — execute exactly once: a retried or recovered attempt replays
        the journal positionally and only runs fresh effects for real.
        Once a function's ``max_retries`` are spent, the platform
        re-dispatches an attempt an injected fault killed (up to 8
        times, backing off per :data:`taureau.durable.manager.RECOVERY`)
        without consuming the resilience layer's retry budget, bills by
        high-water mark so
        replayed slices are never double-charged, and
        :meth:`orchestrator` workflows can resume through
        ``run(..., checkpoint=app.durable.checkpointer.scope(key))``.

        Returns ``self``; the manager is :attr:`durable` and its summary
        joins :meth:`dashboard` under ``"durable"``.
        """
        from taureau.durable import DurabilityManager

        if self._durable is not None:
            raise RuntimeError("a durability layer is already installed")
        manager = DurabilityManager()
        self._durable = manager
        self._subsystems["durable"] = manager
        self.faas._durability = manager
        pulsar = self._subsystems.get("pulsar")
        if pulsar is not None:
            pulsar.durable = manager
        return self

    def with_control(self, policies=(), interval_s: float = 5.0) -> "Platform":
        """Install a closed-loop :class:`~taureau.control.ControlLoop`.

        ``policies`` are :class:`~taureau.control.Policy` instances
        ticked in order every ``interval_s`` simulated seconds; each
        gets a read-only :class:`~taureau.control.SignalView` and the
        shared :class:`~taureau.control.Actuator`.  When monitoring is
        (or later becomes) installed, SLO burn-rate alerts feed the
        view via ``Monitor.on_alert``.  Returns ``self``; the loop is
        :attr:`control`.
        """
        from taureau.control import ControlLoop

        if self._control is not None:
            raise RuntimeError("a control loop is already installed")
        self._control = ControlLoop(
            self.faas, policies, interval_s=interval_s,
            monitor=lambda: self.monitor,
        )
        self._control.ensure_running()
        return self

    def _gate_client(self, client, component: str) -> None:
        client.fault_component = component
        self._gated_clients.append(client)
        if self.chaos is not None:
            client.faults = self.chaos
        if self._resilience_policy is not None:
            client.resilience = self._resilience_policy.retry

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------

    def trace(self, trace_id: typing.Optional[str] = None) -> Trace:
        """A recorded trace by id, or the most recent one."""
        if self.tracer is None:
            raise RuntimeError("tracing is disabled on this Platform")
        if trace_id is None:
            return self.tracer.last_trace()
        return self.tracer.trace(trace_id)

    def last_trace(self) -> Trace:
        return self.trace(None)

    def registries(self) -> list:
        """Every live metric registry, platform first then subsystems.

        Evaluated fresh on each call so subsystems attached after a
        :class:`~taureau.obs.Monitor` was installed still get scraped.
        """
        registries = [self.faas.metrics]
        for subsystem in self._subsystems.values():
            registries.extend(self._registries_of(subsystem))
        if self.monitor is not None:
            registries.append(self.monitor.results)
        return registries

    def snapshot(self) -> dict:
        """Merged metric snapshot across the platform and attached subsystems.

        Keys are canonical dotted names (``faas.*``, ``pulsar.*``,
        ``jiffy.*``, ``baas.*``, plus ``monitor.*`` recording-rule
        series when monitoring is on), so one dict describes the whole
        stack.
        """
        merged: dict = {}
        for registry in self.registries():
            merged.update(registry.snapshot())
        return merged

    @staticmethod
    def _registries_of(subsystem) -> list:
        registries = []
        direct = getattr(subsystem, "metrics", None)
        if direct is not None:
            registries.append(direct)
        # One hop of well-known children (FunctionsRuntime.cluster's
        # brokers/bookies, JiffyController.pool, ...).
        for attr in ("pool", "cluster"):
            child = getattr(subsystem, attr, None)
            if child is None:
                continue
            child_metrics = getattr(child, "metrics", None)
            if child_metrics is not None:
                registries.append(child_metrics)
            for group in ("brokers", "bookies"):
                for node in getattr(child, group, []) or []:
                    node_metrics = getattr(node, "metrics", None)
                    if node_metrics is not None:
                        registries.append(node_metrics)
        return registries

    # ------------------------------------------------------------------
    # Monitoring (rules, SLOs, alerts) and exporters
    # ------------------------------------------------------------------

    def with_monitoring(self, rules=None, slos=None,
                        interval_s: float = 1.0) -> "Platform":
        """Install a virtual-time :class:`~taureau.obs.Monitor`.

        ``rules`` are :class:`~taureau.obs.RecordingRule`\\ s, ``slos``
        :class:`~taureau.obs.SloObjective`\\ s; both may be added later
        through the returned monitor.  The monitor scrapes
        :meth:`registries` live every ``interval_s`` simulated seconds
        while the simulation has work, and its alert fire/resolve events
        are deterministic under a fixed seed.  Returns ``self``; the
        monitor is :attr:`monitor`.
        """
        if self.monitor is None:
            # Exclude the monitor's own results registry from its scrape
            # targets: rules read raw metrics, not other rules.
            self.monitor = Monitor(
                self.sim,
                registries=lambda: [
                    registry
                    for registry in self.registries()
                    if registry is not self.monitor.results
                ],
                interval_s=interval_s,
            )
        for rule in rules or ():
            self.monitor.add_rule(rule)
        for slo in slos or ():
            self.monitor.add_slo(slo)
        self.monitor.ensure_running()
        return self

    def _poke_loops(self) -> None:
        """Re-arm the virtual-time loops (monitor, control, recorder)."""
        if self.monitor is not None:
            self.monitor.ensure_running()
        if self._control is not None:
            self._control.ensure_running()
        if self._recorder is not None:
            self._recorder.ensure_running()

    def alerts(self) -> list:
        """The append-only alert fire/resolve event log (empty if unmonitored)."""
        if self.monitor is None:
            return []
        return list(self.monitor.events)

    def prometheus(self) -> str:
        """The whole stack in Prometheus text exposition format.

        The document carries a trailing synthetic ``taureau_run_info``
        gauge (seed / config-digest labels, virtual end time value) so
        an exported snapshot identifies its run without a side channel.
        """
        return to_prometheus(self.registries(), run_info=self.run_info())

    def dashboard(self) -> dict:
        """One JSON-able health document: metrics + rules + SLOs + alerts
        (+ sanitizer findings when ``sanitize=True``, + the chaos
        ``faults`` and control-plane ``actions`` event logs when those
        subsystems are installed, + the ``run_info`` identity block)."""
        return dashboard_snapshot(
            self.registries(),
            monitor=self.monitor,
            sanitizer=self.sanitizer,
            chaos=self._chaos,
            control=self._control,
            run_info=self.run_info(),
            audit=self._auditor,
            durable=self._durable,
        )

    def config_digest(self) -> str:
        """A short stable digest of the platform's construction recipe.

        Hashes the construction surface that shapes simulated behaviour
        — cluster shape, service names, and the :class:`PlatformConfig`
        policy knobs (calibration and scheduler by class name — their
        instances carry no stable identity).  Deliberately excluded:
        the seed (it labels the *run*, not the configuration) and the
        behaviour-neutral host knobs ``tracing`` / ``sanitize``.
        """
        import hashlib
        import json

        kwargs = self._init_kwargs
        config = kwargs["config"]
        config_desc = None
        if config is not None:
            config_desc = {
                "keep_alive_s": config.keep_alive_s,
                "concurrency_limit": config.concurrency_limit,
                "queue_on_throttle": config.queue_on_throttle,
                "app_sandboxing": config.app_sandboxing,
                "calibration": type(config.calibration).__name__,
                "scheduler": type(config.scheduler).__name__,
            }
        services = kwargs["services"]
        recipe = {
            "machines": kwargs["machines"],
            "machine_cores": kwargs["machine_cores"],
            "machine_memory_mb": kwargs["machine_memory_mb"],
            "services": sorted(services) if services else [],
            "config": config_desc,
        }
        blob = json.dumps(recipe, sort_keys=True).encode("utf-8")
        return hashlib.blake2b(blob, digest_size=8).hexdigest()

    def run_info(self) -> dict:
        """The run's identity document: seed, virtual time, config digest."""
        return {
            "seed": self._init_kwargs["seed"],
            "virtual_time_s": self.sim.now,
            "config_digest": self.config_digest(),
        }

    # ------------------------------------------------------------------
    # Run recorder + HTML run explorer
    # ------------------------------------------------------------------

    def with_recorder(self, interval_s: float = 1.0) -> "Platform":
        """Install a :class:`~taureau.obs.RunRecorder` daemon.

        Samples queue depth, warm pools, cold fraction, topic backlogs,
        SLO burn lanes and breaker states every ``interval_s`` simulated
        seconds (same daemon discipline as the monitor: an idle recorder
        never keeps ``sim.run()`` alive).  Returns ``self``; the
        recorder is :attr:`recorder`, its output :meth:`run_artifact`
        and :meth:`save_report`.
        """
        from taureau.obs import RunRecorder

        if self._recorder is not None:
            raise RuntimeError("a run recorder is already installed")
        self._recorder = RunRecorder(self, interval_s=interval_s)
        self._recorder.ensure_running()
        return self

    def run_artifact(self):
        """The recorded run as a versioned :class:`~taureau.obs.RunArtifact`."""
        if self._recorder is None:
            raise RuntimeError(
                "no run recorder installed; call with_recorder() first"
            )
        return self._recorder.artifact()

    def save_report(self, path) -> str:
        """Render the recorded run as one self-contained HTML page.

        Writes the run explorer (see :mod:`taureau.obs.report`) to
        ``path`` and returns the path.  Byte-identical across same-seed
        runs; no external references, so the file opens anywhere.
        """
        from taureau.obs import render_report

        html = render_report(self.run_artifact())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(html)
        return path

    # ------------------------------------------------------------------
    # Determinism verification (taureau.lint layer 2)
    # ------------------------------------------------------------------

    @property
    def sanitizer(self):
        """The installed :class:`~taureau.lint.RaceSanitizer`, or ``None``."""
        return self.sim.sanitizer

    # ------------------------------------------------------------------
    # Wiring-time handler audit (taureau.lint layer 3)
    # ------------------------------------------------------------------

    @property
    def auditor(self):
        """The installed :class:`~taureau.lint.HandlerAuditor`, or ``None``."""
        return self._auditor

    def with_audit(self, strict: bool = False) -> "Platform":
        """Audit every registered handler for determinism hazards.

        Installs a :class:`~taureau.lint.HandlerAuditor` as the FaaS
        platform's registration hook: each handler is checked at wiring
        time for shared mutable captures (TAU105) and direct
        nondeterminism sources — wall clock, unseeded randomness,
        environment reads (TAU101/102/103).  Handlers already
        registered are audited immediately.  Findings accumulate on
        :attr:`auditor` and surface in :meth:`dashboard` under
        ``audit`` beside the runtime sanitizer's; ``strict=True``
        raises :class:`~taureau.lint.AuditError` at registration
        instead, rejecting the deployment.

        >>> app = taureau.Platform(seed=7).with_audit()
        >>> app.dashboard()["audit"]
        []
        """
        from taureau.lint.flow import HandlerAuditor

        if self._auditor is None:
            self._auditor = HandlerAuditor(strict=strict)
        else:
            self._auditor.strict = strict
        self.faas.audit_hook = self._auditor.audit_spec
        for name in sorted(self.faas._functions):
            self._auditor.audit_spec(self.faas._functions[name])
        return self

    def audit(self) -> list:
        """Audit all currently-registered handlers, returning findings.

        One-shot form of :meth:`with_audit`: runs the same wiring-time
        checks over every deployed function *now* (installing the
        auditor if absent) and returns the accumulated
        :class:`~taureau.lint.AuditFinding` list.
        """
        if self._auditor is None:
            self.with_audit(strict=False)
        else:
            for name in sorted(self.faas._functions):
                self._auditor.audit_spec(self.faas._functions[name])
        return list(self._auditor.findings)

    def verify_determinism(self, scenario, until=None, runs: int = 2):
        """Run ``scenario`` on ``runs`` fresh same-seed platforms and compare.

        ``scenario(platform)`` must build the entire workload (register
        functions, attach subsystems, invoke) against the platform it is
        given; any state it closes over must be created inside the call,
        or the runs are not independent.  After the scenario returns the
        simulation is drained (or advanced to ``until``), then metric
        snapshots, dashboards, costs and — when tracing is on — folded
        profiles are digested and compared byte-for-byte.

        Returns a :class:`~taureau.lint.DeterminismReport`; ``report.ok``
        is the same-seed ⇒ same-bytes contract, ``report.mismatches``
        names the first diverging series when it is broken.
        """
        from taureau.lint.sanitizer import (
            DeterminismReport,
            diff_states,
            stable_digest,
        )

        if runs < 2:
            raise ValueError("verify_determinism needs at least 2 runs")
        states = []
        digests = []
        for _run in range(runs):
            sibling = Platform(**self._init_kwargs)
            scenario(sibling)
            sibling.run(until=until)
            state = sibling._determinism_state()
            states.append(state)
            digests.append(stable_digest(state))
        ok = len(set(digests)) == 1
        mismatches: list = []
        if not ok:
            baseline = states[0]
            for index, state in enumerate(states[1:], start=2):
                for difference in diff_states(baseline, state):
                    mismatches.append(f"run 1 vs run {index}: {difference}")
        return DeterminismReport(ok=ok, digests=digests, mismatches=mismatches)

    def _determinism_state(self) -> dict:
        state = {
            "now": self.sim.now,
            "cost_usd": self.total_cost_usd(),
            "dashboard": self.dashboard(),
        }
        if self.tracer is not None:
            state["profile"] = self.profile()
        return state

    def profiler(self) -> Profiler:
        """A :class:`~taureau.obs.Profiler` over the recorded traces."""
        if self.tracer is None:
            raise RuntimeError("tracing is disabled on this Platform")
        return Profiler(self.tracer.store)

    def profile(self) -> list:
        """The aggregated flamegraph folded-stack profile (sorted lines)."""
        return self.profiler().folded()
