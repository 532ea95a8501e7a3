"""Behaviour pin: the simulated outputs of every scenario the repo checks.

Each scenario is one function returning ``{output name: text}``.  Short
human-readable outputs (tables, example stdout, counts) are kept
verbatim; everything else is kept as a blake2b digest.  The pins live in
``tests/golden/behaviour.json``, except the E-tables, whose pin is the
matching code block in ``EXPERIMENTS.md``.

A change that should not move simulated behaviour leaves
``behaviour.json`` untouched.  A change that does move it rewrites the
file with::

    PYTHONPATH=src python tests/test_golden.py

and names each moved key in its description.

Every scenario runs in the test process itself: every id the library
mints comes from the simulation that owns it, so what ran earlier in
the process cannot move a pin.  The scenarios in :data:`RUN_TWICE` run
twice, so a module-global leak between runs fails as
"nondeterministic" rather than as a moved pin.  Every other scenario
runs once: matching a pin written by another process already checks
cross-process determinism.
"""

import contextlib
import difflib
import functools
import hashlib
import importlib
import io
import json
import pathlib
import runpy
import sys

import pytest

import taureau
from taureau.chaos import (
    ChaosExperiment,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
    all_invocations_terminated,
    exactly_once_effects,
    no_double_billing,
    no_lost_acked_work,
)
from taureau.control import (
    HybridKeepAlive,
    PolicyLab,
    PredictivePrewarm,
    ReactiveConcurrency,
)
from taureau.core import PlatformConfig
from taureau.obs import (
    BurnRatePolicy,
    RecordingRule,
    SloObjective,
    render_report,
    validate_folded,
    validate_prometheus,
)
from taureau.pulsar import PulsarFunction
from taureau.workload import WorkloadSpec, generate_trace

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "behaviour.json"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402  (perfbench/workloads.py)

DIGEST = "blake2b:"


def digest(value) -> str:
    """Text as-is, anything else as JSON that keeps dict and list order."""
    text = value if isinstance(value, str) else json.dumps(value, default=repr)
    return DIGEST + hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def ordered(snapshot: dict) -> str:
    """A snapshot's digest, key order included: ``stable_digest`` sorts
    keys, so it would miss a metric that moved."""
    return digest(list(snapshot.items()))


# ----------------------------------------------------------------------
# Scenarios that run twice (RUN_TWICE), with the checks each must pass
# ----------------------------------------------------------------------

RETRY = RetryPolicy(max_attempts=8, base_delay_s=0.5, multiplier=2.0, jitter=0.0)


def _chaos_scenario(app):
    app.with_kvstore()
    jiffy = app.with_jiffy().jiffy
    jiffy.create("/smoke/q", "queue")

    @app.function("work")
    def work(event, ctx):
        ctx.charge(0.05)
        ctx.service("kv").put(f"k{event % 16}", event, ctx=ctx)
        ctx.service("jiffy").enqueue("/smoke/q", event, ctx=ctx)
        return event

    for index in range(40):
        app.sim.schedule_at(index * 0.5, lambda i=index: app.invoke("work", i))


def chaos():
    """Guarded KV and Jiffy writes under crashes, a BaaS error window and
    a Jiffy degradation, with retries."""
    report = ChaosExperiment(
        _chaos_scenario,
        plan=FaultPlan()
        .crash_sandbox(rate_hz=0.2, start_s=0.0, end_s=20.0)
        .baas_errors(start_s=4.0, end_s=9.0, error_rate=1.0, component="baas.kv")
        .degrade("jiffy", start_s=10.0, end_s=15.0, extra_latency_s=0.05),
        policy=ResiliencePolicy(retry=RETRY),
        seed=2026,
        invariants=[all_invocations_terminated],
    ).run()
    assert report.ok, report.summary()
    fired = {e.kind for e in report.fault_events if e.target != "(no target)"}
    assert len(fired) >= 2, fired
    app = report.platform
    snapshot = app.snapshot()
    assert any(key.startswith("chaos.faults_injected_by") for key in snapshot)
    return {
        "summary": report.summary(),
        "fault_events": digest(report.fault_events),
        "snapshot": ordered(snapshot),
        "dashboard": digest(app.dashboard()),
        "profile": digest(app.profile()),
    }


INVOCATIONS = 40


def _durable_scenario(app):
    app.with_kvstore()

    @app.function("work")
    def work(event, ctx):
        ctx.charge(0.05)
        kv = ctx.service("kv")
        kv.put(f"k{event % 16}", event, ctx=ctx)
        kv.counter_add("total", 1, ctx=ctx)
        return event

    for index in range(INVOCATIONS):
        app.sim.schedule_at(index * 0.5, app.invoke, "work", index)


def durable():
    """Journaled KV writes and a counter under crashes and a BaaS error
    window: every effect applied exactly once."""
    report = ChaosExperiment(
        _durable_scenario,
        plan=FaultPlan()
        .crash_sandbox(rate_hz=0.3, start_s=0.0, end_s=20.0)
        .baas_errors(start_s=4.0, end_s=9.0, error_rate=1.0, component="baas.kv"),
        policy=ResiliencePolicy(retry=RETRY),
        seed=2026,
        durability=True,
        invariants=[all_invocations_terminated, exactly_once_effects,
                    no_lost_acked_work, no_double_billing],
    ).run()
    assert report.ok, report.summary()
    assert report.fault_events
    app = report.platform
    assert app.kv.get("total") == INVOCATIONS
    summary = app.durable.summary()
    assert summary["entries_open"] == 0
    assert app.dashboard()["durable"]["effects_journaled"] > 0
    return {
        "summary": report.summary(),
        "durable": json.dumps(summary, indent=1),
        "fault_events": digest(report.fault_events),
        "journal": digest(app.durable.journal.to_json()),
        "snapshot": ordered(app.snapshot()),
        "dashboard": digest(app.dashboard()),
    }


def trace():
    """One traced FaaS -> Jiffy -> Pulsar workflow."""
    app = taureau.Platform(seed=2026)
    app.with_jiffy()
    runtime = app.with_pulsar().pulsar
    runtime.cluster.create_topic("events")
    runtime.deploy(PulsarFunction(
        name="sink", process=lambda payload, ctx: None, input_topics=["events"],
    ))

    @app.function("workflow")
    def workflow(event, ctx):
        scratch = ctx.service("jiffy")
        scratch.create("/stage", ctx=ctx)
        scratch.append("/stage", event, ctx=ctx)
        ctx.service("pulsar").producer("events").send(
            event, parent=ctx.span_context()
        )
        return "done"

    record = app.invoke_sync("workflow", {"payload": "smoke"})
    app.run()
    recorded = app.trace(record.trace_id)
    path = recorded.critical_path()
    assert abs(path.total_s - record.end_to_end_latency_s) <= 1e-9
    return {
        "spans": str(len(recorded)),
        "critical_path_s": repr(path.total_s),
        "chrome_trace": digest(recorded.to_chrome_trace()),
    }


def metrics():
    """A monitored FaaS workload whose injected outage fires and resolves
    a burn-rate alert."""
    app = taureau.Platform(seed=2026)

    @app.function("api", tenant="acme")
    def api(event, ctx):
        ctx.charge(0.05)
        if event is not None and 20 <= event < 32:
            raise RuntimeError("injected outage")
        return "ok"

    app.with_monitoring(
        rules=[
            RecordingRule("invocation_rate", "rate", "faas.invocations",
                          window_s=10.0),
            RecordingRule("error_ratio", "ratio", "faas.errors",
                          denominator="faas.invocations", window_s=10.0),
            RecordingRule("p99_latency", "quantile", "faas.e2e_latency_s",
                          window_s=10.0, q=99),
        ],
        slos=[SloObjective(
            "api-availability", objective=0.9, window_s=120.0,
            good='faas.invocations_by{function="api",outcome="ok"}',
            total="faas.invocations",
            burn_policies=(BurnRatePolicy(5.0, 15.0, 2.0),),
        )],
        interval_s=1.0,
    )
    for i in range(80):
        app.sim.schedule_after(i * 0.5, app.faas.invoke, "api", i)
    app.run()
    alerts = [(e.name, e.kind, e.time, e.severity) for e in app.alerts()]
    assert {"fire", "resolve"} <= {kind for _n, kind, _t, _s in alerts}
    prometheus, profile = app.prometheus(), app.profile()
    assert validate_prometheus(prometheus) == []
    assert validate_folded(profile) == []
    return {
        "alerts": "\n".join(repr(alert) for alert in alerts),
        "snapshot": ordered(app.snapshot()),
        "prometheus": digest(prometheus),
        "profile": digest(profile),
        "dashboard": digest(json.dumps(app.dashboard())),
    }


def _clean_workload(app):
    @app.function("api")
    def api(event, ctx):
        ctx.charge(0.05)
        return [*event, "ok"]  # new list: payload stays untouched

    for index in range(40):
        app.invoke("api", [index])


def sanitizer():
    """A well-behaved workload: the sanitizer finds nothing and does not
    perturb the run."""
    runs = {}
    for sanitize in (True, False):
        app = taureau.Platform(seed=42, sanitize=sanitize)
        _clean_workload(app)
        app.run()
        runs[sanitize] = app
    assert runs[True].sanitizer.report() == []
    plain = runs[False].dashboard()["metrics"]
    assert runs[True].dashboard()["metrics"] == plain
    report = taureau.Platform(seed=42).verify_determinism(_clean_workload)
    assert report.ok, report.render()
    return {
        "verify_determinism": report.render(),
        "metrics": ordered(plain),
    }


WORKLOAD_SPEC = WorkloadSpec(
    tenants=2_000, functions_per_tenant=4, horizon_s=120.0, mean_rps=40.0,
    peak_to_mean=4.0, period_s=120.0, phases=4,
)


def workload():
    """Trace generation, and its replay under machine and sandbox crashes."""
    generated = generate_trace(WORKLOAD_SPEC, seed=7)
    app = taureau.Platform(seed=2026, machines=2)

    @app.function("handler")
    def handler(event, ctx):
        ctx.charge(0.001)
        return event["tenant"]

    app.with_chaos(
        FaultPlan()
        .crash_machine(rate_hz=0.05, start_s=0.0, end_s=60.0)
        .crash_sandbox(rate_hz=0.1, start_s=0.0, end_s=60.0)
    )
    app.with_workload(WORKLOAD_SPEC, function="handler")
    app.run(until=240.0)
    return {
        "arrivals": str(len(generated)),
        "trace": digest([column.tolist() for column in (
            generated.times, generated.tenants, generated.functions)]),
        "trace_meta": digest(generated.meta),
        "snapshot": ordered(app.snapshot()),
        "dashboard": digest(app.dashboard()),
        "cost_usd": repr(app.total_cost_usd()),
    }


LAB_SPEC = WorkloadSpec(
    tenants=500, functions_per_tenant=4, horizon_s=120.0, mean_rps=12.0,
    peak_to_mean=5.0, period_s=120.0, phases=4,
)


def _lab_scenario(app):
    @app.function("handler", memory_mb=128, reserved_concurrency=2)
    def handler(event, ctx):
        ctx.charge(0.08)
        return event["tenant"]

    app.with_resilience(ResiliencePolicy(
        retry=RetryPolicy(max_attempts=1), breaker_failure_threshold=8,
    ))
    app.with_chaos(FaultPlan().crash_sandbox(rate_hz=0.02, start_s=0.0,
                                             end_s=90.0))
    app.with_monitoring(slos=[SloObjective(
        "fast", objective=0.95, window_s=60.0,
        latency="faas.e2e_latency_s", threshold_s=0.5,
        burn_policies=(BurnRatePolicy(30.0, 60.0, 1.5, severity="page"),),
    )], interval_s=5.0)
    app.with_workload(LAB_SPEC, function="handler")


def control():
    """A PolicyLab run: the static baseline and three policy stacks
    replay one diurnal trace under a chaos plan."""
    lab = PolicyLab(
        _lab_scenario,
        {
            "reactive": lambda: ReactiveConcurrency(high_queue=3, step=4),
            "predictive": lambda: PredictivePrewarm(min_arrivals=4),
            "hybrid-keepalive": lambda: HybridKeepAlive(min_samples=8),
        },
        seed=2026,
        until=240.0,
        interval_s=5.0,
        platform_kwargs={"config": PlatformConfig(keep_alive_s=30.0)},
    ).run()
    assert len({row["invocations"] for row in lab.rows}) == 1
    assert lab.row("static")["actions"] == 0
    assert sum(1 for row in lab.rows[1:] if row["actions"]) >= 2
    return {"table": lab.table()}


REPORT_SPEC = WorkloadSpec(
    tenants=200, functions_per_tenant=2, horizon_s=90.0, mean_rps=15.0,
    peak_to_mean=4.0, period_s=90.0, phases=3,
)


def report():
    """A recorded chaos + control + monitoring run and its HTML report."""
    app = (
        taureau.Platform(seed=2026, machines=2)
        .with_resilience(ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2), breaker_failure_threshold=6,
        ))
        .with_chaos(
            FaultPlan()
            .crash_sandbox(rate_hz=0.1, start_s=0.0, end_s=60.0)
            .crash_machine(at_s=20.0)
        )
        .with_monitoring(slos=[SloObjective(
            "fast", objective=0.95, window_s=60.0,
            latency="faas.e2e_latency_s", threshold_s=0.5,
            burn_policies=(BurnRatePolicy(20.0, 40.0, 1.5, severity="page"),),
        )], interval_s=5.0)
        .with_control(
            [ReactiveConcurrency(high_queue=3, step=4),
             PredictivePrewarm(min_arrivals=4)],
            interval_s=5.0,
        )
        .with_recorder(interval_s=5.0)
    )

    @app.function("handler", memory_mb=128, reserved_concurrency=2)
    def handler(event, ctx):
        ctx.charge(0.25)
        return event["tenant"]

    app.with_workload(REPORT_SPEC, function="handler")
    app.run(until=180.0)
    artifact = app.run_artifact()
    data = artifact.data
    series = data["samples"]["series"]
    for lane in ("faas.queue_depth", "faas.warm_pool", "faas.cold_fraction",
                 'slo_error_ratio{slo="fast"}'):
        assert lane in series, lane
    assert data["events"]["faults"] and data["events"]["actions"]
    html = render_report(artifact)
    for marker in ("http:", "https:", "//cdn", "<script src", "<link",
                   "@import", "url("):
        assert marker not in html, f"external reference {marker!r} in report"
    return {
        "recorder_ticks": str(app.recorder.ticks),
        "artifact": digest(artifact.to_json()),
        "html": digest(html),
    }


# ----------------------------------------------------------------------
# perfbench replays, at test_perfbench.py's smoke scales
# ----------------------------------------------------------------------

PERFBENCH_SCALES = {"faas_warm": 0.04, "cold_evict": 0.04,
                    "full_stack": 0.25, "stream_sketch": 0.04}
PERFBENCH_SEEDS = (1, 20261016)


def perfbench(name, seed):
    replay = workloads.make_workload(name, seed, PERFBENCH_SCALES[name])
    replay.setup()
    replay.run()
    app = replay.app
    pinned = {
        "sim_digest": replay.outcomes().digest(),
        "snapshot": ordered(app.snapshot()),
    }
    if name == "full_stack":
        actions = app.control.actuator.actions
        pinned.update(
            artifact=digest(app.run_artifact().to_json()),
            action_count=str(len(actions)),
            actions=digest(repr(actions)),
            alerts=digest(repr(app.monitor.events)),
        )
    if name == "stream_sketch":
        pinned.update(
            prometheus=digest(app.prometheus()),
            aggregator=ordered(replay.aggregator.metrics.snapshot()),
            metadata=ordered(app.pulsar.cluster.metadata.metrics.snapshot()),
        )
    return pinned


# ----------------------------------------------------------------------
# Examples: their stdout, verbatim
# ----------------------------------------------------------------------

#: ``web_application.py`` is left out: it runs for about 100 s.
EXAMPLES = [path for path in sorted((ROOT / "examples").glob("*.py"))
            if path.name != "web_application.py"]


def example(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return {"stdout": out.getvalue()}


# ----------------------------------------------------------------------
# E-tables, pinned by EXPERIMENTS.md
# ----------------------------------------------------------------------

#: Benches whose tables are not pinned, and why.  The rest print fully
#: simulated tables in about a second each.
UNPINNED_BENCHES = {
    "bench_sketch_batch": "E35, E35b: wall-clock throughput",
    "bench_sim_kernel": "E39, E39b: wall-clock throughput",
    "bench_report_overhead": "E41: wall-clock overhead",
    "bench_metrics_overhead": "E36: no pytest bench function; wall-clock rates",
    "bench_sanitizer_overhead": "E37: no pytest bench function; wall-clock overhead",
    "bench_chaos_overhead": "E38: no pytest bench function; wall-clock overhead",
    "bench_lint_scale": "E42: no pytest bench function; wall-clock lint times",
    "bench_seqcomp": "E18: runs for 21 s",
    "bench_control_plane": "E40: runs for 7.9 s",
    "bench_edge": "E31: runs for 4.1 s",
    "bench_billing": "E2: runs for 3.0 s",
    "bench_stragglers": "E20: runs for 2.7 s",
    "bench_query_engine": "E33: runs for 2.6 s",
    "bench_mapreduce": "E14: runs for 1.8 s",
    "bench_montecarlo": "E30: runs for 1.8 s",
}
BENCHES = [path.stem for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))
           if path.stem not in UNPINNED_BENCHES]


def tables(text: str) -> dict:
    """``{"E12": table text}`` for every ``=== E12: ... ===`` table in
    ``text``; a table ends at a blank line or a code fence."""
    found, lines = {}, None
    for line in text.splitlines():
        if line.startswith("=== ") and line.endswith(" ==="):
            lines = found[line[4:].split(":")[0]] = []
        elif not line.strip() or line.startswith("```"):
            lines = None
            continue
        if lines is not None:
            lines.append(line)
    return {key: "\n".join(lines) for key, lines in found.items()}


class _Once:
    """Stands in for pytest-benchmark's fixture: runs the bench body once."""

    @staticmethod
    def pedantic(fn, rounds, iterations):
        return fn()


def bench(module_name):
    module = importlib.import_module(module_name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for name, test in list(vars(module).items()):
            if name.startswith("test_") and callable(test):
                test(_Once())
    return tables(out.getvalue())


# ----------------------------------------------------------------------
# The one case
# ----------------------------------------------------------------------

#: Run twice in one process: a leak between runs fails as nondeterminism.
RUN_TWICE = {
    "chaos": chaos, "durable": durable, "trace": trace, "metrics": metrics,
    "sanitizer": sanitizer, "workload": workload, "control": control,
    "report": report,
}
SCENARIOS = {
    **RUN_TWICE,
    **{f"perfbench.{name}.{seed}": functools.partial(perfbench, name, seed)
       for name in PERFBENCH_SCALES for seed in PERFBENCH_SEEDS},
    **{f"example.{path.stem}": functools.partial(example, path)
       for path in EXAMPLES},
    **{f"experiments.{name}": functools.partial(bench, name) for name in BENCHES},
}


def run(name) -> dict:
    """Scenario ``name``'s outputs; a :data:`RUN_TWICE` scenario must
    give the same outputs when it runs again."""
    outputs = SCENARIOS[name]()
    if name in RUN_TWICE:
        again = SCENARIOS[name]()
        differ = sorted(key for key in outputs.keys() | again.keys()
                        if outputs.get(key) != again.get(key))
        assert not differ, (
            f"{name} is nondeterministic: two runs in one process differ "
            f"at {differ}"
        )
    return outputs


def pinned(name, outputs) -> dict:
    """What ``outputs`` must equal: a bench's tables as EXPERIMENTS.md
    shows them, or the scenario's entry in ``behaviour.json``."""
    if name.startswith("experiments."):
        assert outputs, f"{name} printed no E-table"
        documented = tables(EXPERIMENTS.read_text(encoding="utf-8"))
        return {key: documented.get(key) for key in outputs}
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(name, {})


@pytest.mark.parametrize("name", SCENARIOS)
def test_behaviour_matches_pin(name):
    outputs = run(name)
    pins = pinned(name, outputs)
    problems = []
    for key in sorted(outputs.keys() | pins.keys()):
        got, want = outputs.get(key), pins.get(key)
        if got == want:
            continue
        problems.append(f"pin moved: {name} / {key}")
        if got is not None and want is not None and not want.startswith(DIGEST):
            problems.extend(difflib.unified_diff(
                want.splitlines(), got.splitlines(), "pinned", "now",
                lineterm=""))
    assert not problems, "\n".join(problems)


def write_pins():
    """Rewrite ``behaviour.json`` from a fresh run of every scenario."""
    pins = {name: run(name) for name in SCENARIOS
            if not name.startswith("experiments.")}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(pins)} scenarios to {GOLDEN}")


if __name__ == "__main__":
    write_pins()
