"""taureau's end-to-end benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload faas_warm --seed 1 --seconds 20 --trace 0

Each run generates the workload's seeded trace and replays every arrival
through the public invoke path (see ``workloads.py``), repeatedly, for
``--seconds`` of host time after one small warm-up replay.  Every replay
builds a fresh platform from the same seed, so every replay must produce
the same ``sim_digest``.

``--trace 0`` reports the end-to-end metrics (medians over the replays).
The two host-time metrics, ``arrivals_per_s`` and ``setup_s``, are
expressed at the reference host speed: a fixed pure-Python probe
(:func:`reference_seconds`) runs between replays, and the raw medians
are scaled by how fast the host ran it (``host_speed``).  Shared hosts
drift by a third within minutes; the probe drifts with them, so the
scaled figures compare across runs.  The raw host figures are printed
and saved beside them.
``--trace 1`` alternates untraced and traced replays, reports the
per-layer metrics of the median traced replay, ranks the layers by self
time and writes the span dump and report under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed outcome
check prints ``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: The seed the benchmark is tuned and reported on.
DEFAULT_SEED = 1
#: Never used while tuning: later performance claims are re-checked on it.
HELDOUT_SEED = 20261016
#: Replays a run makes at the least, so medians have something to pick.
MIN_REPLAYS = 3
#: Traced replays a run keeps at most (each holds its span log in memory).
MAX_TRACED = 2
#: Set-up timings a run takes at the least; set-up-only builds top the
#: replays' own set-ups up to this count.
SETUP_SAMPLES = 15
#: Size of the warm-up replay, as a fraction of the full trace.
WARMUP_SCALE = 0.25
#: The p99.9 latency needs at least this many samples beyond it.
TAIL_SAMPLES = 10
#: Events the reference kernel processes, and the host seconds it takes
#: on a quiet 2-core Xeon VM (Python 3.11): the unit of host speed.
REFERENCE_EVENTS = 30_000
REFERENCE_S = 0.1

END_TO_END_UNITS = {
    "arrivals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_latency_p50_s": "s",
    "sim_latency_p999_s": "s",
    "ok_frac": "ratio",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, from its name."""
    from layers import LAYER_TABLE

    units = {}
    for name in PER_LAYER_NAMES:
        if name.endswith("_s") or name in LAYER_TABLE:
            units[name] = "s"
        elif name == "sim.ns_per_entry":
            units[name] = "ns"
        elif name == "sim_cost_usd":
            units[name] = "USD"
        elif name.endswith(("_frac", "_ratio")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


PER_LAYER_NAMES = (
    "sim.entries", "sim.self_s", "sim.ns_per_entry",
    "metrics.lookups", "metrics.lookup_s",
    "workload.generate_s", "workload.arrivals",
    "core.invoke_s", "core.event_s", "core.cold_starts", "core.evictions",
    "core.expirations", "core.retries", "core.queue_delay_p99_s",
    "sim_cold_frac", "sim_cost_usd",
    "placement.calls", "placement.s", "placement.hit_ratio",
    "baas.kv.reads", "baas.kv.writes", "baas.kv.s", "baas.kv.faults",
    "obs.spans", "obs.tracer_s", "obs.monitor_ticks", "obs.monitor_s",
    "obs.recorder_ticks", "obs.recorder_s",
    "chaos.compile_s", "chaos.faults_compiled", "chaos.faults_fired",
    "chaos.guard_calls", "chaos.guard_s", "chaos.fire_s",
    "resilience.calls", "resilience.s", "resilience.retries",
    "durable.entries", "durable.effects_journaled",
    "durable.effects_replayed", "durable.recoveries", "durable.s",
    "control.ticks", "control.actions", "control.s",
    "pulsar.sends", "pulsar.send_s", "pulsar.event_s", "pulsar.batches",
    "pulsar.redeliveries",
    "sketch.add_many_calls", "sketch.items", "sketch.s",
    "handler.s", "residual_s", "trace.run_s", "trace.overhead_frac",
)


def import_program():
    """Put the checkout's ``src`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "taureau" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no taureau sources under {src}; run from a "
            "checkout of the repository"
        )
    sys.path.insert(0, str(src))
    import taureau

    if pathlib.Path(taureau.__file__).resolve().parents[1] != src:
        raise SystemExit(f"perfbench: taureau imported from {taureau.__file__}")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, params: dict, arrivals: int, replays: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "arrivals_per_replay": arrivals,
        "replays": replays,
    }


class Replay:
    """One set-up + run + check of a workload, with its host timings."""

    def __init__(self, name: str, seed: int, scale: float, recorder=None,
                 exercise: bool = True):
        from workloads import make_workload

        self.workload = make_workload(name, seed, scale)
        self.recorder = recorder
        self.exercise = exercise
        if recorder is not None:
            from layers import install_setup_timers

            self.workload.on_platform.append(
                lambda app: (recorder.install_kernel(app.sim),
                             install_setup_timers(recorder, app)))

    def execute(self) -> "Replay":
        import layers

        workload = self.workload
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        self.setup_s = time.perf_counter() - start
        if self.recorder is not None:
            layers.install(self.recorder, workload)
        gc.collect()
        if self.recorder is not None:
            self.recorder.active = True
        start = time.perf_counter()
        workload.run()
        self.run_s = time.perf_counter() - start
        if self.recorder is not None:
            self.recorder.active = False
        self.arrivals = len(workload.trace)
        self.arrivals_per_s = self.arrivals / self.run_s
        self.outcomes = workload.outcomes()
        self.digest = self.outcomes.digest()
        self.failed = int((self.outcomes.status != 0).sum())
        self.checks = workload.checks(exercise=self.exercise)
        self.params = workload.params()
        if self.recorder is not None:
            self.layers = layers.layer_metrics(
                self.recorder, workload, self.run_s, self.outcomes)
        # Drop the platform so the next replay starts from a clean heap.
        self.workload = None
        return self


def setup_only(name: str, seed: int, scale: float) -> float:
    """Host seconds of one set-up whose replay is never run."""
    from workloads import make_workload

    workload = make_workload(name, seed, scale)
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


class _ReferenceItem:
    __slots__ = ("when", "seq", "payload")

    def __init__(self, when, seq, payload):
        self.when = when
        self.seq = seq
        self.payload = payload


def reference_seconds() -> float:
    """Host seconds of a fixed pure-Python event loop: the speed probe.

    It mixes what the simulator's hot path does (heap pushes and pops,
    tuples, small objects, dict stores, calls) but runs none of
    taureau's code, so no change to the program can move it.  On a
    shared host its time tracks how fast the host runs Python right now.
    The collector is paused so the garbage of the last replay cannot
    bill its collection to the probe.
    """
    gc.collect()
    gc.disable()
    try:
        return _reference_loop()
    finally:
        gc.enable()


def _reference_loop() -> float:
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    total = 0.0
    for index in range(REFERENCE_EVENTS):
        heapq.heappush(heap, ((index * 7919) % 10007 * 0.001, index,
                              _ReferenceItem(index * 0.5, index, {"k": index})))
    while heap:
        when, seq, item = heapq.heappop(heap)
        table[seq % 1021] = item
        total += item.when + len(item.payload)
        if seq % 3 == 0 and when < 5.0:
            heapq.heappush(heap, (when + 5.0, seq + REFERENCE_EVENTS,
                                  _ReferenceItem(when, seq, {})))
    return time.perf_counter() - start


def check(name: str, ok: bool, detail: str) -> tuple:
    return (name, bool(ok), detail)


def summarise(replays: list, traced: list, setups: list, references: list,
              args) -> tuple:
    """Metrics, checks and counts of a run's replays."""
    import numpy

    first = replays[0]
    digests = {replay.digest for replay in replays + traced}
    checks = [check("same_sim_digest_every_replay", len(digests) == 1,
                    f"{len(digests)} distinct digests over "
                    f"{len(replays) + len(traced)} replays")]
    if traced:
        diverged = sum(replay.digest != first.digest for replay in traced)
        checks.append(check("traced_digest_equals_untraced", diverged == 0,
                            f"{diverged} of {len(traced)} traced replays "
                            "diverged from the untraced digest"))
    checks.extend(first.checks)
    latency = first.outcomes.latency_s
    samples = int(latency.size)
    if args.scale == 1.0:
        beyond = samples * (1.0 - 0.999)
        checks.append(check("p999_has_tail_samples", beyond >= TAIL_SAMPLES,
                            f"{samples} samples, {beyond:.1f} beyond p99.9"))
    ok = first.outcomes.status == 0
    p50, p999 = numpy.percentile(latency, [50.0, 99.9])
    speed = statistics.median(REFERENCE_S / ref for ref in references)
    metrics = {
        "arrivals_per_s": statistics.median(
            r.arrivals_per_s for r in replays) / speed,
        "setup_s": statistics.median(setups) * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_latency_p50_s": float(p50),
        "sim_latency_p999_s": float(p999),
        "ok_frac": float(numpy.mean(ok)),
    }
    simulated = {
        "host_speed": speed,
        "host_arrivals_per_s": statistics.median(
            r.arrivals_per_s for r in replays),
        "host_setup_s": statistics.median(setups),
        "sim_digest": first.digest,
        "sim_latency_samples": samples,
        "sim_cold_frac": float(numpy.mean(first.outcomes.cold)),
        "sim_cost_usd": float(numpy.sum(first.outcomes.cost_usd)),
    }
    failed = sum(replay.failed for replay in replays + traced)
    return metrics, simulated, checks, failed


def run(args) -> int:
    import layers
    import workloads

    warmup = Replay(args.workload, args.seed, WARMUP_SCALE * args.scale,
                    exercise=False).execute()
    warmup_checks = [check(f"warmup.{name}", ok, detail)
                     for name, ok, detail in warmup.checks]

    replays: list = []
    traced: list = []
    # The host-speed probe runs between replays, so it samples the same
    # stretch of host time the replays do.
    references = [reference_seconds()]
    start = time.perf_counter()
    while True:
        replays.append(Replay(args.workload, args.seed, args.scale).execute())
        references.append(reference_seconds())
        if args.trace:
            recorder = layers.SpanRecorder(bench_modules={workloads.__name__})
            traced.append(Replay(args.workload, args.seed, args.scale,
                                 recorder=recorder).execute())
            references.append(reference_seconds())
            if len(traced) >= MAX_TRACED:
                break
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (args.trace or len(replays) >= MIN_REPLAYS):
            break
    attempted = sum(r.arrivals for r in [warmup] + replays + traced)
    setups = [replay.setup_s for replay in replays]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_only(args.workload, args.seed, args.scale))

    metrics, simulated, checks, failed = summarise(
        replays, traced, setups, references, args)
    checks = warmup_checks + checks
    failed += warmup.failed
    correct = all(ok for _name, ok, _detail in checks)
    info = provenance(args, replays[0].params, replays[0].arrivals,
                      len(replays) + len(traced))
    info.update(simulated)
    info["replay_arrivals_per_s"] = [r.arrivals_per_s for r in replays]
    info["setup_samples_s"] = setups
    info["reference_s"] = references

    print(f"perfbench {args.workload}: {len(replays)} untraced and "
          f"{len(traced)} traced replays of {replays[0].arrivals} arrivals")
    print("provenance: " + json.dumps(info, sort_keys=True))
    for name, ok, detail in checks:
        print(f"  check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"  sim_digest {simulated['sim_digest']}  "
          f"sim_cold_frac {simulated['sim_cold_frac']:.6g}  "
          f"sim_cost_usd {simulated['sim_cost_usd']:.6g}  "
          f"latency samples {simulated['sim_latency_samples']}")
    print(f"  host speed {simulated['host_speed']:.4g} of reference; raw host "
          f"arrivals_per_s {simulated['host_arrivals_per_s']:.6g}, "
          f"setup_s {simulated['host_setup_s']:.6g}")
    for name, value in metrics.items():
        print(f"  {name:<20} {value:>14.6g} {END_TO_END_UNITS[name]}")

    stem = f"{args.workload}-seed{args.seed}"
    result = {"end_to_end": metrics, "provenance": info,
              "checks": [list(item) for item in checks]}
    if args.trace:
        untraced_aps = simulated["host_arrivals_per_s"]
        chosen = sorted(traced, key=lambda r: r.run_s)[len(traced) // 2]
        per_layer = dict(chosen.layers)
        per_layer["trace.overhead_frac"] = 1.0 - statistics.median(
            r.arrivals_per_s for r in traced) / untraced_aps
        report = layers.layer_report(per_layer)
        spans = layers.write_spans(chosen.recorder, OUT_DIR / f"{stem}-spans.npz")
        print_layer_report(report, per_layer, spans)
        result.update(per_layer=per_layer, layers=report,
                      span_dump=str(spans.relative_to(ROOT)))
        output = {name: per_layer[name] for name in PER_LAYER_NAMES}
        units = per_layer_units()
    else:
        output = metrics
        units = END_TO_END_UNITS
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=2,
                                                     sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in output.items()},
    }))
    return 0 if correct else 1


def print_layer_report(report: list, per_layer: dict, spans) -> None:
    run_s = per_layer["trace.run_s"]
    print(f"  traced run phase {run_s:.4f} s, tracing overhead "
          f"{per_layer['trace.overhead_frac']:.1%} of arrivals_per_s")
    print(f"  {'rank':<5}{'layer':<12}{'self_s':>10}{'share':>8}  should move")
    for rank, row in enumerate(report, start=1):
        print(f"  {rank:<5}{row['layer']:<12}{row['self_s']:>10.4f}"
              f"{row['share']:>8.1%}  {'; '.join(row['should_move'])}")
    total = sum(row["self_s"] for row in report)
    print(f"  layers + residual {total:.4f} s of {run_s:.4f} s run phase")
    for name in PER_LAYER_NAMES:
        print(f"    {name:<28} {per_layer[name]:>14.6g}")
    print(f"  span dump: {spans}")


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace size factor (tests use small scales)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    import_program()
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
