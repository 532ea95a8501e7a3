"""Smoke-size tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402

SMOKE_SCALE = 0.04
#: full_stack needs more arrivals before a sandbox crash reliably hits a
#: write whose journaled effect is then replayed.
SMOKE_SCALES = {"full_stack": 0.25}
SEED = 3


def replay(name, traced=False):
    recorder = (layers.SpanRecorder(bench_modules={workloads.__name__})
                if traced else None)
    scale = SMOKE_SCALES.get(name, SMOKE_SCALE)
    return run.Replay(name, SEED, scale, recorder=recorder).execute()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_every_outcome_check(name):
    result = replay(name)
    failures = [item for item in result.checks if not item[1]]
    assert not failures
    assert result.failed == 0
    assert result.arrivals > 100


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_replay_reproduces_digest_and_adds_up(name):
    untraced = replay(name)
    traced = replay(name, traced=True)
    assert traced.digest == untraced.digest
    metrics = traced.layers
    total = sum(metrics[key] for key in layers.LAYER_TABLE)
    assert math.isclose(total, metrics["trace.run_s"], rel_tol=1e-9)
    assert metrics["sim.entries"] > 0
    assert metrics["handler.s"] > 0
    assert len(traced.recorder.starts) == len(traced.recorder.ends) > 0


def test_each_workload_exercises_its_layers():
    warm = replay("faas_warm", traced=True).layers
    evict = replay("cold_evict", traced=True).layers
    full = replay("full_stack", traced=True).layers
    stream = replay("stream_sketch", traced=True).layers
    assert warm["core.evictions"] == 0
    assert evict["core.evictions"] > 0 and evict["placement.calls"] > 0
    for key in ("obs.spans", "obs.monitor_ticks", "obs.recorder_ticks",
                "chaos.faults_fired", "chaos.guard_calls", "resilience.calls",
                "durable.effects_journaled", "control.ticks",
                "baas.kv.reads", "baas.kv.writes"):
        assert full[key] > 0, key
    for key in ("pulsar.sends", "pulsar.batches", "sketch.add_many_calls",
                "sketch.items"):
        assert stream[key] > 0, key
    assert stream["core.invoke_s"] == 0


def test_digest_depends_on_the_seed():
    first = run.Replay("faas_warm", 1, SMOKE_SCALE).execute()
    second = run.Replay("faas_warm", 2, SMOKE_SCALE).execute()
    assert first.digest != second.digest


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric_with_its_unit(trace, capsys):
    code = run.main(["--workload", "faas_warm", "--seed", str(SEED),
                     "--seconds", "0", "--trace", str(trace),
                     "--scale", str(SMOKE_SCALE)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.per_layer_units() if trace else run.END_TO_END_UNITS
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == expected
    for name in expected:
        assert any(line.strip().startswith(name) for line in lines[:-1]), name


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "faas_warm"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_benchmark_json_lists_the_printed_metrics():
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json beside this checkout")
    spec = json.loads(path.read_text())
    assert {entry["name"]: entry["unit"] for entry in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {entry["name"]: entry["unit"] for entry in spec["per_layer"]} \
        == run.per_layer_units()
    assert {entry["name"] for entry in spec["workloads"]} \
        == set(workloads.WORKLOADS)
