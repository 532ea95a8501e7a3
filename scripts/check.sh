#!/usr/bin/env bash
# Tier-1 gate: repo hygiene, lint (ruff when installed, then taurlint's
# determinism analysis), the full test suite, the perfbench smoke
# tests, and --smoke runs of the benches that gate wall-clock bounds.
# The test suite includes tests/test_golden.py, which pins the
# simulated outputs of every scenario, example and E-table it covers.
# The gate fails if a step leaves the working tree changed.  Run from
# the repo root:
#
#   scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src
tree_before="$(git status --porcelain)"

echo "== repo hygiene: no tracked bytecode =="
if git ls-files | grep -q '\.pyc$'; then
    echo "error: compiled bytecode is tracked in git:" >&2
    git ls-files | grep '\.pyc$' >&2
    exit 1
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks scripts
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== taurlint: determinism static analysis (per-file + whole-program) =="
python -m taureau.lint src tests benchmarks scripts examples --flow

echo "== pytest (tier-1, including the behaviour pin) =="
python -m pytest -x -q

echo "== pytest: end-to-end benchmark smoke (perfbench) =="
python -m pytest perfbench -q

echo "== bench smoke: batch data plane =="
python benchmarks/bench_sketch_batch.py --smoke

echo "== bench smoke: metrics overhead =="
python benchmarks/bench_metrics_overhead.py --smoke

echo "== bench smoke: sanitizer overhead =="
python benchmarks/bench_sanitizer_overhead.py --smoke

echo "== bench smoke: chaos overhead + recovery =="
python benchmarks/bench_chaos_overhead.py --smoke

echo "== bench smoke: durable recovery vs re-execution =="
python benchmarks/bench_durable_recovery.py --smoke

echo "== bench smoke: simulation kernel =="
python benchmarks/bench_sim_kernel.py --smoke

echo "== bench smoke: control plane vs static baseline =="
python benchmarks/bench_control_plane.py --smoke

echo "== bench smoke: run-recorder overhead =="
python benchmarks/bench_report_overhead.py --smoke

echo "== bench smoke: incremental lint speedup =="
python benchmarks/bench_lint_scale.py --smoke

echo "== repo hygiene: the gate left the working tree as it found it =="
tree_after="$(git status --porcelain)"
if [ "$tree_before" != "$tree_after" ]; then
    echo "error: check.sh changed the working tree:" >&2
    diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
    exit 1
fi

echo "check.sh: all gates passed"
