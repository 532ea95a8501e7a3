"""E42 — Incremental whole-program lint: cold vs warm-cache analysis.

The ``--flow`` pass builds a project index (one AST parse per file), a
call graph, and a taint fixed point.  The incremental cache persists
the summaries keyed by content digest, so a warm re-analysis after a
single-file edit re-parses exactly one file and re-propagates taint
only over that file's reverse-dependency closure.  The acceptance bar
(enforced here, wired into check.sh): the warm single-edit run is at
least **5x** faster than the cold run over the same tree.

The tree under analysis is this repository itself (``src tests
benchmarks scripts examples`` — a few hundred modules), loaded once
into memory so cold and warm runs see identical bytes and the timings
compare pure analysis work, not disk behaviour.

Run directly (``python benchmarks/bench_lint_scale.py [--smoke]``);
``--smoke`` trims repeats for CI.  Full runs write
``benchmarks/BENCH_lint_scale.json``; smoke runs write nothing.
"""

import argparse
import gc
import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from tables import print_table

from taureau.lint.config import load_config
from taureau.lint.engine import LintEngine
from taureau.lint.flow import FlowAnalysis

PATHS = ["src", "tests", "benchmarks", "scripts", "examples"]
MIN_SPEEDUP = 5.0


def load_sources() -> dict:
    """The repo tree as {normalized path: source}, read once."""
    config = load_config()
    engine = LintEngine([], config=config)
    sources = {}
    for path in engine.discover(PATHS):
        normalized = engine._normalize(path)
        if engine._excluded(normalized):
            continue
        with open(path, encoding="utf-8") as handle:
            sources[normalized] = handle.read()
    return sources


def timed_run(
    sources: dict, cache_path: str, repeats: int, reset_cache: bytes = None
) -> tuple:
    """Best-of-N analysis wall time and the result of the first run.

    ``reset_cache`` restores the cache file before every repeat — a
    run updates the cache, so without the reset only the first repeat
    would measure the single-edit warm path.
    """
    best = float("inf")
    result = None
    config = load_config()
    for index in range(repeats):
        if reset_cache is not None:
            pathlib.Path(cache_path).write_bytes(reset_cache)
        gc.disable()
        start = time.perf_counter()
        run = FlowAnalysis(config=config, cache_path=cache_path).run_sources(
            sources
        )
        elapsed = time.perf_counter() - start
        gc.enable()
        if index == 0:
            result = run
        best = min(best, elapsed)
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    repeats = 1 if args.smoke else 3

    sources = load_sources()
    # The edited file: the last test module — nothing imports tests, so
    # the reverse-dependency closure is exactly the file itself (the
    # common warm case: you touched one leaf).
    leaf = sorted(p for p in sources if p.startswith("tests/"))[-1]

    with tempfile.TemporaryDirectory() as tmp:
        cache = str(pathlib.Path(tmp) / "cache.json")
        cold_s, cold = timed_run(sources, cache, repeats=1)
        primed = pathlib.Path(cache).read_bytes()

        edited = dict(sources)
        edited[leaf] = sources[leaf] + "\n# bench: single-file edit\n"
        warm_s, warm = timed_run(
            edited, cache, repeats=max(repeats, 3), reset_cache=primed
        )

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    rows = [
        ["cold (full parse)", f"{len(cold.parsed)}", f"{cold_s * 1e3:.1f}"],
        ["warm (one edit)", f"{len(warm.parsed)}", f"{warm_s * 1e3:.1f}"],
        ["speedup", "", f"{speedup:.1f}x"],
    ]
    print_table(
        f"E42: incremental flow lint over {len(sources)} modules "
        f"(edit: {leaf})",
        ["run", "files parsed", "time (ms)"],
        rows,
    )

    assert len(cold.parsed) == len(sources), "cold run must parse everything"
    assert warm.parsed == [leaf], (
        f"warm run should re-parse only {leaf}, got {warm.parsed}"
    )
    assert warm.revisited == [leaf], (
        f"a leaf edit should revisit only itself, got {warm.revisited}"
    )
    assert len(cold.findings) == len(warm.findings), (
        "the comment edit must not change findings"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm-cache analysis is only {speedup:.1f}x faster than cold "
        f"(bar: {MIN_SPEEDUP}x)"
    )

    if not args.smoke:
        out = pathlib.Path(__file__).parent / "BENCH_lint_scale.json"
        out.write_text(
            json.dumps(
                {
                    "experiment": "E42",
                    "modules": len(sources),
                    "edited": leaf,
                    "cold_s": cold_s,
                    "warm_s": warm_s,
                    "speedup": speedup,
                    "min_speedup": MIN_SPEEDUP,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
