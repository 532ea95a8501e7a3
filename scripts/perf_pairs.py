"""Alternating parent/change pairs of the end-to-end benchmark.

Runs ``python3 perfbench/run.py --trace 0`` in two checkouts, one pair
at a time, alternating which side goes first, and summarises each
end-to-end metric the way a claimed gain is judged: each side's median
and quartiles, the pairs the change won (ties count for neither), and
whether the gap between the medians exceeds the parent's interquartile
range.  It also reports each side's raw ``host_arrivals_per_s`` (the
replay rate before perfbench's host-speed scaling) and the replay count
of every run, both read from the run's ``provenance:`` line: a side
that completes more replays can read a lower scaled ``arrivals_per_s``
while its raw rate is no lower.

    python3 scripts/perf_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload full_stack --seed 1 --pairs 10 --seconds 20

Each checkout is run with its own ``perfbench/run.py`` from its root.
The metrics' directions come from this repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import typing

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: The raw replay rate, reported beside the end-to-end metrics.
RAW_RATE = "host_arrivals_per_s"


class Run(typing.NamedTuple):
    """What one perfbench run printed."""

    metrics: dict  # end-to-end metric name -> value
    host_arrivals_per_s: float
    replays: int
    sim_digest: str
    correct: bool
    failed: int


def parse_run(stdout: str) -> Run:
    """The metrics of a run's last line and its ``provenance:`` fields."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = next(json.loads(line[len("provenance: "):])
                      for line in lines if line.startswith("provenance: "))
    return Run(
        metrics={name: entry["value"]
                 for name, entry in result["metrics"].items()},
        host_arrivals_per_s=provenance[RAW_RATE],
        replays=provenance["replays"],
        sim_digest=provenance["sim_digest"],
        correct=result["correct"],
        failed=result["failed"],
    )


def quartiles(values: typing.Sequence[float]) -> tuple:
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


class Row(typing.NamedTuple):
    """One metric compared over the pairs."""

    name: str
    better: str  # "higher" or "lower"
    parent: tuple  # (q1, median, q3)
    change: tuple
    wins: int  # pairs in which the change read better
    pairs: int

    @property
    def gap(self) -> float:
        """Change median minus parent median."""
        return self.change[1] - self.parent[1]

    @property
    def parent_iqr(self) -> float:
        return self.parent[2] - self.parent[0]

    @property
    def exceeds_iqr(self) -> bool:
        return abs(self.gap) > self.parent_iqr


def compare(name: str, better: str, parent: typing.Sequence[float],
            change: typing.Sequence[float]) -> Row:
    """``parent[i]`` and ``change[i]`` are pair ``i``'s two runs."""
    if better not in ("higher", "lower"):
        raise ValueError(f"{name}: better must be 'higher' or 'lower', "
                         f"not {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{name}: {len(parent)} parent and {len(change)} "
                         "change runs do not make pairs")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (new - old) > 0 for old, new in zip(parent, change))
    return Row(name, better, quartiles(parent), quartiles(change), wins,
               len(parent))


def summarise(parent: typing.Sequence[Run], change: typing.Sequence[Run],
              directions: dict) -> list:
    """One row per end-to-end metric, then one for the raw replay rate."""
    rows = [compare(name, better, [run.metrics[name] for run in parent],
                    [run.metrics[name] for run in change])
            for name, better in directions.items()]
    rows.append(compare(RAW_RATE, "higher",
                        [run.host_arrivals_per_s for run in parent],
                        [run.host_arrivals_per_s for run in change]))
    return rows


def render(rows: list, parent: typing.Sequence[Run],
           change: typing.Sequence[Run]) -> str:
    """The summary table, replay counts and correctness, as text."""
    lines = [f"{'metric':<20} {'better':<7} {'parent q1/med/q3':>32} "
             f"{'change q1/med/q3':>32} {'gap':>8} {'wins':>6} "
             f"{'gap > parent IQR':>16}"]
    for row in rows:
        relative = row.gap / row.parent[1] if row.parent[1] else float("nan")
        lines.append(
            f"{row.name:<20} {row.better:<7} "
            f"{'/'.join(f'{v:.4g}' for v in row.parent):>32} "
            f"{'/'.join(f'{v:.4g}' for v in row.change):>32} "
            f"{relative:>+8.2%} {f'{row.wins}/{row.pairs}':>6} "
            f"{('yes' if row.exceeds_iqr else 'no'):>16}")
    for side, runs in (("parent", parent), ("change", change)):
        digests = sorted({run.sim_digest for run in runs})
        lines.append(
            f"{side}: replays {[run.replays for run in runs]}, "
            f"failed operations {sum(run.failed for run in runs)}, "
            f"all correct {all(run.correct for run in runs)}, "
            f"sim_digest {', '.join(digests)}")
    return "\n".join(lines)


def directions(benchmark: pathlib.Path) -> dict:
    """End-to-end metric name -> ``better``, in the benchmark's order."""
    declared = json.loads(benchmark.read_text())
    return {metric["name"]: metric["better"] for metric in declared["end_to_end"]}


def run_once(checkout: pathlib.Path, args) -> Run:
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(command)} exited "
                           f"{done.returncode}\n{done.stdout}{done.stderr}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path, help="parent checkout")
    parser.add_argument("change", type=pathlib.Path, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent, "change": args.change}
    runs: dict = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args)
            runs[side].append(run)
            print(f"pair {pair} {side}: {run.replays} replays, "
                  + ", ".join(f"{name} {value:.6g}"
                              for name, value in run.metrics.items())
                  + f", {RAW_RATE} {run.host_arrivals_per_s:.6g}", flush=True)
    rows = summarise(runs["parent"], runs["change"],
                     directions(ROOT / "BENCHMARK.json"))
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs")
    print(render(rows, runs["parent"], runs["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
