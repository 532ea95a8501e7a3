"""The A/B pair runner's summary (``scripts/perf_pairs.py``), on fixed
numbers; no benchmark runs here."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import perf_pairs  # noqa: E402  (scripts/perf_pairs.py)


def run(arrivals_per_s, peak_rss_mb, raw, replays, digest="d0", failed=0):
    return perf_pairs.Run(
        metrics={"arrivals_per_s": arrivals_per_s, "peak_rss_mb": peak_rss_mb},
        host_arrivals_per_s=raw, replays=replays, sim_digest=digest,
        correct=True, failed=failed)


DIRECTIONS = {"arrivals_per_s": "higher", "peak_rss_mb": "lower"}


class TestCompare:
    def test_quartiles_wins_and_the_parent_iqr(self):
        row = perf_pairs.compare("peak_rss_mb", "lower",
                                 [84.0, 83.0, 85.0, 84.5, 83.5],
                                 [75.0, 84.0, 74.0, 85.5, 73.0])
        assert row.parent == (83.5, 84.0, 84.5)
        assert row.change == (74.0, 75.0, 84.0)
        # Pairs 1 and 3 lose: 84.0 > 83.0 and 85.5 > 84.5.
        assert (row.wins, row.pairs) == (3, 5)
        assert row.gap == -9.0 and row.parent_iqr == 1.0
        assert row.exceeds_iqr

    def test_ties_count_for_neither_side(self):
        row = perf_pairs.compare("ok_frac", "higher", [1.0, 1.0, 0.9],
                                 [1.0, 1.0, 1.0])
        assert row.wins == 1
        assert not row.exceeds_iqr  # gap 0 against an IQR of 0.05

    def test_higher_is_better_counts_the_other_way(self):
        row = perf_pairs.compare("arrivals_per_s", "higher",
                                 [100.0, 110.0], [105.0, 100.0])
        assert row.wins == 1
        assert row.parent == (102.5, 105.0, 107.5)
        assert row.gap == -2.5 and not row.exceeds_iqr

    def test_one_pair_is_its_own_quartiles(self):
        row = perf_pairs.compare("setup_s", "lower", [2.0], [1.0])
        assert row.parent == (2.0, 2.0, 2.0) and row.wins == 1
        assert row.exceeds_iqr

    def test_unpaired_or_undirected_runs_are_rejected(self):
        with pytest.raises(ValueError, match="do not make pairs"):
            perf_pairs.compare("setup_s", "lower", [1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="do not make pairs"):
            perf_pairs.compare("setup_s", "lower", [], [])
        with pytest.raises(ValueError, match="better must be"):
            perf_pairs.compare("setup_s", "smaller", [1.0], [1.0])


class TestSummary:
    def test_the_raw_rate_can_disagree_with_the_scaled_one(self):
        # The side that completes more replays reads a lower scaled rate
        # while its raw rate is higher.
        parent = [run(10_681.0, 84.0, 9_000.0, 10),
                  run(10_500.0, 83.8, 9_100.0, 10)]
        change = [run(8_903.0, 75.0, 9_800.0, 11),
                  run(9_100.0, 74.6, 9_700.0, 11)]
        rows = perf_pairs.summarise(parent, change, DIRECTIONS)
        assert [row.name for row in rows] == [
            "arrivals_per_s", "peak_rss_mb", "host_arrivals_per_s"]
        scaled, rss, raw = rows
        assert (scaled.wins, rss.wins, raw.wins) == (0, 2, 2)
        assert raw.parent[1] == 9_050.0 and raw.change[1] == 9_750.0
        text = perf_pairs.render(rows, parent, change)
        assert "parent: replays [10, 10], failed operations 0" in text
        assert "change: replays [11, 11], failed operations 0" in text
        lines = {line.split()[0]: line for line in text.splitlines()}
        assert lines["peak_rss_mb"].split()[-2:] == ["2/2", "yes"]
        assert "-10.85%" in lines["peak_rss_mb"]

    def test_render_names_every_digest_and_failure(self):
        parent = [run(1.0, 1.0, 1.0, 3, digest="aa")]
        change = [run(1.0, 1.0, 1.0, 3, digest="bb", failed=2)]
        text = perf_pairs.render(
            perf_pairs.summarise(parent, change, DIRECTIONS), parent, change)
        assert "failed operations 0, all correct True, sim_digest aa" in text
        assert "failed operations 2, all correct True, sim_digest bb" in text


def test_parse_run_reads_the_last_line_and_the_provenance():
    provenance = {"host_arrivals_per_s": 9_876.5, "replays": 7,
                  "sim_digest": "abc", "seed": 1}
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"arrivals_per_s": {"value": 12.5, "unit": "1/s"},
                          "peak_rss_mb": {"value": 80.25, "unit": "MiB"}}}
    stdout = "\n".join([
        "perfbench full_stack: 7 untraced and 0 traced replays of 10 arrivals",
        "provenance: " + json.dumps(provenance),
        "  check PASS same_sim_digest_every_replay: 1 distinct digests",
        json.dumps(result),
    ])
    assert perf_pairs.parse_run(stdout) == perf_pairs.Run(
        metrics={"arrivals_per_s": 12.5, "peak_rss_mb": 80.25},
        host_arrivals_per_s=9_876.5, replays=7, sim_digest="abc",
        correct=True, failed=0)


def test_directions_follow_the_declared_benchmark():
    directions = perf_pairs.directions(ROOT / "BENCHMARK.json")
    assert directions["arrivals_per_s"] == "higher"
    assert directions["peak_rss_mb"] == "lower"
