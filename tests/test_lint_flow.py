"""Whole-program (interprocedural) lint: rules, fixtures, CLI surface.

The acceptance gate for the flow layer lives here: a scheduled
callback that reaches wall-clock time only through a two-hop helper
chain must pass every per-file rule (TAU001–TAU018) and still be
flagged by ``--flow`` with the full call chain printed.
"""

import json
import os

import pytest

from taureau.lint.cli import main as lint_main
from taureau.lint.config import LintConfig, UnknownRuleError
from taureau.lint.engine import LintEngine
from taureau.lint.flow import FlowAnalysis, all_flow_rules, flow_rule_index
from taureau.lint.rules import all_rules

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join("tests", "fixtures", "flow")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def flow_findings(name: str):
    return FlowAnalysis().run([fixture_path(name)]).findings


def remapped_sources(name: str, prefix: str = "pkg") -> dict:
    """The on-disk fixture with paths moved out from under ``tests/``.

    TAU105 deliberately never fires under ``tests/`` (capturing a list
    is the test-observation idiom), so the capture fixtures are
    analyzed under a neutral path prefix.
    """
    root = os.path.join(REPO_ROOT, FIXTURES, name)
    sources = {}
    for filename in sorted(os.listdir(root)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(root, filename), encoding="utf-8") as handle:
            sources[f"{prefix}/{name}/{filename}"] = handle.read()
    return sources


# ----------------------------------------------------------------------
# The acceptance gate
# ----------------------------------------------------------------------

class TestAcceptanceGate:
    def test_two_hop_clock_chain_passes_every_per_file_rule(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        report = LintEngine(all_rules()).run([fixture_path("bad_clock")])
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], (
            f"per-file rules must miss the alias chain:\n{rendered}"
        )

    def test_two_hop_clock_chain_is_flagged_with_full_chain(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        findings = flow_findings("bad_clock")
        assert [f.rule for f in findings] == ["TAU101"]
        finding = findings[0]
        assert finding.path.endswith("bad_clock/app.py")
        # The complete chain, hop by hop, down to the source symbol.
        for hop in ("tick", "helpers.mark", "util.stamp", "time.time"):
            assert hop in finding.message, finding.message

    def test_good_mirror_is_clean_everywhere(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert LintEngine(all_rules()).run(
            [fixture_path("good_clock")]
        ).findings == []
        assert flow_findings("good_clock") == []


# ----------------------------------------------------------------------
# Per-rule fixture packages
# ----------------------------------------------------------------------

BAD_EXPECTATIONS = [
    ("bad_clock", "TAU101"),
    ("bad_rng", "TAU102"),
    ("bad_env", "TAU103"),
    ("bad_set_order", "TAU104"),
    ("bad_daemon", "TAU106"),
]


class TestFixturePackages:
    @pytest.mark.parametrize("name,code", BAD_EXPECTATIONS)
    def test_bad_fixture_flags(self, monkeypatch, name, code):
        monkeypatch.chdir(REPO_ROOT)
        rules = {f.rule for f in flow_findings(name)}
        assert rules == {code}

    @pytest.mark.parametrize("name,code", BAD_EXPECTATIONS)
    def test_bad_fixture_passes_per_file_rules(self, monkeypatch, name, code):
        monkeypatch.chdir(REPO_ROOT)
        report = LintEngine(all_rules()).run([fixture_path(name)])
        assert report.findings == []

    @pytest.mark.parametrize(
        "name",
        ["good_clock", "good_rng", "good_env", "good_set_order", "good_daemon"],
    )
    def test_good_fixture_clean(self, monkeypatch, name):
        monkeypatch.chdir(REPO_ROOT)
        assert flow_findings(name) == []

    def test_bad_capture_flags_outside_tests(self):
        result = FlowAnalysis().run_sources(remapped_sources("bad_capture"))
        assert [f.rule for f in result.findings] == ["TAU105"]
        assert "CACHE" in result.findings[0].message

    def test_bad_capture_excluded_under_tests_prefix(self):
        sources = remapped_sources("bad_capture", prefix="tests/x")
        result = FlowAnalysis().run_sources(sources)
        assert result.findings == []

    def test_good_capture_clean(self):
        result = FlowAnalysis().run_sources(remapped_sources("good_capture"))
        assert result.findings == []

    def test_bad_daemon_flags_both_tick_shapes(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        findings = flow_findings("bad_daemon")
        messages = " / ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "while True" in messages
        assert "schedule_after" in messages

    def test_every_tick_is_a_scheduled_entry_point(self):
        sources = {
            "pkg/util.py": "import time\n\n\ndef stamp():\n    return time.time()\n",
            "pkg/loop.py": (
                "from pkg import util\n"
                "\n"
                "\n"
                "class Loop:\n"
                "    def __init__(self, sim):\n"
                "        sim.every(1.0, self.tick)\n"
                "\n"
                "    def tick(self):\n"
                "        util.stamp()\n"
            ),
        }
        findings = FlowAnalysis().run_sources(sources).findings
        assert [(f.rule, f.path) for f in findings] == [("TAU101", "pkg/loop.py")]
        assert "time.time" in findings[0].message


# ----------------------------------------------------------------------
# Source suppressions carry over to the flow pass
# ----------------------------------------------------------------------

class TestSuppressionCarryOver:
    def test_per_file_suppression_clears_the_flow_source(self):
        sources = {
            "pkg/util.py": (
                "import time\n"
                "\n"
                "\n"
                "def stamp():\n"
                "    return time.time()  # taurlint: disable=TAU001\n"
            ),
            "pkg/app.py": (
                "from pkg import util\n"
                "\n"
                "\n"
                "def tick(sim):\n"
                "    util.stamp()\n"
                "\n"
                "\n"
                "def build(sim):\n"
                "    sim.schedule_after(1.0, tick)\n"
            ),
        }
        assert FlowAnalysis().run_sources(sources).findings == []

    def test_flow_code_suppresses_at_the_call_site(self):
        sources = {
            "pkg/util.py": "import time\n\n\ndef stamp():\n    return time.time()\n",
            "pkg/app.py": (
                "from pkg import util\n"
                "\n"
                "\n"
                "def tick(sim):\n"
                "    util.stamp()  # taurlint: disable=TAU101\n"
                "\n"
                "\n"
                "def build(sim):\n"
                "    sim.schedule_after(1.0, tick)\n"
            ),
        }
        assert FlowAnalysis().run_sources(sources).findings == []

    def test_config_per_path_scoping_applies(self):
        sources = {
            "quarantine/util.py": (
                "import time\n\n\ndef stamp():\n    return time.time()\n"
            ),
            "quarantine/app.py": (
                "from quarantine import util\n"
                "\n"
                "\n"
                "def tick(sim):\n"
                "    util.stamp()\n"
                "\n"
                "\n"
                "def build(sim):\n"
                "    sim.schedule_after(1.0, tick)\n"
            ),
        }
        config = LintConfig(per_path={"quarantine/": ["TAU101"]})
        result = FlowAnalysis(config=config).run_sources(sources)
        assert result.findings == []
        # Without the scoping the same tree flags.
        assert FlowAnalysis().run_sources(sources).findings != []


# ----------------------------------------------------------------------
# Unknown-code validation (engine + config)
# ----------------------------------------------------------------------

class TestUnknownRuleValidation:
    def known(self):
        return {r.code for r in all_rules()} | {
            r.code for r in all_flow_rules()
        }

    def test_unknown_code_in_disable_comment_raises(self):
        engine = LintEngine(all_rules(), known_codes=self.known())
        # The code is spliced in so this test file's own source does not
        # carry a TAU999 suppression comment (the repo sweep validates it).
        source = f"x = 1  # taurlint: disable={'TAU999'}\n"
        with pytest.raises(UnknownRuleError, match="TAU999"):
            engine.lint_source(source)

    def test_flow_codes_are_valid_in_disable_comments(self):
        engine = LintEngine(all_rules(), known_codes=self.known())
        report = engine.lint_source("x = 1  # taurlint: disable=TAU101\n")
        assert report.findings == []

    def test_unknown_code_in_per_path_config_raises(self):
        config = LintConfig(per_path={"src/": ["TAU998"]})
        with pytest.raises(UnknownRuleError, match="TAU998"):
            config.validate(self.known())

    def test_cli_rejects_unknown_suppression(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(f"x = 1  # taurlint: disable={'TAU999'}\n")
        monkeypatch.chdir(tmp_path)
        code = lint_main([str(bad), "--no-config"])
        assert code == 2
        assert "TAU999" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CLI surface: --list-rules, --explain, --flow JSON golden
# ----------------------------------------------------------------------

class TestCliSurface:
    def test_list_rules_includes_flow_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for info in all_flow_rules():
            assert info.code in out
            assert info.name in out
        assert "[--flow]" in out

    def test_explain_flow_rule(self, capsys):
        assert lint_main(["--explain", "TAU101"]) == 0
        out = capsys.readouterr().out
        assert "flow-wall-clock" in out
        assert flow_rule_index()["TAU101"].explain.split(".")[0] in out

    def test_explain_per_file_rule(self, capsys):
        assert lint_main(["--explain", "TAU001"]) == 0
        assert "wall-clock-read" in capsys.readouterr().out

    def test_explain_unknown_rule(self, capsys):
        assert lint_main(["--explain", "TAU999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_flow_cli_json_matches_golden(self, monkeypatch, capsys):
        """The machine-readable schema is pinned byte-for-byte."""
        monkeypatch.chdir(REPO_ROOT)
        code = lint_main(
            [
                fixture_path("bad_clock"),
                "--flow",
                "--flow-cache",
                "-",
                "--no-config",
                "--format",
                "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        golden_path = os.path.join(
            REPO_ROOT, "tests", "fixtures", "flow", "golden_cli.json"
        )
        with open(golden_path, encoding="utf-8") as handle:
            golden = handle.read()
        assert out == golden
        # And the pinned document still parses with the v1 schema keys.
        document = json.loads(out)
        assert document["version"] == 1
        assert {"rule", "name", "path", "line", "col", "message", "fingerprint"} \
            == set(document["findings"][0])
