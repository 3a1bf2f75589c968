"""Tests for the repro.lintkit static-analysis pass.

Three layers:

* **Fixture trees** under ``tests/data/lintkit``: ``bad/`` holds one
  deliberate violation per checker (plus an inline-waived one and a
  waiver that waives nothing), ``good/``
  holds the compliant twin of every bad snippet.  Each checker must fire
  on its bad fixture and stay silent on the whole good tree.
* **Golden report**: the JSON rendering of the bad tree is pinned byte
  for byte, so report shape and messages cannot drift silently.
* **Meta-test**: the live ``repro`` package has zero findings, and its
  few ``# lint-ok:`` waivers are all sound — the same gate CI enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lintkit import (
    ALL_CHECKERS,
    checker_index,
    default_package_root,
    run_lint,
)
from repro.lintkit.engine import load_project
from repro.lintkit.findings import WAIVER_ID, parse_waivers

FIXTURES = Path(__file__).parent / "data" / "lintkit"
BAD_TREE = FIXTURES / "bad"
GOOD_TREE = FIXTURES / "good"
GOLDEN_REPORT = FIXTURES / "golden_report.json"

#: checker id -> (fixture path fragment, message fragment) expected in bad/.
EXPECTED_BAD = {
    "nondeterministic-call": ("core/clockleak.py", "nondeterministic"),
    "set-iteration": ("sim/hot.py", "iteration over a set"),
    "float-time-eq": ("sim/hot.py", "==/!="),
    "magic-number": ("ll/spacing.py", "T_IFS_US"),
    "missing-slots": ("sim/events.py", "__slots__"),
    "telemetry-guard": ("sim/hot.py", "guard"),
    "result-capture": ("experiments/results.py", "Simulator"),
    "missing-docstring": ("analysis/undocumented.py", "docstring"),
    "unused-import": ("core/deadimports.py", "'math' is imported but never used"),
    "blocking-in-async": ("campaign/service/async_path.py", "stalls the event loop"),
    "rng-flow": ("telemetry/reporters.py", "RNG substream"),
    "error-taxonomy": ("campaign/service/worker.py", "ValueError"),
    "protocol-conformance": ("campaign/service/coordinator.py", "no handler"),
}


class TestFixtureTrees:
    def test_every_checker_fires_on_bad_tree(self):
        report = run_lint(BAD_TREE)
        fired = {f.checker for f in report.findings}
        assert fired == set(c.id for c in ALL_CHECKERS) | {WAIVER_ID}

    @pytest.mark.parametrize("checker_id", sorted(EXPECTED_BAD))
    def test_bad_fixture_flags_expected_site(self, checker_id):
        path_frag, msg_frag = EXPECTED_BAD[checker_id]
        report = run_lint(BAD_TREE)
        hits = [f for f in report.findings if f.checker == checker_id]
        assert hits, f"{checker_id} produced no findings on bad/"
        assert any(path_frag in f.path and msg_frag in f.message
                   for f in hits), [f.render() for f in hits]

    @pytest.mark.parametrize("checker_id", sorted(EXPECTED_BAD))
    def test_good_tree_is_silent(self, checker_id):
        report = run_lint(GOOD_TREE, checkers=[checker_index()[checker_id]])
        assert report.findings == [], [f.render() for f in report.findings]
        assert report.ok

    def test_inline_waiver_suppresses_exactly_one(self, tmp_path):
        report = run_lint(BAD_TREE)
        assert len(report.suppressed) == 1
        (waived,) = report.suppressed
        assert waived.checker == "telemetry-guard"
        assert waived.path == "sim/hot.py"

        # The id list ends at the first word that is no checker id.
        known = checker_index()
        (waiver,) = parse_waivers(
            "x = f(  # lint-ok: blocking-in-async bounded\n)\n",
            known).values()
        assert (waiver.ids, waiver.reason) == (("blocking-in-async",),
                                               "bounded")
        # A string that quotes the syntax is no waiver.
        assert parse_waivers('"""# lint-ok: magic-number q"""\n',
                             known) == {}

        # Each unsound waiver is itself a finding; magic-number fires on
        # 150.0 and not on 1.0.
        cases = {
            "no-reason": ("end_us + 150.0  # lint-ok: magic-number",
                          ["waiver"], "gives no reason"),
            "unknown-id": ("end_us + 150.0  # lint-ok: magic-numbers typo",
                           ["magic-number", "waiver"],
                           "no registered checker (got 'magic-numbers')"),
            "unused": ("end_us + 1.0  # lint-ok: magic-number spec gap",
                       ["waiver"], "waives no finding"),
        }
        for case, (expr, checkers, message) in cases.items():
            target = tmp_path / case / "ll" / "gap.py"
            target.parent.mkdir(parents=True)
            target.write_text(f"def deadline(end_us):\n    return {expr}\n")
            report = run_lint(tmp_path / case,
                              checkers=[known["magic-number"]])
            assert [f.checker for f in report.findings] == checkers, case
            assert message in report.findings[-1].message, case

    def test_findings_are_sorted_and_fingerprinted(self):
        """Sorted, and no finding is reported twice."""
        report = run_lint(BAD_TREE)
        keys = [f.sort_key() for f in report.findings]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestGoldenReport:
    def test_bad_tree_json_matches_golden(self):
        report = run_lint(BAD_TREE)
        golden = GOLDEN_REPORT.read_text()
        assert report.to_json() + "\n" == golden, (
            "lint report for tests/data/lintkit/bad drifted from the "
            "golden copy; if the change is intentional regenerate with "
            "run_lint(BAD_TREE).to_json()"
        )

    def test_golden_report_shape(self):
        doc = json.loads(GOLDEN_REPORT.read_text())
        assert doc["version"] == 2
        assert doc["ok"] is False
        assert doc["counts"]["findings"] == len(doc["findings"])
        assert doc["counts"]["suppressed"] == 1
        for entry in doc["findings"]:
            assert set(entry) == {"checker", "path", "line", "col",
                                  "message", "snippet"}
            # Relative POSIX paths only: golden file is machine-portable.
            assert not entry["path"].startswith("/")


class TestLiveTree:
    def test_repo_has_no_findings_beyond_baseline(self):
        """The gate CI enforces: zero findings on src/repro (unsound
        waivers included)."""
        report = run_lint()
        assert report.ok, "\n" + "\n".join(
            f.render() for f in report.findings)

    def test_repo_baseline_is_small_and_documented(self):
        """Waivers stay few, and each names a checker and a reason."""
        known = checker_index()
        waivers = [
            waiver for module in load_project(default_package_root()).modules
            for waiver in parse_waivers(module.text, known).values()]
        assert len(waivers) <= 10, (
            "waivers are for genuinely cold paths; fix new findings "
            "instead of waiving them")
        for waiver in waivers:
            assert waiver.ids and waiver.reason, waiver


class TestCli:
    def test_lint_cli_passes_on_repo(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_cli_fails_on_bad_tree(self, capsys):
        code = main(["lint", "--root", str(BAD_TREE)])
        assert code == 1
        out = capsys.readouterr().out
        assert "[telemetry-guard]" in out

    def test_lint_cli_json_format(self, capsys):
        code = main(["lint", "--format", "json", "--root", str(GOOD_TREE)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["counts"]["findings"] == 0


class TestInlineEpsilonRule:
    """float-time-eq's second clause: no ad-hoc epsilon literals in time
    comparisons — the canonical ``sim.events.TIME_EPS_US`` must be used."""

    CHECKER = "float-time-eq"

    def _lint(self, tmp_path, source: str, rel="sim/hot.py"):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return run_lint(tmp_path, checkers=[checker_index()[self.CHECKER]])

    def test_inline_epsilon_literal_flagged(self, tmp_path):
        report = self._lint(tmp_path, (
            '"""Doc."""\n'
            "def late(start_us, now):\n"
            '    """Doc."""\n'
            "    return now > start_us + 1e-9\n"
        ))
        assert any("TIME_EPS_US" in f.message for f in report.findings), \
            [f.render() for f in report.findings]

    def test_canonical_constant_is_silent(self, tmp_path):
        report = self._lint(tmp_path, (
            '"""Doc."""\n'
            "from repro.sim.events import TIME_EPS_US\n"
            "def late(start_us, now):\n"
            '    """Doc."""\n'
            "    return now > start_us + TIME_EPS_US\n"
        ))
        assert report.findings == [], [f.render() for f in report.findings]

    def test_genuine_offsets_are_silent(self, tmp_path):
        # Real protocol offsets (>= 0.5 us) are not tolerances.
        report = self._lint(tmp_path, (
            '"""Doc."""\n'
            "def due(start_us, now):\n"
            '    """Doc."""\n'
            "    return now > start_us + 150.0\n"
        ))
        assert report.findings == [], [f.render() for f in report.findings]

    def test_defining_module_is_exempt(self, tmp_path):
        report = self._lint(tmp_path, (
            '"""Doc."""\n'
            "def late(start_us, now):\n"
            '    """Doc."""\n'
            "    return now > start_us + 1e-9\n"
        ), rel="sim/events.py")
        assert report.findings == [], [f.render() for f in report.findings]
