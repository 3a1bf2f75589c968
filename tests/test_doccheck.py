"""Tests for the executable-docs checker (``repro doccheck``).

Extraction is tested against synthetic markdown; execution against a
fixture README whose commands are cheap (key cracking, one scenario) so the
self-test stays fast.  The real README/EXPERIMENTS files get a
structural extraction check here — actually *running* them is CI's
dedicated doccheck step.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.doccheck import (
    budget_argv,
    check_docs,
    default_doc_paths,
    extract_commands,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "README.md"
    path.write_text(text)
    return path


class TestExtraction:
    def test_bash_and_console_fences_are_scanned(self, tmp_path):
        path = _write(tmp_path, """
Intro prose.

```bash
repro experiment hop --connections 25
```

```console
$ repro metrics payload --jobs 2
output line, not a command
```

```python
repro = "not a command here"
```
""")
        commands = extract_commands(path)
        assert [list(c.argv) for c in commands] == [
            ["repro", "experiment", "hop", "--connections", "25"],
            ["repro", "metrics", "payload", "--jobs", "2"],
        ]

    def test_non_repro_lines_and_comments_are_skipped(self, tmp_path):
        path = _write(tmp_path, """
```bash
pip install -e .
# a comment
pytest -x
repro crack  # trailing comment is stripped
repro doccheck    # never recurses
repro lint --format json  # doccheck: skip
```
""")
        commands = extract_commands(path)
        assert [list(c.argv) for c in commands] == [
            ["repro", "crack"],
        ]

    def test_env_assignments_and_python_dash_m(self, tmp_path):
        path = _write(tmp_path, """
```bash
REPRO_JOBS=4 repro experiment distance
python -m repro crack
```
""")
        first, second = extract_commands(path)
        assert first.env == (("REPRO_JOBS", "4"),)
        assert list(first.argv) == ["repro", "experiment", "distance"]
        assert list(second.argv) == ["repro", "crack"]

    def test_backslash_continuations_are_joined(self, tmp_path):
        path = _write(tmp_path, """
```bash
repro campaign run spec.json \\
    --journal out.jsonl \\
    --jobs 2
```
""")
        (command,) = extract_commands(path)
        assert list(command.argv) == [
            "repro", "campaign", "run", "spec.json",
            "--journal", "out.jsonl", "--jobs", "2"]

    def test_commands_share_block_index_within_a_fence(self, tmp_path):
        path = _write(tmp_path, """
```bash
repro crack
repro scenario b
```

```bash
repro crack
```
""")
        a, b, c = extract_commands(path)
        assert a.block == b.block
        assert c.block != a.block


class TestBudget:
    def test_sweeps_are_cut_to_two_connections(self):
        assert budget_argv(
            ["repro", "experiment", "hop", "--connections", "25"]) == \
            ["repro", "experiment", "hop", "--connections", "2"]
        assert budget_argv(["repro", "metrics", "payload"]) == \
            ["repro", "metrics", "payload", "--connections", "2"]

    def test_capture_duration_is_cut(self):
        assert budget_argv(
            ["repro", "capture", "--duration", "30"]) == \
            ["repro", "capture", "--duration", "1"]

    def test_campaign_and_cheap_commands_run_unmodified(self):
        for argv in (["repro", "campaign", "run", "spec.json"],
                     ["repro", "crack"],
                     ["repro", "lint"]):
            assert budget_argv(argv) == argv

    def test_flag_value_form_is_replaced(self):
        assert budget_argv(
            ["repro", "experiment", "hop", "--connections=50"]) == \
            ["repro", "experiment", "hop", "--connections", "2"]


class TestExecution:
    def test_good_fixture_passes(self, tmp_path, capsys):
        path = _write(tmp_path, """
```bash
repro crack
repro scenario b
```
""")
        report = check_docs(paths=[path], root=REPO_ROOT)
        assert report.ok
        assert len(report.results) == 2
        assert "0 failure(s)" in report.render_text()

    def test_flag_drift_is_detected(self, tmp_path):
        path = _write(tmp_path, """
```bash
repro crack --no-such-flag
```
""")
        report = check_docs(paths=[path], root=REPO_ROOT)
        assert not report.ok
        (failure,) = report.failures
        assert failure.exit_code == 2
        assert "flag drift" in failure.detail
        doc = json.loads(report.to_json())
        assert doc["ok"] is False
        assert doc["results"][0]["status"] == "failed"

    def test_removed_subcommand_is_detected(self, tmp_path):
        path = _write(tmp_path, """
```bash
repro teleport --to mars
```
""")
        report = check_docs(paths=[path], root=REPO_ROOT)
        assert not report.ok

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = _write(tmp_path, "```bash\nrepro crack\n```\n")
        assert main(["doccheck", str(good),
                     "--root", str(REPO_ROOT)]) == 0
        capsys.readouterr()
        bad = tmp_path / "BAD.md"
        bad.write_text("```bash\nrepro crack --bogus\n```\n")
        assert main(["doccheck", str(bad),
                     "--root", str(REPO_ROOT)]) == 1
        out = capsys.readouterr().out
        assert "failure" in out

    def test_json_format(self, tmp_path, capsys):
        good = _write(tmp_path, "```bash\nrepro crack\n```\n")
        assert main(["doccheck", str(good), "--root", str(REPO_ROOT),
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True


class TestRealDocs:
    """Structural checks on the real docs (execution happens in CI)."""

    def test_default_paths_exist(self):
        paths = default_doc_paths(REPO_ROOT)
        assert [p.name for p in paths] == [
            "README.md", "EXPERIMENTS.md", "ARCHITECTURE.md", "DEFENSE.md"]
        assert all(p.exists() for p in paths)

    def test_docs_dir_is_scanned_sorted(self, tmp_path):
        (tmp_path / "README.md").write_text("hi\n")
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "ZEBRA.md").write_text("z\n")
        (docs / "ALPHA.md").write_text("a\n")
        (docs / "notes.txt").write_text("not markdown\n")
        paths = default_doc_paths(tmp_path)
        assert [p.name for p in paths] == [
            "README.md", "ALPHA.md", "ZEBRA.md"]

    def test_defense_handbook_examples_are_extracted(self):
        commands = extract_commands(REPO_ROOT / "docs" / "DEFENSE.md")
        assert any(c.argv[1:3] == ("experiment", "defense")
                   for c in commands)

    def test_readme_examples_are_extracted(self):
        commands = extract_commands(REPO_ROOT / "README.md")
        assert len(commands) >= 10
        assert all(c.argv[0] == "repro" for c in commands)
        subcommands = {c.argv[1] for c in commands}
        # Every documented surface keeps at least one executable example.
        assert {"experiment", "scenario", "campaign", "crack",
                "lint"} <= subcommands

    def test_campaign_chapter_examples_are_extracted(self):
        commands = extract_commands(REPO_ROOT / "EXPERIMENTS.md")
        actions = {c.argv[2] for c in commands
                   if c.argv[1] == "campaign" and len(c.argv) > 2}
        assert {"run", "status", "report"} <= actions
