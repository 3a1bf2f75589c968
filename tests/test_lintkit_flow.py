"""Tests for repro.lintkit.flow — call graph, effects, cache, CLI.

Four layers:

* **Fixture trees** under ``tests/data/lintkit/flow/<checker>/``: each
  flow checker gets a ``bad/`` tree it must flag and a ``good/`` twin it
  must stay silent on.  ``blocking/`` re-enacts the PR 8 freeze (a
  coroutine joining worker processes directly) and its executor-hop fix.
* **Golden report**: the JSON rendering of ``blocking/bad`` is pinned so
  flow-finding shape, messages and the ``flow`` stats block cannot drift.
* **Call-graph units**: method dispatch, closures, re-exports and
  spawn/executor edge kinds on synthetic trees.
* **Cache + CLI**: ``flow_tree_token`` invalidation, warm-load via
  ``run_lint(flow_cache=...)``, and the ``--prune-baseline`` flag.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lintkit import (
    checker_index,
    load_baseline,
    run_lint,
    save_baseline,
)
from repro.lintkit.engine import load_project
from repro.lintkit.flow import attach_analysis, ensure_analysis
from repro.lintkit.flow.cache import (
    flow_tree_token,
    load_graph,
    store_graph,
)
from repro.lintkit.flow.graph import build_graph

FLOW_FIXTURES = Path(__file__).parent / "data" / "lintkit" / "flow"
GOLDEN_BLOCKING = FLOW_FIXTURES / "golden_blocking.json"

#: checker id -> (fixture dir, message fragments every bad/ tree yields).
FLOW_TREES = {
    "blocking-in-async": (
        "blocking",
        ["stalls the event loop", "process.join()"],
    ),
    "rng-flow": (
        "rng",
        ["RNG substream", "conditional on telemetry state"],
    ),
    "error-taxonomy": (
        "taxonomy",
        ["'KeyError' can escape entry point", "swallows 'ServiceError'"],
    ),
    "protocol-conformance": (
        "protocol",
        ["no handler", "never sends it"],
    ),
}


def _lint_tree(tree: Path, checker_id: str):
    return run_lint(tree, checkers=[checker_index()[checker_id]])


def _write_tree(root: Path, files) -> Path:
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return root


class TestFlowFixtureTrees:
    @pytest.mark.parametrize("checker_id", sorted(FLOW_TREES))
    def test_bad_tree_yields_expected_messages(self, checker_id):
        tree, fragments = FLOW_TREES[checker_id]
        report = _lint_tree(FLOW_FIXTURES / tree / "bad", checker_id)
        rendered = [f.message for f in report.findings]
        assert rendered, f"{checker_id} silent on flow/{tree}/bad"
        for fragment in fragments:
            assert any(fragment in msg for msg in rendered), \
                (fragment, rendered)

    @pytest.mark.parametrize("checker_id", sorted(FLOW_TREES))
    def test_good_twin_is_silent(self, checker_id):
        tree, _ = FLOW_TREES[checker_id]
        report = _lint_tree(FLOW_FIXTURES / tree / "good", checker_id)
        assert report.findings == [], \
            [f.render() for f in report.findings]


class TestPr8Reenactment:
    """The acceptance fixture: the blocking-join freeze that shipped in
    PR 8 (a coroutine calling ``process.join`` on the event loop) must
    be flagged, and the executor-hop rewrite must pass."""

    def test_direct_join_in_coroutine_is_flagged(self):
        report = _lint_tree(FLOW_FIXTURES / "blocking" / "bad",
                            "blocking-in-async")
        direct = [f for f in report.findings
                  if "process.join() inside async" in f.message]
        assert direct, [f.render() for f in report.findings]

    def test_join_behind_sync_helper_is_flagged(self):
        report = _lint_tree(FLOW_FIXTURES / "blocking" / "bad",
                            "blocking-in-async")
        via_helper = [f for f in report.findings
                      if "stop_fleet -> process.join()" in f.message]
        assert via_helper, [f.render() for f in report.findings]

    def test_executor_hop_rewrite_passes(self):
        report = _lint_tree(FLOW_FIXTURES / "blocking" / "good",
                            "blocking-in-async")
        assert report.findings == [], \
            [f.render() for f in report.findings]


class TestGoldenFlowReport:
    def test_blocking_bad_json_matches_golden(self):
        report = run_lint(FLOW_FIXTURES / "blocking" / "bad")
        golden = GOLDEN_BLOCKING.read_text()
        assert report.to_json() + "\n" == golden, (
            "flow lint report for flow/blocking/bad drifted from the "
            "golden copy; if the change is intentional regenerate with "
            "run_lint(tree).to_json()"
        )

    def test_golden_reports_flow_stats(self):
        doc = json.loads(GOLDEN_BLOCKING.read_text())
        assert doc["flow"]["source"] == "built"
        assert doc["flow"]["functions"] > 0
        assert doc["flow"]["edges"] > 0


class TestCallGraph:
    def test_method_dispatch_via_annotation(self, tmp_path):
        _write_tree(tmp_path, {
            "engine.py": '''\
                """Engine."""


                class Engine:
                    """E."""

                    def advance(self):
                        """A."""
                        return 1


                def drive(engine: Engine):
                    """D."""
                    return engine.advance()
            ''',
        })
        graph = build_graph(load_project(tmp_path))
        edges = {(e.caller, e.callee, e.kind) for e in graph.edges}
        assert ("engine.py:drive", "engine.py:Engine.advance",
                "call") in edges

    def test_self_attr_dispatch_from_init_param(self, tmp_path):
        _write_tree(tmp_path, {
            "wrap.py": '''\
                """Wrap."""


                class Inner:
                    """I."""

                    def work(self):
                        """W."""
                        return 1


                class Outer:
                    """O."""

                    def __init__(self, inner: Inner):
                        """C."""
                        self.inner = inner

                    def run(self):
                        """R."""
                        return self.inner.work()
            ''',
        })
        graph = build_graph(load_project(tmp_path))
        edges = {(e.caller, e.callee) for e in graph.edges}
        assert ("wrap.py:Outer.run", "wrap.py:Inner.work") in edges

    def test_closure_gets_ref_edge_from_parent(self, tmp_path):
        _write_tree(tmp_path, {
            "loop.py": '''\
                """Loop."""


                def outer():
                    """O."""

                    def inner():
                        return 1

                    return inner()
            ''',
        })
        graph = build_graph(load_project(tmp_path))
        inner_fid = "loop.py:outer.<locals>.inner"
        assert inner_fid in graph.functions
        kinds = {e.kind for e in graph.edges
                 if e.caller == "loop.py:outer" and e.callee == inner_fid}
        assert "ref" in kinds or "call" in kinds

    def test_reexport_through_package_init(self, tmp_path):
        _write_tree(tmp_path, {
            "pkg/__init__.py": '''\
                """Pkg."""
                from pkg.impl import helper
            ''',
            "pkg/impl.py": '''\
                """Impl."""
                import time


                def helper():
                    """H."""
                    time.sleep(1.0)
            ''',
            "app.py": '''\
                """App."""
                from pkg import helper


                async def main():
                    """M."""
                    helper()
            ''',
        })
        graph = build_graph(load_project(tmp_path))
        edges = {(e.caller, e.callee, e.kind) for e in graph.edges}
        assert ("app.py:main", "pkg/impl.py:helper", "call") in edges

    def test_spawn_and_executor_edge_kinds(self, tmp_path):
        _write_tree(tmp_path, {
            "svc.py": '''\
                """Svc."""
                import asyncio
                import multiprocessing


                def body(unit):
                    """B."""
                    unit.wait()


                async def launch(unit):
                    """L."""
                    loop = asyncio.get_running_loop()
                    process = multiprocessing.Process(target=body)
                    process.start()
                    await loop.run_in_executor(None, body, unit)
                    return process
            ''',
        })
        graph = build_graph(load_project(tmp_path))
        kinds = {e.kind for e in graph.edges
                 if e.caller == "svc.py:launch" and
                 e.callee == "svc.py:body"}
        assert kinds == {"spawn", "executor"}

    def test_effect_propagation_masks_executor_blocking(self, tmp_path):
        _write_tree(tmp_path, {
            "svc.py": '''\
                """Svc."""
                import asyncio
                import time


                def slow():
                    """S."""
                    time.sleep(1.0)


                async def hop(loop):
                    """H."""
                    await loop.run_in_executor(None, slow)


                async def direct():
                    """D."""
                    slow()
            ''',
        })
        analysis = ensure_analysis(load_project(tmp_path))
        blocking = analysis.effects.blocking
        assert "svc.py:slow" in blocking
        assert "svc.py:direct" in blocking
        assert "svc.py:hop" not in blocking


class TestFlowCache:
    def test_store_load_roundtrip(self, tmp_path):
        tree = _write_tree(tmp_path / "tree", {
            "mod.py": '"""M."""\n\n\ndef f():\n    """F."""\n    return 1\n',
        })
        graph = build_graph(load_project(tree))
        cache = tmp_path / "cache"
        token = flow_tree_token(tree)
        assert load_graph(cache, token) is None
        store_graph(cache, token, graph)
        loaded = load_graph(cache, token)
        assert loaded is not None
        assert loaded.to_dict() == graph.to_dict()

    def test_token_changes_when_source_changes(self, tmp_path):
        tree = _write_tree(tmp_path / "tree", {
            "mod.py": '"""M."""\n\n\ndef f():\n    """F."""\n    return 1\n',
        })
        before = flow_tree_token(tree)
        (tree / "mod.py").write_text(
            '"""M."""\n\n\ndef f():\n    """F."""\n    return 2\n')
        after = flow_tree_token(tree)
        assert before != after
        graph = build_graph(load_project(tree))
        cache = tmp_path / "cache"
        store_graph(cache, after, graph)
        # The pre-edit token must not resolve to the post-edit graph.
        assert load_graph(cache, before) is None

    @pytest.mark.parametrize(
        "rel",
        ["sim/medium.py", "lintkit/engine.py", "analysis/report.py", "cli.py"],
        ids=["sim", "lintkit", "analysis", "cli"],
    )
    def test_edit_to_any_py_file_changes_token(self, tmp_path, rel):
        """Lint, analysis and CLI sources are analysed, so they key too."""
        tree = _write_tree(tmp_path / "tree", {
            "sim/medium.py": "X = 1\n",
            "lintkit/engine.py": "Y = 2\n",
            "analysis/report.py": "Z = 3\n",
            "cli.py": "W = 4\n",
        })
        before = flow_tree_token(tree)
        (tree / rel).write_text("EDITED = 99\n")
        assert flow_tree_token(tree) != before

    def test_source_edit_invalidates_cached_graph(self, tmp_path):
        """End to end: a graph cached before an edit is never replayed."""
        tree = _write_tree(tmp_path / "tree", {
            "mod.py": '"""M."""\n\n\ndef f():\n    """F."""\n    return 1\n',
        })
        cache = tmp_path / "cache"
        assert run_lint(tree, flow_cache=cache).flow.source == "built"
        (tree / "mod.py").write_text(
            '"""M."""\n\n\ndef f():\n    """F."""\n    return 1\n\n\n'
            'def g():\n    """G."""\n    return f()\n')
        after = run_lint(tree, flow_cache=cache)
        assert after.flow is not None and after.flow.source == "built"
        assert after.flow.functions == 2

    def test_token_changes_when_a_file_is_added(self, tmp_path):
        tree = _write_tree(tmp_path / "tree", {"mod.py": "X = 1\n"})
        before = flow_tree_token(tree)
        (tree / "extra.py").write_text("")
        assert flow_tree_token(tree) != before

    def test_schema_version_is_significant(self, tmp_path, monkeypatch):
        import repro.lintkit.flow.cache as flow_cache

        tree = _write_tree(tmp_path / "tree", {"mod.py": "X = 1\n"})
        before = flow_tree_token(tree)
        monkeypatch.setattr(flow_cache, "FLOW_SCHEMA_VERSION",
                            flow_cache.FLOW_SCHEMA_VERSION + 1)
        assert flow_tree_token(tree) != before

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        tree = _write_tree(tmp_path / "tree", {
            "mod.py": '"""M."""\n\n\ndef f():\n    """F."""\n    return 1\n',
        })
        cache = tmp_path / "cache"
        token = flow_tree_token(tree)
        store_graph(cache, token, build_graph(load_project(tree)))
        (payload,) = list(cache.glob("graph-*.json"))
        payload.write_text("{not json")
        assert load_graph(cache, token) is None

    def test_run_lint_warm_load_reports_cache_source(self, tmp_path):
        tree = _write_tree(tmp_path / "tree", {
            "mod.py": '"""M."""\n\n\ndef f():\n    """F."""\n    return 1\n',
        })
        cache = tmp_path / "cache"
        cold = run_lint(tree, flow_cache=cache)
        warm = run_lint(tree, flow_cache=cache)
        assert cold.flow is not None and cold.flow.source == "built"
        assert warm.flow is not None and warm.flow.source == "cache"
        assert warm.flow.functions == cold.flow.functions
        assert warm.flow.edges == cold.flow.edges

    def test_attach_analysis_memoised_on_project(self, tmp_path):
        tree = _write_tree(tmp_path / "tree", {
            "mod.py": '"""M."""\n\n\ndef f():\n    """F."""\n    return 1\n',
        })
        project = load_project(tree)
        first = attach_analysis(project)
        second = attach_analysis(project)
        assert first is second


class TestNoFlowMode:
    def test_no_flow_skips_flow_checkers(self):
        tree = FLOW_FIXTURES / "blocking" / "bad"
        report = run_lint(tree, flow=False)
        assert report.flow is None
        assert not any(f.checker == "blocking-in-async"
                       for f in report.findings)

    def test_cli_no_flow_flag(self, capsys):
        tree = FLOW_FIXTURES / "blocking" / "bad"
        code = main(["lint", "--root", str(tree), "--no-flow",
                     "--baseline", str(tree / "absent.json")])
        assert code == 0
        assert "flow:" not in capsys.readouterr().out


class TestPruneBaseline:
    def _tree_with_finding(self, tmp_path):
        return _write_tree(tmp_path / "tree", {
            "ll/gap.py": (
                '"""Gap."""\n\n'
                "def deadline(end_us):\n"
                '    """D."""\n'
                "    return end_us + 150.0\n"
            ),
        })

    def test_prune_removes_stale_and_keeps_reasons(self, tmp_path, capsys):
        tree = self._tree_with_finding(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        report = run_lint(tree)
        save_baseline(baseline_path, report.findings,
                      reason="reviewed spec constant")
        doc = json.loads(baseline_path.read_text())
        doc["entries"]["deadbeefdeadbeef"] = {
            "checker": "magic-number", "path": "gone.py",
            "snippet": "fixed long ago", "reason": "stale",
        }
        baseline_path.write_text(json.dumps(doc))

        code = main(["lint", "--root", str(tree), "--no-flow-cache",
                     "--baseline", str(baseline_path), "--prune-baseline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 1 stale baseline" in out

        pruned = json.loads(baseline_path.read_text())
        assert "deadbeefdeadbeef" not in pruned["entries"]
        (entry,) = pruned["entries"].values()
        # Surviving entries keep their reviewed reason verbatim.
        assert entry["reason"] == "reviewed spec constant"
        assert pruned["version"] == 1

    def test_prune_without_stale_leaves_file_untouched(self, tmp_path,
                                                       capsys):
        tree = self._tree_with_finding(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        report = run_lint(tree)
        save_baseline(baseline_path, report.findings, reason="reviewed")
        before = baseline_path.read_text()
        code = main(["lint", "--root", str(tree), "--no-flow-cache",
                     "--baseline", str(baseline_path), "--prune-baseline"])
        capsys.readouterr()
        assert code == 0
        assert baseline_path.read_text() == before

    def test_prune_requires_a_baseline_file(self, tmp_path, monkeypatch,
                                            capsys):
        # Sever both conventional baseline fallbacks (cwd and the repo
        # root) so no baseline resolves at all.
        import repro.lintkit as lintkit

        tree = self._tree_with_finding(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(lintkit, "default_package_root",
                            lambda: tmp_path / "src" / "repro")
        code = main(["lint", "--root", str(tree), "--no-flow-cache",
                     "--prune-baseline"])
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    def test_prune_baseline_function_needs_backing_file(self):
        from repro.lintkit import Baseline, prune_baseline

        with pytest.raises(ValueError):
            prune_baseline(Baseline(entries={}), ["deadbeefdeadbeef"])

    def test_stale_entry_survives_without_prune_flag(self, tmp_path,
                                                     capsys):
        tree = self._tree_with_finding(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        report = run_lint(tree)
        save_baseline(baseline_path, report.findings, reason="reviewed")
        doc = json.loads(baseline_path.read_text())
        doc["entries"]["deadbeefdeadbeef"] = {
            "checker": "magic-number", "path": "gone.py",
            "snippet": "fixed long ago", "reason": "stale",
        }
        baseline_path.write_text(json.dumps(doc))
        code = main(["lint", "--root", str(tree), "--no-flow-cache",
                     "--baseline", str(baseline_path)])
        capsys.readouterr()
        assert code == 0
        survivor = load_baseline(baseline_path)
        assert "deadbeefdeadbeef" in survivor.entries
