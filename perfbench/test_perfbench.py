"""The benchmark's own checks.  Run from the repository root with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, env: Optional[Dict[str, str]] = None,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=600)


def parse(proc: subprocess.CompletedProcess
          ) -> Tuple[Dict[str, Any], str, Dict[str, Any]]:
    """(result line, digest, stamp) of a successful run."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines
                  if line.startswith("digest "))
    stamp = json.loads(next(line[len("stamp "):] for line in lines
                            if line.startswith("stamp ")))
    return json.loads(lines[-1]), digest, stamp


def test_fast_engine_matches_reference_on_a_panel3_sample():
    from repro.experiments.common import run_trial_world

    first_round = [trial for _, trial in workloads.panel3_rounds(1)[0]]
    # The first trial of each sweep: hop interval, payload, distance, wall.
    for trial in (first_round[0], first_round[6], first_round[10],
                  first_round[16]):
        fast, _ = run_trial_world(trial, engine="fast")
        reference, _ = run_trial_world(trial, engine="reference")
        assert fast == reference


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_digest_matches_untraced(workload):
    seed = ("--seed", str(run.DEFAULT_SEED))
    traced = [parse(bench("--workload", workload, *seed, "--seconds", "1",
                          "--trace", "1")) for _ in range(2)]
    untraced = parse(bench("--workload", workload, *seed, "--seconds", "1",
                           "--trace", "0"))
    (first, first_digest, _), (second, second_digest, _) = traced
    for name in run.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and second["correct"] and untraced[0]["correct"]
    assert first_digest == second_digest == untraced[1]


def test_environment_is_ignored_and_bench_files_untouched():
    before = {path: path.read_bytes() for path in ROOT.glob("BENCH_*.json")}
    env = dict(os.environ, REPRO_ENGINE="reference", REPRO_JOBS="4",
               REPRO_BENCH_CONNECTIONS="2")
    result, _, stamp = parse(bench("--workload", "panel3", "--seconds", "1",
                                   env=env))
    assert stamp["engine"] == "fast"
    assert result["correct"]
    after = {path: path.read_bytes() for path in ROOT.glob("BENCH_*.json")}
    assert after == before


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "panel3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
