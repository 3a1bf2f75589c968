"""Shared benchmark plumbing.

Each benchmark regenerates one of the paper's evaluation artefacts (a
Figure 9 panel, the §VI scenario table, or an ablation) and

* prints the rendered table (visible with ``pytest -s``),
* writes it under ``benchmarks/results/`` for EXPERIMENTS.md,
* asserts the qualitative *shape* the paper reports.

Environment knobs:

* ``REPRO_BENCH_CONNECTIONS`` — per-configuration sample size
  (paper-faithful default: 25);
* ``REPRO_BENCH_JOBS`` — worker processes per sweep (default 1 = serial;
  0 = all cores).  Results are identical at any job count.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Connections per configuration (paper: 25).
N_CONNECTIONS = int(os.environ.get("REPRO_BENCH_CONNECTIONS", "25"))

#: Worker processes per sweep (1 = serial, 0 = all cores).
N_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish(results_dir: Path, name: str, text: str) -> None:
    """Print a rendered result table and persist it."""
    print("\n" + text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
