"""E3 — Figure 9, "Distance" panel (paper §VII-C).

Lightbulb and smartphone (hop interval 36) 2 m apart; attacker at the six
positions A-F of paper Fig. 8 (1 to 10 m from the Peripheral), 25
connections per position.

Asserted shape (paper):
  * every position yields a successful injection for every connection —
    including 10 m away while the legitimate Master sits at 2 m;
  * attempt variance grows with distance.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_CONNECTIONS, N_JOBS, publish
from repro.analysis.reporting import render_distribution_table
from repro.analysis.stats import box_stats
from repro.campaign import run_experiment
from repro.experiments.common import attempts_of, success_rate
from repro.experiments.distance import DISTANCE_POSITIONS


@pytest.mark.benchmark(group="fig9")
def test_fig9_distance(benchmark, results_dir, trial_cache):
    results = benchmark.pedantic(
        lambda: run_experiment("distance", base_seed=3,
                               n_connections=N_CONNECTIONS,
                               jobs=N_JOBS, cache=trial_cache),
        rounds=1, iterations=1,
    )
    samples = {label: attempts_of(results[label])
               for label in DISTANCE_POSITIONS}
    table = render_distribution_table(
        "Figure 9 / Experiment 3 — injection attempts vs attacker distance",
        "position", samples)
    publish(results_dir, "fig9_distance", table)

    for label in DISTANCE_POSITIONS:
        assert success_rate(results[label]) == 1.0, f"{label} failed"
    near = box_stats(samples["A (1 m)"])
    far = box_stats(samples["F (10 m)"])
    assert far.variance > near.variance
    assert far.mean >= near.mean
