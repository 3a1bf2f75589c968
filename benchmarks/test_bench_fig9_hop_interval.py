"""E1 — Figure 9, "Hop Interval" panel (paper §VII-A).

Six hop intervals from 25 to 150 slots, 25 connections each, injecting the
22-byte over-the-air Write Request that turns the lightbulb off.

Asserted shape (paper):
  * the attack succeeds for every tested connection;
  * the median number of attempts stays below 4;
  * reliability does not degrade at high intervals (the variance settles).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_CONNECTIONS, N_JOBS, publish
from repro.analysis.reporting import render_distribution_table
from repro.analysis.stats import box_stats
from repro.campaign import run_experiment
from repro.experiments.common import attempts_of, success_rate
from repro.experiments.hop_interval import HOP_INTERVALS


@pytest.mark.benchmark(group="fig9")
def test_fig9_hop_interval(benchmark, results_dir, trial_cache):
    results = benchmark.pedantic(
        lambda: run_experiment("hop", base_seed=1,
                               n_connections=N_CONNECTIONS,
                               jobs=N_JOBS, cache=trial_cache),
        rounds=1, iterations=1,
    )
    samples = {hop: attempts_of(results[hop]) for hop in HOP_INTERVALS}
    table = render_distribution_table(
        "Figure 9 / Experiment 1 — injection attempts vs Hop Interval",
        "hop interval", samples)
    publish(results_dir, "fig9_hop_interval", table)

    for hop in HOP_INTERVALS:
        assert success_rate(results[hop]) == 1.0, \
            f"hop {hop}: not every connection was injectable"
        stats = box_stats(samples[hop])
        assert stats.median < 4.0, f"hop {hop}: median {stats.median}"
    # Variance at the top of the range is no worse than at the bottom.
    assert box_stats(samples[150]).variance <= \
        box_stats(samples[25]).variance + 6.0
