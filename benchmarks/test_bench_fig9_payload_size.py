"""E2 — Figure 9, "Payload size" panel (paper §VII-B).

PDU sizes 4/9/14/16 bytes at hop interval 75, 25 connections each; every
size maps to a frame with an observable effect on the target device.

Asserted shape (paper):
  * every connection is injectable at every size;
  * medians stay at or below ~3 attempts;
  * reliability increases as the payload shrinks.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_CONNECTIONS, N_JOBS, publish
from repro.analysis.reporting import render_distribution_table
from repro.analysis.stats import box_stats
from repro.campaign import run_experiment
from repro.experiments.common import attempts_of, success_rate
from repro.experiments.payload_size import PAYLOAD_SIZES


@pytest.mark.benchmark(group="fig9")
def test_fig9_payload_size(benchmark, results_dir):
    results = benchmark.pedantic(
        lambda: run_experiment("payload", base_seed=2,
                               n_connections=N_CONNECTIONS,
                               jobs=N_JOBS),
        rounds=1, iterations=1,
    )
    samples = {size: attempts_of(results[size]) for size in PAYLOAD_SIZES}
    table = render_distribution_table(
        "Figure 9 / Experiment 2 — injection attempts vs payload size",
        "PDU size (bytes)", samples)
    publish(results_dir, "fig9_payload_size", table)

    for size in PAYLOAD_SIZES:
        assert success_rate(results[size]) == 1.0, f"size {size} failed"
        assert box_stats(samples[size]).median <= 3.0
    # Mean attempts do not decrease when the payload grows.
    means = [box_stats(samples[size]).mean for size in PAYLOAD_SIZES]
    assert means[0] <= means[-1] + 0.5
