"""ABL-1..3 — countermeasure ablations (paper §VIII / §IV).

* ABL-1: injection success rate vs window-widening reduction;
* ABL-2: injection against encrypted connections degrades to DoS;
* ABL-3: IDS detection of InjectaBLE vs the BTLEJack jamming baseline.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_CONNECTIONS, N_JOBS, publish
from repro.analysis.reporting import render_series
from repro.campaign import run_experiment
from repro.experiments.ablations import (
    WIDENING_SCALES,
    run_encryption_ablation,
    run_ids_ablation,
)
from repro.experiments.common import success_rate


@pytest.mark.benchmark(group="ablations")
def test_abl1_widening_reduction(benchmark, results_dir):
    n = max(6, N_CONNECTIONS // 2)
    results = benchmark.pedantic(
        lambda: run_experiment("widening", base_seed=5, n_connections=n,
                               jobs=N_JOBS),
        rounds=1, iterations=1,
    )
    rows = [(f"widening x{scale}",
             f"injection success rate = {success_rate(results[scale]):.2f}")
            for scale in WIDENING_SCALES]
    publish(results_dir, "abl1_widening",
            render_series("ABL-1 — widening-reduction mitigation (§VIII)",
                          rows))
    # Spec behaviour: reliably injectable; strong reduction: starved out.
    assert success_rate(results[1.0]) >= 0.9
    assert success_rate(results[0.1]) <= 0.2
    rates = [success_rate(results[scale]) for scale in WIDENING_SCALES]
    assert rates[0] >= rates[-1]


@pytest.mark.benchmark(group="ablations")
def test_abl2_encryption(benchmark, results_dir):
    n = max(6, N_CONNECTIONS // 2)
    results = benchmark.pedantic(
        lambda: run_encryption_ablation(base_seed=6, n_connections=n,
                                        jobs=N_JOBS),
        rounds=1, iterations=1,
    )
    injected = sum(r.injection_succeeded for r in results)
    dos = sum(r.dos_observed for r in results)
    rows = [
        ("connections attacked", str(len(results))),
        ("forged traffic accepted", str(injected)),
        ("denial of service (MIC teardown)", str(dos)),
    ]
    publish(results_dir, "abl2_encryption",
            render_series("ABL-2 — encrypted connections (§IV/§VIII): "
                          "integrity holds, availability does not", rows))
    assert injected == 0          # encryption blocks the injection outright
    assert dos >= len(results) // 2  # the residual impact is DoS


@pytest.mark.benchmark(group="ablations")
def test_abl3_ids_detection(benchmark, results_dir):
    results = benchmark.pedantic(
        lambda: run_ids_ablation(base_seed=7, n_runs=5, jobs=N_JOBS),
        rounds=1, iterations=1,
    )
    by_attack = {"injectable": [], "btlejack": []}
    for result in results:
        by_attack[result.attack].append(result)
    rows = []
    for attack, runs in by_attack.items():
        detected = sum(r.detected for r in runs)
        succeeded = sum(r.attack_succeeded for r in runs)
        frames = [r.attacker_frames for r in runs]
        rows.append((attack,
                     f"succeeded {succeeded}/{len(runs)}",
                     f"detected {detected}/{len(runs)}",
                     f"attacker frames {min(frames)}-{max(frames)}"))
    publish(results_dir, "abl3_ids",
            render_series("ABL-3 — IDS detection (§VIII) and the stealth "
                          "contrast with jamming", rows))
    inj = by_attack["injectable"]
    jam = by_attack["btlejack"]
    assert sum(r.detected for r in inj) >= len(inj) - 1
    assert sum(r.detected for r in jam) >= len(jam) - 1
    # The paper's stealth argument quantified: jamming needs an order of
    # magnitude more frames on air than the single-frame injection.
    assert max(r.attacker_frames for r in inj) * 2 <= \
        min(r.attacker_frames for r in jam)
