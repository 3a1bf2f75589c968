"""Speed floors: each fast path must stay well ahead of its reference.

Each test times a fast path against the path it replaced, on a small
fixed workload, and asserts a floor far below the measured ratio
(EXPERIMENTS.md, "Performance history").  A floor catches a fast path
that silently stopped being fast; the speed of record is ``perfbench/``.
Timings take the best of alternated repetitions, so one slow spell on a
shared host does not fail a floor.  The parallel floors skip on hosts
with fewer than four cores.  That each pair computes the same thing is
checked elsewhere (``test_engine_differential.py``, ``test_runner.py``,
``test_sim_medium.py``, ``test_campaign_service.py``).
"""

from __future__ import annotations

import dataclasses
import os
import time
from functools import partial

import pytest

from repro.campaign import (
    CampaignSpec,
    ExperimentDef,
    register_experiment,
    register_trial_runner,
    run_campaign,
)
from repro.campaign.service import serve_campaign
from repro.crypto import aes
from repro.experiments.common import (
    TRIAL_DEADLINE_US,
    InjectionTrial,
    TrialResult,
    run_trial_world,
)
from repro.experiments.dense import DenseTrial, run_dense_trial_world
from repro.ll import csa2
from repro.phy import crc, whitening
from repro.runner import execute_trials, merge_trial_metrics
from repro.sim import fastforward

from tests.test_engine_differential import _world_metrics, fast_forwarded
from tests.test_sim_medium import PAIRED_WORLD_US, paired_world

needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="parallel floors need >= 4 cores")

#: The fixed 8-world injection workload of the engine and telemetry floors.
PANEL_SEEDS = tuple(range(9_000, 9_008))


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_ratio(slow, fast, rounds: int) -> float:
    """Best slow time over best fast time, the two run alternately."""
    slow_s, fast_s = [], []
    for _ in range(rounds):
        slow_s.append(_seconds(slow))
        fast_s.append(_seconds(fast))
    return min(slow_s) / max(min(fast_s), 1e-9)


def _injection_trials(seeds, **kwargs) -> list:
    """One world per seed at the paper's E2 hop interval."""
    return [InjectionTrial(seed=seed, hop_interval=75, **kwargs)
            for seed in seeds]


def test_fast_engine_5x_on_continued_worlds():
    """A trial ends a few seconds after its injection report, which
    leaves the engine little quiet time; each world is therefore run on
    to ``TRIAL_DEADLINE_US`` and the long quiet connection is timed."""
    trials = _injection_trials(PANEL_SEEDS)
    results: dict = {}

    fast_forwarded_events: list = []

    def continued(engine):
        results[engine] = []
        for trial in trials:
            result, sim = run_trial_world(trial, engine=engine)
            sim.run(until_us=TRIAL_DEADLINE_US)
            results[engine].append(result)
            fast_forwarded_events.append(fast_forwarded(sim))

    speedup = _best_ratio(partial(continued, fastforward.ENGINE_REFERENCE),
                          partial(continued, fastforward.ENGINE_FAST),
                          rounds=1)
    fast = results[fastforward.ENGINE_FAST]
    assert sum(fast_forwarded_events) > 0
    assert all(result.success for result in fast)
    assert fast == results[fastforward.ENGINE_REFERENCE]
    assert speedup >= 5.0, f"fast engine only {speedup:.2f}x the reference"


#: The dense benchmark's busy level: ten background pairs and two Wi-Fi
#: tracks in the apartment layout, with the victim link and its attacker.
#: Metrics on, so the continued stretch is compared too.
BUSY_DENSE_TRIAL = DenseTrial(seed=7, connections=10, wifi_interferers=2,
                              collect_metrics=True)

#: Simulated time the busy world runs on after its trial ends.
DENSE_CONTINUE_US = 4_000_000.0


def test_fast_engine_2x_on_a_continued_busy_dense_world():
    """The multi-link path: every background link and Wi-Fi track runs
    through one block kernel.  The world runs on after its trial, so the
    quiet background stretch is timed as well as the attack."""
    results: dict = {}

    fast_forwarded_events: list = []

    def continued(engine):
        result, sim = run_dense_trial_world(BUSY_DENSE_TRIAL, engine=engine)
        sim.run(until_us=sim.now + DENSE_CONTINUE_US)
        fast_forwarded_events.append(fast_forwarded(sim))
        # The world's metrics, not the fast engine's own ff.* counters.
        results[engine] = (
            dataclasses.replace(result, metrics=None),
            _world_metrics(sim.metrics.snapshot()))

    speedup = _best_ratio(partial(continued, fastforward.ENGINE_REFERENCE),
                          partial(continued, fastforward.ENGINE_FAST),
                          rounds=3)
    assert sum(fast_forwarded_events) > 0
    assert results[fastforward.ENGINE_FAST] \
        == results[fastforward.ENGINE_REFERENCE]
    assert speedup >= 2.0, (
        f"fast engine only {speedup:.2f}x the reference on a busy dense "
        "world")


def test_busy_dense_world_keeps_each_links_draws_in_its_window():
    """A memory guard, not a timing: after the continued busy dense world
    no link's shadowing window holds more than its bound of draws, however
    far a listener fell behind its sender."""
    from repro.sim.medium import _LinkShadow

    _, sim = run_dense_trial_world(BUSY_DENSE_TRIAL)
    sim.run(until_us=sim.now + DENSE_CONTINUE_US)
    shadows = sim.fast_forward.medium._link_shadows.values()
    assert shadows
    bound = 2 * _LinkShadow._HORIZON
    assert max(len(shadow._draws) for shadow in shadows) <= bound


@needs_cores
def test_four_jobs_3x_serial(monkeypatch):
    monkeypatch.setenv(fastforward.ENGINE_ENV_VAR,
                       fastforward.ENGINE_REFERENCE)
    trials = _injection_trials(range(9_000, 9_032))
    speedup = _best_ratio(partial(execute_trials, trials, jobs=1),
                          partial(execute_trials, trials, jobs=4), rounds=1)
    assert speedup >= 3.0, f"4 jobs only {speedup:.2f}x serial"


#: A 64-byte frame, the size class of the paper's injected Write Request.
FRAME = bytes((7 * i + 3) & 0xFF for i in range(64))


def _kernel(module, name, *args) -> tuple:
    """``(fast, reference)`` thunks of ``module.name`` on ``args``."""
    return (partial(getattr(module, name), *args),
            partial(getattr(module, f"{name}_reference"), *args))


def _csa2_schedule(reference=False) -> None:
    """A cold 1000-event CSA#2 schedule, block-fill cost included."""
    csa2.clear_schedule_cache()
    csa = csa2.Csa2(0x71764129)
    channel = (csa.channel_for_event_reference if reference
               else csa.channel_for_event)
    for event in range(1000):
        channel(event)


@pytest.mark.parametrize("fast, reference, fast_calls, floor", [
    pytest.param(*_kernel(crc, "crc24", FRAME, 0x555555), 400, 5.0,
                 id="crc24"),
    pytest.param(*_kernel(crc, "reverse_crc24_init", FRAME, 0x555555), 400,
                 2.0, id="reverse_crc24_init"),
    pytest.param(*_kernel(whitening, "whiten", FRAME, 17), 400, 5.0,
                 id="whiten"),
    pytest.param(_csa2_schedule, partial(_csa2_schedule, reference=True),
                 20, 3.0, id="csa2_schedule"),
    pytest.param(*_kernel(aes, "aes128_encrypt_block", bytes(range(16)),
                          bytes(range(16, 32))), 400, 2.0, id="aes128_block"),
])
def test_codec_kernel_floor(fast, reference, fast_calls, floor):
    reference_calls = max(fast_calls // 10, 20)
    fast(), reference()  # build lazy tables outside the timing

    def repeat(fn, calls):
        for _ in range(calls):
            fn()

    speedup = _best_ratio(partial(repeat, reference, reference_calls),
                          partial(repeat, fast, fast_calls), rounds=3) \
        * fast_calls / reference_calls
    assert speedup >= floor, f"{speedup:.2f}x < {floor}x"


def test_indexed_medium_2x_broadcast_at_32_pairs():
    def world(indexed):
        sim, _sent, _got = paired_world(32, indexed=indexed)
        return partial(sim.run, until_us=PAIRED_WORLD_US)

    speedup = _best_ratio(world(indexed=False), world(indexed=True),
                          rounds=1)
    assert speedup >= 2.0, f"indexed medium only {speedup:.2f}x broadcast"


@dataclasses.dataclass(frozen=True)
class _FixedCostTrial:
    """A unit that sleeps 50 ms in the worker's child, so a campaign's
    timing is its dispatch and journal overhead plus a known cost."""

    seed: int


def _run_fixed_cost_trial(trial):
    time.sleep(0.05)
    return TrialResult(success=True, attempts=1, effect_observed=True,
                       connection_survived=True)


def _fixed_cost_units(base_seed=0, n_connections=2):
    return [("sleep", _FixedCostTrial(seed=base_seed + i))
            for i in range(n_connections)]


register_experiment(ExperimentDef(
    "speed-floor-sleep", _fixed_cost_units, "fixed-cost fleet fixture"),
    replace=True)
register_trial_runner(_FixedCostTrial, _run_fixed_cost_trial, replace=True)


@needs_cores
def test_four_worker_fleet_2x_serial(tmp_path):
    spec = CampaignSpec.from_dict({
        "name": "speed-floor", "seed": 0, "timeout_s": 60,
        "axes": [{"experiment": "speed-floor-sleep", "n_connections": 40}],
    })
    speedup = _best_ratio(
        partial(run_campaign, spec, tmp_path / "serial.jsonl", jobs=1),
        partial(serve_campaign, spec, tmp_path / "served.jsonl", workers=4),
        rounds=1)
    assert speedup >= 2.0, f"4-worker fleet only {speedup:.2f}x serial"


def test_metrics_enabled_overhead_under_25_percent():
    """That disabled telemetry costs nothing is an exact gate in
    ``test_telemetry.py``; enabled, it may cost a bounded share."""
    enabled = _injection_trials(PANEL_SEEDS, collect_metrics=True)
    disabled = _injection_trials(PANEL_SEEDS)
    results = execute_trials(enabled, jobs=1)
    assert all(result.success for result in results)
    assert merge_trial_metrics(results)["counters"]["medium.tx"] > 0
    execute_trials(disabled, jobs=1)  # warm both paths before timing
    ratio = _best_ratio(partial(execute_trials, enabled, jobs=1),
                        partial(execute_trials, disabled, jobs=1), rounds=7)
    assert ratio - 1.0 < 0.25, f"metrics cost {ratio - 1.0:.1%} when enabled"
