"""Tests for the §VII experiment harness (reduced sample sizes for speed;
``repro claims EXPERIMENTS.md`` runs the full 25-connection sweeps)."""

import pytest

from repro.analysis.stats import box_stats
from repro.campaign import EXPERIMENTS, run_experiment
from repro.errors import ConfigurationError
from repro.experiments.common import (
    SETTLE_US,
    TRIAL_DEADLINE_US,
    InjectionTrial,
    attempts_of,
    build_injection_payload,
    run_single_trial,
    run_trial_world,
    run_trials,
    success_rate,
)


def report_time_us(sim) -> float:
    """Simulated time at which the world's injection session reported."""
    (finished,) = sim.trace.filter(kind="injection-finished")
    return finished.time_us


class TestPayloadConstruction:
    @pytest.mark.parametrize("pdu_len", [4, 9, 14, 16, 20])
    def test_exact_pdu_length(self, pdu_len):
        payload, llid = build_injection_payload(pdu_len, control_handle=6)
        # Total PDU = 2-byte header + payload.
        assert 2 + len(payload) == pdu_len or pdu_len == 4
        if pdu_len == 4:
            assert 2 + len(payload) == 4  # opcode + error code

    def test_paper_22_byte_frame(self):
        payload, _ = build_injection_payload(14, control_handle=6)
        from repro.phy.modulation import frame_length_bytes

        assert frame_length_bytes(2 + len(payload)) == 22

    def test_unobservable_size_rejected(self):
        with pytest.raises(ConfigurationError):
            build_injection_payload(6, control_handle=6)


class TestSingleTrial:
    def test_basic_trial_succeeds(self):
        result = run_single_trial(InjectionTrial(seed=100, hop_interval=75))
        assert result.success
        assert result.effect_observed
        assert result.connection_survived
        assert result.attempts >= 1

    def test_trial_is_deterministic(self):
        a = run_single_trial(InjectionTrial(seed=123, hop_interval=75))
        b = run_single_trial(InjectionTrial(seed=123, hop_interval=75))
        assert a.attempts == b.attempts
        assert a.success == b.success

    def test_different_seeds_vary(self):
        attempts = {run_single_trial(
            InjectionTrial(seed=s, hop_interval=75)).attempts
            for s in range(200, 206)}
        assert len(attempts) > 1

    def test_terminate_trial(self):
        result = run_single_trial(InjectionTrial(seed=101, hop_interval=75,
                                                 pdu_len=4))
        assert result.success and result.effect_observed
        # The settle covers the supervision timeout: the Central has
        # noticed the dead link by the time survival is read.
        assert not result.connection_survived

    def test_trial_ends_one_settle_after_the_report(self):
        result, sim = run_trial_world(
            InjectionTrial(seed=101, hop_interval=75), trace_enabled=True)
        assert result.success
        assert sim.now == pytest.approx(report_time_us(sim) + SETTLE_US)
        assert sim.now < 8_000_000 < TRIAL_DEADLINE_US


class TestRunTrials:
    def test_collects_n_results(self):
        results = run_trials(1, 4, lambda seed: InjectionTrial(
            seed=seed, hop_interval=75))
        assert len(results) == 4

    def test_helpers(self):
        results = run_trials(2, 4, lambda seed: InjectionTrial(
            seed=seed, hop_interval=75))
        assert 0.0 <= success_rate(results) <= 1.0
        assert len(attempts_of(results)) == \
            sum(1 for r in results if r.success)


class TestExperimentShapes:
    """Reduced-size checks of the Figure 9 qualitative shapes."""

    def test_hop_interval_experiment(self):
        results = run_experiment(
            "hop", base_seed=11, n_connections=6, hop_intervals=(25, 150))
        for hop, trials in results.items():
            assert success_rate(trials) == 1.0, f"hop {hop} not always injectable"
        # Variance shrinks from the smallest to the largest interval.
        var_small = box_stats(attempts_of(results[25])).variance
        var_large = box_stats(attempts_of(results[150])).variance
        assert var_large <= var_small + 1.0

    def test_payload_size_experiment(self):
        results = run_experiment(
            "payload", base_seed=12, n_connections=6, payload_sizes=(4, 16))
        for size, trials in results.items():
            assert success_rate(trials) == 1.0
        median_small = box_stats(attempts_of(results[4])).median
        median_large = box_stats(attempts_of(results[16])).median
        assert median_small <= median_large + 1.0

    def test_distance_experiment(self):
        results = run_experiment(
            "distance", base_seed=13, n_connections=5,
            positions={"A (1 m)": 1.0, "F (10 m)": 10.0})
        for label, trials in results.items():
            assert success_rate(trials) == 1.0, f"{label} failed"
        near = box_stats(attempts_of(results["A (1 m)"]))
        far = box_stats(attempts_of(results["F (10 m)"]))
        assert far.median >= near.median

    def test_wall_experiment(self):
        results = run_experiment("wall", base_seed=14, n_connections=5,
                                 distances=(2.0,))
        trials = results[2.0]
        assert success_rate(trials) == 1.0
        # The wall costs more attempts than the same distance in free space.
        free = run_experiment(
            "distance", base_seed=14, n_connections=5, positions={"B (2 m)": 2.0})
        walled_mean = box_stats(attempts_of(trials)).mean
        free_mean = box_stats(attempts_of(free["B (2 m)"])).mean
        assert walled_mean >= free_mean


class TestRunExperiment:
    def test_cli_panels_and_errors(self):
        from repro.cli import PANELS

        assert set(PANELS) <= set(EXPERIMENTS)
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_experiment("frobnicate")
        with pytest.raises(ConfigurationError, match="hop_intervalz"):
            run_experiment("hop", hop_intervalz=(25,))
