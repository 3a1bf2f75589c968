"""Unit tests for the success-detection heuristic (paper formula 7)."""

from repro.core.heuristic import (
    TIMING_TOLERANCE_US,
    HeuristicInputs,
    evaluate_heuristic,
)


def obs(**overrides):
    fields = dict(t_a=1000.0, d_a=176.0, sn_a=0, nesn_a=1,
                  t_s=1000.0 + 176.0 + 150.0, sn_s=1, nesn_s=1)
    fields.update(overrides)
    return HeuristicInputs(**fields)


class TestFormula7:
    def test_textbook_success(self):
        verdict = evaluate_heuristic(obs())
        assert verdict.success and verdict.timing_ok and verdict.ack_ok

    def test_tolerance_is_5us(self):
        assert TIMING_TOLERANCE_US == 5.0

    def test_timing_window_bounds(self):
        base = 1000.0 + 176.0 + 150.0
        assert evaluate_heuristic(obs(t_s=base + 4.9)).timing_ok
        assert evaluate_heuristic(obs(t_s=base - 4.9)).timing_ok
        assert not evaluate_heuristic(obs(t_s=base + 5.1)).timing_ok
        assert not evaluate_heuristic(obs(t_s=base - 5.1)).timing_ok

    def test_master_won_race_fails_timing(self):
        # Slave anchored on the Master frame: response far from expected.
        verdict = evaluate_heuristic(obs(t_s=1000.0 + 176.0 + 150.0 + 80.0))
        assert not verdict.timing_ok and not verdict.success

    def test_ack_condition_nesn(self):
        # NESN'_s must equal (SN_a + 1) mod 2.
        verdict = evaluate_heuristic(obs(sn_a=0, nesn_s=0))
        assert not verdict.ack_ok

    def test_ack_condition_sn(self):
        # SN'_s must equal NESN_a.
        verdict = evaluate_heuristic(obs(nesn_a=1, sn_s=0))
        assert not verdict.ack_ok

    def test_crc_corruption_signature(self):
        """Collision-corrupted injection: Slave re-anchors (timing OK) but
        does not advance NESN (ack fails) — situation b of Fig. 5."""
        verdict = evaluate_heuristic(obs(sn_a=0, nesn_s=0))
        assert verdict.timing_ok and not verdict.ack_ok and \
            not verdict.success

    def test_no_response_at_all(self):
        verdict = evaluate_heuristic(obs(t_s=None))
        assert not verdict.response_seen and not verdict.success

    def test_undecodable_response(self):
        verdict = evaluate_heuristic(obs(sn_s=None, nesn_s=None))
        assert verdict.response_seen
        assert not verdict.ack_ok and not verdict.success

    def test_all_bit_combinations_exhaustive(self):
        for sn_a in (0, 1):
            for nesn_a in (0, 1):
                expected_nesn_s = (sn_a + 1) % 2
                expected_sn_s = nesn_a
                verdict = evaluate_heuristic(obs(
                    sn_a=sn_a, nesn_a=nesn_a,
                    sn_s=expected_sn_s, nesn_s=expected_nesn_s))
                assert verdict.success
                verdict_bad = evaluate_heuristic(obs(
                    sn_a=sn_a, nesn_a=nesn_a,
                    sn_s=expected_sn_s ^ 1, nesn_s=expected_nesn_s))
                assert not verdict_bad.success
