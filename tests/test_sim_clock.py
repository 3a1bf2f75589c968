"""Unit tests for drifting sleep clocks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.clock import (
    SCA_FIELD_PPM,
    SleepClock,
    ppm_to_sca_field,
    sca_field_to_ppm,
)


class TestScaFields:
    def test_field_table_matches_spec(self):
        assert SCA_FIELD_PPM == (500.0, 250.0, 150.0, 100.0, 75.0, 50.0,
                                 30.0, 20.0)

    def test_field_to_ppm(self):
        assert sca_field_to_ppm(7) == 20.0
        assert sca_field_to_ppm(0) == 500.0

    def test_ppm_to_field_smallest_covering(self):
        assert ppm_to_sca_field(20.0) == 7
        assert ppm_to_sca_field(50.0) == 5
        assert ppm_to_sca_field(60.0) == 4  # 75 ppm covers 60

    def test_ppm_to_field_huge_value(self):
        assert ppm_to_sca_field(1000.0) == 0

    def test_invalid_field_rejected(self):
        with pytest.raises(ConfigurationError):
            sca_field_to_ppm(8)


class TestSleepClock:
    def make(self, sca=50.0, seed=1, jitter=0.0):
        return SleepClock(sca, rng=np.random.default_rng(seed),
                          jitter_us=jitter)

    def test_rate_error_bounded_by_utilized_sca(self):
        for seed in range(20):
            clock = self.make(sca=100.0, seed=seed)
            assert -60.0 <= clock.rate_error_ppm <= 60.0

    def test_full_utilization_bound(self):
        import numpy as np
        from repro.sim.clock import SleepClock

        for seed in range(10):
            clock = SleepClock(100.0, rng=np.random.default_rng(seed),
                               utilization=1.0)
            assert -100.0 <= clock.rate_error_ppm <= 100.0

    def test_invalid_utilization_rejected(self):
        import pytest as _pytest
        from repro.errors import ConfigurationError
        from repro.sim.clock import SleepClock

        with _pytest.raises(ConfigurationError):
            SleepClock(50.0, utilization=1.5)

    def test_zero_sca_is_perfect(self):
        clock = self.make(sca=0.0)
        assert clock.rate == 1.0
        assert clock.local_from_true(12345.0) == 12345.0

    def test_conversions_are_inverse(self):
        clock = self.make(sca=200.0, seed=3)
        t = 5_000_000.0
        assert clock.true_from_local(clock.local_from_true(t)) == \
            pytest.approx(t)

    def test_drift_magnitude_over_interval(self):
        clock = self.make(sca=100.0, seed=5)
        interval = 1_000_000.0  # 1 s
        drift = clock.drift_over(interval)
        # |drift| ≈ |rate_error| * interval, bounded by the utilized budget.
        assert abs(drift) <= 60.0 + 1e-6
        assert abs(drift) == pytest.approx(
            abs(clock.rate_error_ppm) * interval / 1e6, rel=1e-3)

    def test_two_clocks_differ(self):
        a = self.make(seed=1)
        b = self.make(seed=2)
        assert a.rate_error_ppm != b.rate_error_ppm

    def test_jitter_disabled(self):
        clock = self.make(jitter=0.0)
        assert clock.sample_jitter() == 0.0

    def test_jitter_distribution(self):
        clock = self.make(jitter=2.0, seed=9)
        samples = [clock.sample_jitter() for _ in range(200)]
        assert np.std(samples) == pytest.approx(2.0, rel=0.3)

    def test_negative_sca_rejected(self):
        with pytest.raises(ConfigurationError):
            SleepClock(-1.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            SleepClock(10.0, jitter_us=-1.0)


class TestJitterBuffer:
    """A clock buffers its jitter draws: scalar reads, the fast-forward
    kernel's bulk takes and its give-backs all hand out exactly the
    sequence of scalar ``normal(0, s)`` draws from one generator."""

    @staticmethod
    def _clock(seed, jitter):
        # 0 ppm: no rate draw, so the stream carries only jitter.
        return SleepClock(0.0, rng=np.random.default_rng(seed),
                          jitter_us=jitter)

    @staticmethod
    def _scalar(seed, jitter, n):
        rng = np.random.default_rng(seed)
        return [float(rng.normal(0.0, jitter)) for _ in range(n)]

    @pytest.mark.parametrize("takes", [(1,), (3, 5), (600,), (511, 2, 513)])
    def test_takes_and_scalar_reads_match_scalar_draws(self, takes):
        clock = self._clock(17, 1.5)
        drawn = []
        for n in takes:
            drawn.append(clock.sample_jitter())
            drawn += clock.take(n).tolist()
        drawn.append(clock.sample_jitter())
        assert drawn == self._scalar(17, 1.5, sum(takes) + len(takes) + 1)

    def test_given_back_draws_are_neither_consumed_nor_lost(self):
        clock = self._clock(4, 2.0)
        head = clock.take(900)[:400].tolist()
        clock.give_back(500)
        rest = clock.take(300).tolist()
        clock.give_back(100)
        tail = [clock.sample_jitter() for _ in range(101)]
        assert head + rest[:200] + tail == self._scalar(4, 2.0, 701)

    def test_zero_jitter_gives_zeros_and_draws_nothing(self):
        rng = np.random.default_rng(8)
        clock = SleepClock(0.0, rng=rng, jitter_us=0.0)
        before = rng.bit_generator.state
        assert clock.take(4).tolist() == [0.0] * 4
        clock.give_back(2)
        assert clock.sample_jitter() == 0.0
        assert rng.bit_generator.state == before
