"""Unit tests for experiment statistics and reporting."""

import pytest

from repro.analysis.reporting import render_distribution_table, render_series
from repro.analysis.stats import box_stats, spearman_rho
from repro.errors import ConfigurationError


class TestBoxStats:
    def test_simple_sample(self):
        stats = box_stats([1, 2, 3, 4, 5])
        assert stats.median == 3
        assert stats.minimum == 1 and stats.maximum == 5
        assert stats.count == 5

    def test_quartiles(self):
        stats = box_stats(list(range(1, 101)))
        assert stats.q1 == pytest.approx(25.75)
        assert stats.q3 == pytest.approx(75.25)
        assert stats.iqr == pytest.approx(49.5)

    def test_variance_sample(self):
        stats = box_stats([2, 4, 4, 4, 5, 5, 7, 9])
        assert stats.variance == pytest.approx(4.571, abs=0.01)

    def test_single_value(self):
        stats = box_stats([7])
        assert stats.variance == 0.0
        assert stats.median == 7

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            box_stats([])


class TestRendering:
    def test_distribution_table_has_all_rows(self):
        table = render_distribution_table(
            "Experiment 1", "hop interval",
            {25: [1, 2, 3], 50: [1, 1, 2]})
        assert "Experiment 1" in table
        assert "25" in table and "50" in table
        assert "med" in table

    def test_series(self):
        text = render_series("Scenarios", [("A", "success", 3),
                                           ("B", "success", 2)])
        assert "Scenarios" in text and "A" in text and "B" in text


def test_spearman_ties_share_their_average_rank():
    # Ranks of x: 1.5 1.5 3 4; of y: 1 2 3 4.
    assert spearman_rho([1, 1, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9486832980505138)
    assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
