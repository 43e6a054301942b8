"""Analysis module tests: fits and distributions."""

import pytest

from repro.analysis.distributions import (
    cumulative_savings,
    fractal_clusters,
    length_histogram,
    patterns_for_fraction,
)
from repro.analysis.powerlaw import fit_power_law, rank_frequency
from repro.analysis.regression import linear_fit
from repro.outliner.cost_model import OutlineClass
from repro.outliner.stats import PatternStat


def stat(pid, length, count, benefit):
    return PatternStat(pattern_id=pid, length=length, num_candidates=count,
                       outline_class=OutlineClass.NO_LR_SAVE,
                       benefit_bytes=benefit, rendered=())


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([0, 1, 2, 3], [5, 7, 9, 11])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(5.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_line_r2_below_one(self):
        fit = linear_fit([0, 1, 2, 3, 4], [0, 1.1, 1.9, 3.2, 3.9])
        assert 0.9 < fit.r_squared < 1.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])

    def test_prediction(self):
        fit = linear_fit([0, 10], [0, 100])
        assert fit.predict(5) == pytest.approx(50)


class TestPowerLaw:
    def test_recovers_exponent(self):
        xs = list(range(1, 200))
        ys = [1000.0 * x ** -0.7 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.b == pytest.approx(-0.7, abs=1e-6)
        assert fit.a == pytest.approx(1000.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_rank_frequency_sorts_descending(self):
        ranks, freqs = rank_frequency([3, 9, 1, 5])
        assert ranks == [1, 2, 3, 4]
        assert freqs == [9, 5, 3, 1]

    def test_zero_frequencies_filtered(self):
        fit = fit_power_law([1, 2, 3, 4], [8, 4, 0, 1])
        assert fit.b < 0


class TestDistributions:
    def test_length_histogram_sums_candidates(self):
        stats = [stat(1, 2, 10, 40), stat(2, 2, 5, 20), stat(3, 4, 3, 30)]
        hist = length_histogram(stats)
        assert hist == {2: 15, 4: 3}

    def test_cumulative_savings_sorted_by_benefit(self):
        stats = [stat(1, 2, 10, 40), stat(2, 3, 4, 100), stat(3, 2, 2, 10)]
        curve = cumulative_savings(stats)
        assert curve == [(1, 100), (2, 140), (3, 150)]

    def test_patterns_for_fraction(self):
        stats = [stat(i, 2, 2, b) for i, b in enumerate([50, 30, 15, 5])]
        assert patterns_for_fraction(stats, 0.5) == 1
        assert patterns_for_fraction(stats, 0.9) == 3
        assert patterns_for_fraction([], 0.9) == 0

    def test_fractal_clusters(self):
        stats = [stat(1, 2, 100, 1), stat(2, 3, 100, 1), stat(3, 9, 4, 1),
                 stat(4, 2, 4, 1), stat(5, 5, 4, 1)]
        clusters = fractal_clusters(stats)
        assert clusters[0].frequency == 100
        assert clusters[0].num_patterns == 2
        assert clusters[1].frequency == 4
        assert clusters[1].distinct_lengths == 3
        assert clusters[1].max_length == 9
