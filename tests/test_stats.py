"""Interval constructions, the incomplete beta machinery, and p-values."""

import math
from statistics import NormalDist

import pytest

from segens.stats import (Interval, beta_quantile, clopper_pearson_ci,
                          dice_difference_test, p_from_ci,
                          regularized_incomplete_beta, wald_ci)


class TestWald:
    @pytest.mark.parametrize("dice,lo,hi", [
        (0.5608, 0.3914, 0.7302),
        (0.5134, 0.3428, 0.6840),
        (0.5743, 0.4055, 0.7431),
    ])
    def test_reported_intervals_at_n33(self, dice, lo, hi):
        iv = wald_ci(dice, 33)
        assert abs(iv.lower - lo) < 1.5e-4
        assert abs(iv.upper - hi) < 1.5e-4
        assert iv.method == "wald"

    def test_degenerate_at_zero(self):
        iv = wald_ci(0.0, 33)
        assert iv.lower == 0.0 and iv.upper == 0.0

    def test_clamped_to_unit_interval(self):
        iv = wald_ci(0.99, 5)
        assert iv.upper == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wald_ci(1.2, 10)
        with pytest.raises(ValueError):
            wald_ci(0.5, 0)


class TestIncompleteBeta:
    def test_uniform_cdf(self):
        # I_x(1, 1) is the identity
        for x in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert abs(regularized_incomplete_beta(x, 1, 1) - x) < 1e-12

    def test_power_cdfs(self):
        # I_x(a, 1) = x^a  and  I_x(1, b) = 1 - (1-x)^b
        for x in (0.1, 0.5, 0.9):
            assert abs(regularized_incomplete_beta(x, 3, 1) - x ** 3) < 1e-12
            assert abs(regularized_incomplete_beta(x, 1, 4)
                       - (1 - (1 - x) ** 4)) < 1e-12

    def test_symmetry(self):
        for x, a, b in ((0.3, 2.5, 7.0), (0.8, 10.0, 4.5)):
            assert abs(regularized_incomplete_beta(x, a, b)
                       + regularized_incomplete_beta(1 - x, b, a) - 1.0) < 1e-12

    def test_quantile_residuals(self):
        for a, b in ((2.0, 3.0), (10.0, 24.0), (0.5, 0.5), (33.0, 1.0)):
            for q in (0.025, 0.2, 0.5, 0.8, 0.975):
                x = beta_quantile(q, a, b)
                assert abs(regularized_incomplete_beta(x, a, b) - q) < 1e-9

    def test_monotone_in_x(self):
        vals = [regularized_incomplete_beta(x, 4.2, 2.7)
                for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert vals == sorted(vals)


class TestClopperPearson:
    @pytest.mark.parametrize("n", [5, 10, 33])
    def test_closed_forms_at_extremes(self, n):
        top = clopper_pearson_ci(n, n)
        assert top.upper == 1.0
        assert abs(top.lower - 0.025 ** (1.0 / n)) < 1e-6
        bottom = clopper_pearson_ci(0, n)
        assert bottom.lower == 0.0
        assert abs(bottom.upper - (1.0 - 0.025 ** (1.0 / n))) < 1e-6

    def test_contains_point_estimate_everywhere(self):
        for n in list(range(1, 21)) + [33]:
            for k in range(n + 1):
                iv = clopper_pearson_ci(k, n)
                assert iv.lower <= k / n <= iv.upper

    def test_wider_than_wald_near_edges(self):
        for n in (10, 33):
            for k in (0, 1, n - 1, n):
                cp = clopper_pearson_ci(k, n)
                wd = wald_ci(k / n, n)
                assert cp.upper - cp.lower >= wd.upper - wd.lower - 1e-12
                assert cp.lower <= wd.estimate <= cp.upper

    def test_fractional_successes_accepted(self):
        iv = clopper_pearson_ci(0.5608 * 33, 33)
        assert iv.method == "clopper-pearson"
        assert iv.lower < 0.5608 < iv.upper

    def test_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson_ci(11, 10)
        with pytest.raises(ValueError):
            clopper_pearson_ci(-1, 10)

    @pytest.mark.parametrize("level", [0.95, 0.99])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_agrees_with_wald_at_its_trial_limit(self, p, level):
        # at 1e8 trials the exact interval is the normal one to 2e-4 of its
        # width; from about 3e8 the continued fraction stops converging,
        # and at 1e9 with p = 0.5 the interval came out inverted
        n = 10**8
        cp = clopper_pearson_ci(p * n, n, level=level)
        wd = wald_ci(p, n, level=level)
        width = wd.upper - wd.lower
        assert abs(cp.lower - wd.lower) < 1e-3 * width
        assert abs(cp.upper - wd.upper) < 1e-3 * width

    @pytest.mark.parametrize("n", [10**8 + 1, 10**16, 1e300])
    def test_past_trial_limit_rejected(self, n):
        with pytest.raises(ValueError, match=r"n must be in \[1, 100000000"):
            clopper_pearson_ci(0.3 * n, n)


class TestPValues:
    def test_z_of_1_96(self):
        # estimate equal to the interval half-width
        p = p_from_ci(0.196, 0.0, 0.392)
        assert abs(p - 0.0496) < 1e-3
        assert abs(p - 2 * (1 - NormalDist().cdf(1.96))) < 0.01

    def test_zero_effect_gives_one(self):
        assert p_from_ci(0.0, -0.1, 0.1) == 1.0

    @pytest.mark.parametrize("z", [1.0, 1.96, 2.0, 3.0])
    def test_approximation_tracks_normal_tail(self, z):
        se = 0.05
        p = p_from_ci(z * se, -1.96 * se, 1.96 * se)
        exact = 2 * (1 - NormalDist().cdf(z))
        assert abs(p - exact) < 0.01

    def test_known_gap_at_small_z(self):
        # the published approximation is least accurate for large p: at
        # z = 0.5 it overshoots the exact two-sided tail by ~0.0126
        se = 0.05
        p = p_from_ci(0.5 * se, -1.96 * se, 1.96 * se)
        exact = 2 * (1 - NormalDist().cdf(0.5))
        assert 0.012 < p - exact < 0.013

    def test_strictly_decreasing_in_z(self):
        se = 0.1
        ps = [p_from_ci(z * se, -1.96 * se, 1.96 * se)
              for z in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            p_from_ci(0.5, 0.3, 0.3)


class TestDiceDifference:
    def _iv(self, est, lo, hi):
        return Interval(estimate=est, lower=lo, upper=hi, level=0.95, n=33,
                        method="wald")

    def test_identical_intervals(self):
        a = self._iv(0.5, 0.3, 0.7)
        assert dice_difference_test(a, a) == 1.0

    def test_reported_comparison_is_well_formed(self):
        stacking = self._iv(0.5743, 0.4055, 0.7431)
        bitmax = self._iv(0.4306, 0.2616, 0.5996)
        p = dice_difference_test(stacking, bitmax)
        assert 0.0 < p < 1.0

    def test_widening_never_decreases_p(self):
        a = self._iv(0.6, 0.5, 0.7)
        b = self._iv(0.4, 0.3, 0.5)
        p_narrow = dice_difference_test(a, b)
        b_wide = self._iv(0.4, 0.2, 0.6)
        p_wide = dice_difference_test(a, b_wide)
        assert p_wide >= p_narrow

    def test_zero_width_rejected(self):
        a = self._iv(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            dice_difference_test(a, a)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(estimate=0.5, lower=0.6, upper=0.7, level=0.95, n=10,
                     method="wald")

    def test_dict_round_trip(self):
        iv = wald_ci(0.3, 20)
        d = iv.to_dict()
        assert d["method"] == "wald" and d["n"] == 20
