"""Closed-form tail bounds: frozen values, regions, caps, domination."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from regenlab.bounds import (NoFeasibleBError, RegionViolationError,
                             TailMoments, _golden_min, block_maximal_tail,
                             brownian_grid_increment_tail, brownian_sup_tail,
                             exp_to_power, nagaev_tail, poisson_inverse_tail,
                             random_sum_M0, random_sum_nagaev_tail,
                             renewal_count_tail, validity_region)
from regenlab.cli import main

EXP1 = lambda b: 1.0 / (1.0 + b)  # noqa: E731  Laplace transform of Exp(1)


class TestRegions:
    def test_classification(self):
        assert validity_region(100.0, 10.0) == "pair"
        assert validity_region(100.0, 100.0 / math.log(100.0)) == "pair"
        assert validity_region(100.0, 30.0) == "large-deviation"

    def test_undefined_below_e(self):
        with pytest.raises(RegionViolationError):
            validity_region(2.0, 1.0)


class TestPoissonInverseTail:
    def test_frozen_value(self):
        res = poisson_inverse_tail(100.0, 10.0, 1.0)
        assert res.value == pytest.approx(2.0 * (math.e / 2.0) ** -10,
                                          rel=1e-14)
        assert res.value == pytest.approx(0.09297905615356902, rel=1e-14)
        assert res.region == "pair"

    def test_caps_at_one(self):
        res = poisson_inverse_tail(100.0, 0.001, 1.0)
        assert res.value == 1.0
        assert res.constants_used["raw_value"] > 1.0

    def test_scale_enters_through_ratio(self):
        narrow = poisson_inverse_tail(100.0, 10.0, 0.5)
        wide = poisson_inverse_tail(100.0, 10.0, 2.0)
        assert narrow.value < wide.value

    def test_wrong_region_raises(self):
        with pytest.raises(RegionViolationError):
            poisson_inverse_tail(100.0, 50.0, 1.0)

    def test_monotone_decreasing_in_x(self):
        values = [poisson_inverse_tail(1000.0, x, 1.0).value
                  for x in np.linspace(1.0, 140.0, 25)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestRenewalCountTail:
    def test_frozen_unit_exponential(self):
        # Exp(1) durations, t=20: optimal tilt b* = 1, bound e^20 / 2^40
        res = renewal_count_tail(20.0, 6.0, 1.0, EXP1)
        assert res.constants_used["b_star"] == pytest.approx(1.0, abs=1e-6)
        assert res.value == pytest.approx(math.exp(20.0) / 2.0 ** 40,
                                          rel=1e-6)
        assert res.value == pytest.approx(4.4125517470983166e-4, rel=1e-6)

    def test_records_both_forms(self):
        res = renewal_count_tail(20.0, 6.0, 1.0, EXP1)
        assert res.value == res.constants_used["t_form"]
        assert res.constants_used["x_form"] > res.constants_used["t_form"]

    def test_no_feasible_tilt(self):
        # deterministic duration 1 with mu = 3: e^{b mu/2} L(b) = e^{b/2} > 1
        with pytest.raises(NoFeasibleBError):
            renewal_count_tail(20.0, 6.0, 3.0, lambda b: math.exp(-b))

    def test_wrong_region_raises(self):
        with pytest.raises(RegionViolationError):
            renewal_count_tail(20.0, 10.0, 1.0, EXP1)

    def test_dominates_exact_gamma_probability(self):
        # P(T_41 <= 20) for Exp(1) durations, via the Gamma(41) CDF
        exact = float(stats.gamma.cdf(20.0, a=41))
        res = renewal_count_tail(20.0, 6.0, 1.0, EXP1)
        assert exact <= res.value


class TestTiltSearch:
    """The renewal-count tilt against the analytic minimiser.

    For Gamma(k, s) durations, L(b) = (1 + s b)^-k, the objective
    b t + count log L(b) is least where t = count k s / (1 + s b), that is
    at b = count k / t - 1/s; for Exp(1) and mu = 1, floor(2t/mu)/t - 1.
    Rounding in the objective limits any derivative-free search to about
    1e-8 (relative) in b.
    """

    @pytest.mark.parametrize("shape, scale", [(1.0, 1.0), (2.0, 0.5),
                                              (0.5, 3.0), (3.0, 0.2),
                                              (5.0, 0.2)])
    @pytest.mark.parametrize("t", [5.0, 20.0, 100.0, 1000.0])
    def test_b_star_is_the_analytic_minimiser(self, shape, scale, t):
        mu = shape * scale
        exact = math.floor(2.0 * t / mu) * shape / t - 1.0 / scale
        res = renewal_count_tail(t, 1.0, mu,
                                 lambda b: (1.0 + scale * b) ** -shape)
        b_star = res.constants_used["b_star"]
        assert abs(b_star - exact) <= 1e-7 * max(1.0, exact)

    @pytest.mark.parametrize("func, argmin", [
        (lambda b: (b - 0.3) ** 2, 0.3),      # smooth
        (lambda b: abs(b - 0.7), 0.7),        # kinked
        (lambda b: -b, 1.0),                  # minimum on the bracket end
    ])
    def test_golden_section_other_shapes(self, func, argmin):
        assert abs(_golden_min(func, 0.0, 1.0, 1e-10) - argmin) <= 1e-9


class TestBrownianGridIncrement:
    def test_frozen_value(self):
        res = brownian_grid_increment_tail(1.0, 3.0)
        assert res.value == pytest.approx(8.0 * math.exp(-4.5), rel=1e-14)

    def test_interval_count_and_monotonicity(self):
        res = brownian_grid_increment_tail(5.0, 3.0)
        assert res.constants_used["intervals"] == 6.0  # floor(t) + 1
        in_x = [brownian_grid_increment_tail(5.0, x).value
                for x in np.linspace(2.0, 6.0, 9)]
        assert all(a >= b for a, b in zip(in_x, in_x[1:]))
        assert (brownian_grid_increment_tail(3.0, 4.0).value
                <= brownian_grid_increment_tail(9.0, 4.0).value)

    def test_needs_unit_horizon(self):
        with pytest.raises(ValueError):
            brownian_grid_increment_tail(0.5, 3.0)


class TestNagaev:
    def _moments(self, n, p=3.0, abs_moment=1.0, variance=1.0):
        return TailMoments(n=n, p=p, abs_moment=abs_moment, variance=variance)

    def test_constants(self):
        res = nagaev_tail(self._moments(10), 100.0)
        assert res.constants_used["C1"] == pytest.approx((1 + 2 / 3) ** 3)
        assert res.constants_used["C2"] == pytest.approx(
            2 * math.exp(-3) / 25)

    def test_polynomial_plus_gaussian_structure(self):
        res = nagaev_tail(self._moments(100, abs_moment=2.0), 500.0)
        c = res.constants_used
        assert c["raw_value"] == pytest.approx(
            c["polynomial_term"] + c["gaussian_term"], rel=1e-12)
        poly = c["C1"] * 100 * 2.0 / 500.0 ** 3
        assert c["polynomial_term"] == pytest.approx(poly, rel=1e-12)

    def test_zero_variance_drops_gaussian_term(self):
        res = nagaev_tail(self._moments(10, variance=0.0), 5.0)
        assert res.constants_used["gaussian_term"] == 0.0

    def test_dominates_binomial_oracle(self):
        # sums of n Rademacher signs: exact tail from the binomial CDF
        for n, x in ((16, 8), (64, 24), (256, 80)):
            exact = 2 * float(stats.binom.sf(math.ceil((n + x) / 2) - 1,
                                             n, 0.5))
            res = nagaev_tail(self._moments(n), float(x))
            assert exact <= res.value + 1e-12

    def test_monotone_in_x(self):
        values = [nagaev_tail(self._moments(50), x).value
                  for x in np.linspace(1.0, 400.0, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestBlockMaximal:
    def test_reduction_to_single_index_tails(self):
        moments = TailMoments(n=16, p=3.0, abs_moment=1.0, variance=1.0)
        res = block_maximal_tail(moments, 4.0)
        blocks = 16 // 4 + 1
        worst = max(
            nagaev_tail(TailMoments(n=k, p=3.0, abs_moment=1.0,
                                    variance=1.0),
                        4.0 / 9.0).constants_used["raw_value"]
            for k in range(1, 5))
        assert res.constants_used["raw_value"] == pytest.approx(
            3 * blocks * worst, rel=1e-12)

    def test_region_window(self):
        moments = TailMoments(n=16, p=3.0, abs_moment=1.0, variance=1.0)
        with pytest.raises(RegionViolationError):
            block_maximal_tail(moments, 0.5)
        with pytest.raises(RegionViolationError):
            block_maximal_tail(moments, 17.0)


class TestRandomSum:
    def test_pivot_counts(self):
        assert random_sum_M0(EXP1) == 3
        assert random_sum_M0(lambda b: math.exp(-10.0 * b)) == 1
        lap = 0.99
        expected = math.floor(2.0 / -math.log(lap)) + 1
        assert random_sum_M0(lambda b: lap ** b) == expected

    def test_inclusive_boundary_accepted(self):
        t = 10.0
        x = t / math.log(t)
        moments = TailMoments(n=5, p=3.0, abs_moment=2.0, variance=1.0,
                              laplace_at_1=0.5)
        res = random_sum_nagaev_tail(t, x, moments)
        assert res.value <= 1.0
        assert res.constants_used["M0"] == 3.0

    def test_below_boundary_rejected(self):
        moments = TailMoments(n=5, p=3.0, abs_moment=2.0, variance=1.0,
                              laplace_at_1=0.5)
        with pytest.raises(RegionViolationError):
            random_sum_nagaev_tail(10.0, 2.0, moments)
        with pytest.raises(RegionViolationError):
            random_sum_nagaev_tail(2.0, 1.0, moments)

    def test_head_plus_series_structure(self):
        moments = TailMoments(n=5, p=3.0, abs_moment=2.0, variance=1.0,
                              laplace_at_1=0.5)
        res = random_sum_nagaev_tail(10.0, 8.0, moments)
        c = res.constants_used
        assert c["raw_value"] == pytest.approx(
            c["head_term"] + c["series_sum"] / 8.0 ** 3, rel=1e-9)
        assert c["series_terms"] >= 1

    def test_zero_moment_has_no_series(self, capsys):
        # E|X|^p = 0 zeroes every series term: none is summed, and the CLI
        # line is the one the term-by-term loop printed
        moments = TailMoments(n=5, p=3.0, abs_moment=0.0, variance=1.0,
                              laplace_at_1=0.5)
        c = random_sum_nagaev_tail(10.0, 8.0, moments).constants_used
        assert c["series_terms"] == 0
        assert c["last_term"] == 0.0
        assert c["series_sum"] == 0.0
        assert c["raw_value"] == c["head_term"]
        assert main(["bounds", "random-sum-nagaev-tail", "--t", "10",
                     "--x", "8", "--n", "5", "--p", "3", "--abs-moment", "0",
                     "--variance", "1", "--laplace-at-1", "0.5"]) == 0
        assert capsys.readouterr().out == (
            "random-sum-nagaev-tail,1.0,large-deviation,M0=3.0;"
            "head_horizon=31.0;head_term=5.9945205725660715;series_sum=0.0;"
            "series_terms=0.0;last_term=0.0;raw_value=5.9945205725660715\n")


class TestBrownianSup:
    def test_frozen_value(self):
        res = brownian_sup_tail(100.0, 10_000.0, 2)
        assert res.value == pytest.approx(
            8.0 * math.exp(-10_000.0 / (16.0 * math.log(10_000.0))),
            rel=1e-12)
        assert res.region == "large-deviation"

    def test_dominates_normal_oracle(self):
        for t in (8.0, 64.0, 512.0):
            for factor in (1.5, 3.0, 8.0):
                x = factor * t / math.log(t)
                if x <= math.e:
                    continue
                oracle = 4 * float(stats.norm.sf(x / (2 * math.sqrt(t))))
                res = brownian_sup_tail(t, x, 1)
                assert oracle <= res.value + 1e-300

    def test_requires_large_deviation_region(self):
        with pytest.raises(RegionViolationError):
            brownian_sup_tail(100.0, 5.0, 1)


class TestExpToPower:
    def test_shift_constant(self):
        c, _ = exp_to_power(2.0, 1.0, 2.0, 3.0)
        assert c == 6.0

    @given(st.floats(0.5, 10.0), st.floats(0.2, 3.0), st.floats(0.1, 3.0),
           st.floats(2.1, 5.0))
    def test_domination_on_lattice(self, A, B, C, p):
        c, a0 = exp_to_power(A, B, C, p)
        for t in (math.e, 5.0, 50.0, 1e4, 1e8):
            for factor in (1.0, 1.3, 3.0, 10.0):
                x = c * t ** (1.0 / p) * factor
                lhs = A * math.exp(-B * (x - C * math.log(t)))
                rhs = a0 * t * x ** -p
                assert lhs <= rhs * (1 + 1e-9)


class TestMomentValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TailMoments(n=0, p=3.0, abs_moment=1.0, variance=1.0)
        with pytest.raises(ValueError):
            TailMoments(n=5, p=2.0, abs_moment=1.0, variance=1.0)
        with pytest.raises(ValueError):
            TailMoments(n=5, p=3.0, abs_moment=-1.0, variance=1.0)
