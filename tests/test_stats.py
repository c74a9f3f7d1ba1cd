"""Estimation helpers: Wilson interval, median CI, slope fits, Poisson GOF."""
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtrc, ndtri

from regenlab.stats import (_WILSON_Z, _binom_half_ppf, bootstrap_slope_ci,
                            loglog_slope, median_ci, poisson_gof_pvalue,
                            wilson_interval)

# replication counts of the shipped configs and the benchmark's workloads
SHIPPED_REPLICATIONS = (50, 60, 100, 200, 600, 10_000)


class TestWilson:
    def test_z_literal_is_the_95_percent_quantile(self):
        assert _WILSON_Z == float(ndtri(0.5 + 0.95 / 2))

    def test_matches_textbook_formula(self):
        z = float(stats.norm.ppf(0.975))
        for successes, trials in ((3, 100), (50, 100), (977, 1000)):
            lo, hi = wilson_interval(successes, trials)
            p_hat = successes / trials
            denom = 1 + z ** 2 / trials
            center = (p_hat + z ** 2 / (2 * trials)) / denom
            half = z * math.sqrt(p_hat * (1 - p_hat) / trials
                                 + z ** 2 / (4 * trials ** 2)) / denom
            assert lo == pytest.approx(center - half, rel=1e-12)
            assert hi == pytest.approx(center + half, rel=1e-12)

    def test_zero_successes_lower_endpoint(self):
        lo, hi = wilson_interval(0, 500)
        assert lo == 0.0
        assert 0 < hi < 0.02

    def test_all_successes_upper_endpoint(self):
        lo, hi = wilson_interval(500, 500)
        assert hi == 1.0
        assert 0.98 < lo < 1.0

    def test_interval_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 40)
        assert lo < 7 / 40 < hi

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestMedianCi:
    def test_brackets_sample_median(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(199)
        est = median_ci(samples)
        assert est.ci_low <= est.median <= est.ci_high
        assert est.median == np.median(samples)
        assert est.n == 199

    def test_narrows_with_sample_size(self):
        rng = np.random.default_rng(1)
        small = median_ci(rng.standard_normal(50))
        large = median_ci(rng.standard_normal(5000))
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_tiny_samples_fall_back_to_range(self):
        est = median_ci(np.array([3.0, 1.0, 2.0]))
        assert est.ci_low == 1.0 and est.ci_high == 3.0

    def test_order_statistic_coverage(self):
        # distribution-free CI: ~95% of repetitions should cover the true
        # median of an exponential (log 2); generous slack at 200 trials
        rng = np.random.default_rng(2)
        true_median = math.log(2.0)
        hits = 0
        for _ in range(200):
            est = median_ci(rng.exponential(size=99))
            hits += est.ci_low <= true_median <= est.ci_high
        assert hits >= 180

    @pytest.mark.parametrize("confidence", [0.95, 0.9, 0.99])
    def test_quantile_matches_scipy_binom_ppf(self, confidence):
        q = (1.0 - confidence) / 2.0
        ns = np.concatenate([np.arange(8, 2001), SHIPPED_REPLICATIONS])
        ours = [_binom_half_ppf(q, int(n)) for n in ns]
        np.testing.assert_array_equal(ours, stats.binom.ppf(q, ns, 0.5))

    def test_quantile_is_the_smallest_covering_k(self):
        # P(X <= k) >= q at k and < q at k - 1, by exact integer arithmetic
        for n in (8, 9, 57, 200, 601):
            k = _binom_half_ppf(0.025, n)
            below = sum(math.comb(n, j) for j in range(k))
            assert below < 0.025 * 2 ** n <= below + math.comb(n, k)


class TestSlopes:
    def test_exact_power_law(self):
        t = np.array([8.0, 16.0, 64.0, 256.0, 1024.0])
        y = 3.0 * t ** 0.42
        slope, intercept = loglog_slope(t, y)
        assert slope == pytest.approx(0.42, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_bootstrap_brackets_true_slope(self):
        rng = np.random.default_rng(3)
        t_values = [64.0, 256.0, 1024.0, 4096.0]
        samples = [2.0 * t ** (1 / 3) * rng.lognormal(0, 0.2, size=120)
                   for t in t_values]
        lo, hi = bootstrap_slope_ci(t_values, samples,
                                    np.random.default_rng(4), n_boot=200)
        assert lo < 1 / 3 < hi
        assert hi - lo < 0.2

    def test_bootstrap_deterministic_given_generator(self):
        rng = np.random.default_rng(5)
        t_values = [64.0, 256.0, 1024.0]
        samples = [t ** 0.4 * rng.lognormal(0, 0.3, size=60)
                   for t in t_values]
        a = bootstrap_slope_ci(t_values, samples, np.random.default_rng(6),
                               n_boot=100)
        b = bootstrap_slope_ci(t_values, samples, np.random.default_rng(6),
                               n_boot=100)
        assert a == b

    @pytest.mark.parametrize("seed, sizes", [
        (0, (200, 200, 200, 200, 200, 200, 200)),
        (1, (100, 101, 102)),
        (2, (7, 130, 64, 9)),
        (3, (1, 2, 3, 50, 51)),
    ])
    def test_bootstrap_equals_the_per_resample_loop(self, seed, sizes):
        # the reference draws, takes the medians and fits one resample at a
        # time; the vectorised bootstrap must give the same bits
        rng = np.random.default_rng(seed)
        t_values = [2.0 ** (10 + j) for j in range(len(sizes))]
        samples = [t ** 0.35 * rng.lognormal(0, 0.3, size=n)
                   for t, n in zip(t_values, sizes)]

        def loop(gen, n_boot=400):
            slopes = np.empty(n_boot)
            for b in range(n_boot):
                medians = np.array([
                    np.median(s[gen.integers(0, s.size, size=s.size)])
                    for s in samples])
                slopes[b] = np.polyfit(np.log(t_values), np.log(medians),
                                       1)[0]
            alpha = 1.0 - 0.95
            lo, hi = np.quantile(slopes, [alpha / 2.0, 1.0 - alpha / 2.0])
            return float(lo), float(hi)

        ours = bootstrap_slope_ci(t_values, samples,
                                  np.random.default_rng(seed + 10))
        assert ours == loop(np.random.default_rng(seed + 10))


class TestPoissonGof:
    def test_accepts_true_rate(self):
        counts = np.random.default_rng(7).poisson(3.0, size=20_000)
        assert poisson_gof_pvalue(counts, 3.0) > 0.01

    def test_rejects_wrong_rate(self):
        counts = np.random.default_rng(8).poisson(3.0, size=5000)
        assert poisson_gof_pvalue(counts, 6.0) < 1e-6

    def test_small_rate_pooled_bins(self):
        counts = np.random.default_rng(9).poisson(0.05, size=10_000)
        p = poisson_gof_pvalue(counts, 0.05)
        assert 0.0 <= p <= 1.0

    def test_detects_overdispersion(self):
        rng = np.random.default_rng(10)
        mixed = np.concatenate([rng.poisson(1.0, 5000),
                                rng.poisson(9.0, 5000)])
        assert poisson_gof_pvalue(mixed, 5.0) < 1e-6

    def test_chdtrc_is_the_chi2_survival_function(self):
        rng = np.random.default_rng(11)
        df = rng.integers(1, 60, size=2000)
        x = rng.exponential(40.0, size=2000)
        np.testing.assert_array_equal(chdtrc(df, x), stats.chi2.sf(x, df))
        assert chdtrc(3, 0.0) == 1.0
