"""Cycle distribution families: moments, quantile hooks, parameter guards."""
import functools
import hashlib
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammainccinv, gammaincinv, ndtr

from regenlab.greeks import DegenerateTauError
from regenlab.models import (_CYCLE_BLOCK, _ERLANG_SHAPES, _ERLANG_SLICE,
                             _ETA_CYCLES, _ETA_STREAM, MODELS,
                             CompoundJumpModel, GammaGaussianModel,
                             IidSumModel, _block_sizes, _erlang_quantile,
                             _erlang_slice, _erlang_solve,
                             InvalidParameterError, MM1BusyCycleModel,
                             ModeUnsupportedError, ParetoCycleModel,
                             eta_moment, reference_greeks)
from regenlab.rng import RngStream

TABLES = Path(__file__).resolve().parent


@functools.lru_cache(maxsize=None)
def _reference_table(name: str) -> tuple[np.ndarray, np.ndarray]:
    """The grid g and the reference quantiles at each g, one column each:
    per integer shape the Gamma quantile at Phi(g) in
    ``erlang_quantiles.txt``, the pareto one in ``pareto_quantiles.txt``."""
    rows = [line.split() for line in (TABLES / name).read_text().splitlines()
            if not line.startswith("#")]
    values = np.array([[float.fromhex(v) for v in row] for row in rows])
    return values[:, 0], values[:, 1:]


def _batch(model, n, seed=0, index=50):
    return model.sample_cycles(n, RngStream(seed, index))


@pytest.mark.parametrize("family", sorted(MODELS))
def test_samplers_share_one_draw_contract(family):
    # on one stream both samplers give the same cycles, bit for bit
    model = MODELS[family]()
    batch = model.sample_cycles(2000, RngStream(2024, 5))
    path = model.sample_path(2000, RngStream(2024, 5))
    assert batch.tau.tobytes() == path.tau.tobytes()
    assert batch.xi.tobytes() == path.xi.tobytes()
    # path.eta() subtracts the absolute prefix sums again
    np.testing.assert_allclose(batch.eta, path.eta(), rtol=1e-12, atol=1e-12)


class TestIidSums:
    def test_durations_constant(self):
        model = IidSumModel(xi_mean=np.array([0.5]), xi_cov=np.array([[2.0]]),
                            tau_const=1.5, dim=1)
        batch = _batch(model, 100)
        np.testing.assert_array_equal(batch.tau, np.full(100, 1.5))

    def test_true_greeks_degenerate(self):
        model = IidSumModel(xi_mean=np.array([0.0]), xi_cov=np.array([[1.0]]))
        with pytest.raises(DegenerateTauError):
            model.true_greeks()

    def test_no_coupling_modes(self):
        model = IidSumModel(xi_mean=np.array([0.0]), xi_cov=np.array([[1.0]]))
        assert model.coupling_modes == ()
        with pytest.raises(ModeUnsupportedError):
            model.tau_from_gaussian(np.zeros(3))

    def test_sample_mean_and_cov(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        model = IidSumModel(xi_mean=mean, xi_cov=cov, tau_const=1.0, dim=2)
        batch = _batch(model, 200_000)
        np.testing.assert_allclose(batch.xi.mean(axis=0), mean, atol=0.02)
        np.testing.assert_allclose(np.cov(batch.xi.T, bias=True), cov,
                                   atol=0.03)


class TestGammaGaussian:
    def test_true_vs_estimated(self, gg2_model):
        from regenlab.greeks import estimate_greeks
        exact = gg2_model.true_greeks()
        batch = _batch(gg2_model, 200_000)
        est = estimate_greeks(batch)
        np.testing.assert_allclose(est.mu, exact.mu, rtol=0.02)
        np.testing.assert_allclose(est.kappa, exact.kappa, atol=0.02)
        np.testing.assert_allclose(est.beta, exact.beta, atol=0.03)
        np.testing.assert_allclose(est.sigma2, exact.sigma2, atol=0.05)

    def test_duration_quantile_matches_scipy(self, gg1_model):
        # dual route: model's Gaussian-to-duration map vs scipy's gamma ppf
        g = np.linspace(-3.0, 3.0, 25)
        ours = gg1_model.tau_from_gaussian(g)
        oracle = stats.gamma.ppf(stats.norm.cdf(g), a=gg1_model.tau_shape,
                                 scale=gg1_model.tau_scale)
        np.testing.assert_allclose(ours, oracle, rtol=1e-10)

    @pytest.mark.parametrize("shape", _ERLANG_SHAPES)
    def test_erlang_quantile_against_the_reference_table(self, shape):
        # 40-digit quantiles from scripts/erlang_reference.py: the fast path
        # is at worst as far off as scipy's Gamma inverse, and typically
        # within one ulp
        g, table = _reference_table("erlang_quantiles.txt")
        ref = table[:, shape - 1]
        ours = GammaGaussianModel(tau_shape=shape).tau_from_gaussian(g)
        lower = g <= 0
        theirs = np.where(lower, gammaincinv(shape, ndtr(g)),
                          gammainccinv(shape, ndtr(-g)))
        ours_ulp = np.abs(ours - ref) / np.spacing(ref)
        theirs_ulp = np.abs(theirs - ref) / np.spacing(ref)
        assert ours_ulp.max() <= theirs_ulp.max()
        assert np.median(ours_ulp) <= 1.0

    # per shape 1..8: the largest and the mean ulp error the Erlang
    # quantile may have on erlang_quantiles.txt (the solver alone had 6, 3,
    # 3, ... and means 1.052, 0.710, 0.577, 0.520, 0.473, 0.427, 0.454,
    # 0.403; these allow one ulp and 0.02 more)
    ERLANG_MAX_ULP = (7, 4, 4, 4, 4, 4, 4, 4)
    ERLANG_MEAN_ULP = (1.072, 0.730, 0.597, 0.540, 0.493, 0.447, 0.474,
                       0.423)

    @pytest.mark.parametrize("shape", _ERLANG_SHAPES)
    def test_seeded_erlang_quantile_keeps_its_accuracy(self, shape):
        g, table = _reference_table("erlang_quantiles.txt")
        ref = table[:, shape - 1]
        ours = GammaGaussianModel(tau_shape=shape).tau_from_gaussian(g)
        ulp = np.abs(ours - ref) / np.spacing(ref)
        assert ulp.max() <= self.ERLANG_MAX_ULP[shape - 1]
        assert ulp.mean() <= self.ERLANG_MEAN_ULP[shape - 1]

    def test_erlang_quantile_beyond_the_seed_table_is_the_solver(self):
        # outside [-8.5, 8.5] the Halley/Newton solver alone runs, with the
        # bits it has on the numpy normal law (their digest, all 8 shapes)
        g = np.array([-np.inf, -38.0, -8.6, 8.6, 38.0, np.inf])
        digest = hashlib.sha256()
        for shape in _ERLANG_SHAPES:
            out = _erlang_quantile(shape, g)
            assert out.tobytes() == _erlang_solve(shape, g).tobytes()
            digest.update(out.tobytes())
        assert digest.hexdigest() == ("f206f09914804072293c6b61023f558f"
                                      "1522abb854b52f9eb856b062a9b64939")
        # NaN stays NaN, next to in-table drivers
        mixed = _erlang_quantile(2, np.array([np.nan, 0.5, -0.5]))
        assert np.isnan(mixed[0]) and np.all(np.isfinite(mixed[1:]))

    @pytest.mark.parametrize("shape", _ERLANG_SHAPES)
    def test_erlang_solver_values_against_mpmath(self, shape):
        # the solver's values at g = +-8.6 and +-38: x's relative error is
        # the gap between the 40-digit log tail at x and log Phi, over the
        # tail's log slope x f(x) / tail.  Two ulp of x are allowed; at -38,
        # where Phi(g) ~ 3e-316 is subnormal and x comes from log Phi,
        # which rounds to about one ulp of |log Phi| ~ 730, that much
        # relative error too
        import mpmath as mp
        mp.mp.dps = 40
        g = np.array([-38.0, -8.6, 8.6, 38.0])
        for gi, xi in zip(g, _erlang_quantile(shape, g)):
            x = mp.mpf(float(xi))
            if gi < 0:
                tail = mp.gammainc(shape, 0, x, regularized=True)
                target = mp.ncdf(float(gi))
            else:
                tail = mp.gammainc(shape, x, mp.inf, regularized=True)
                target = mp.ncdf(-float(gi))
            density = x ** (shape - 1) * mp.exp(-x) / mp.factorial(shape - 1)
            rel = float(abs(mp.log(tail / target)) * tail / (x * density))
            allowed = 2.0 * np.spacing(xi)
            if gi == -38.0:
                allowed = max(allowed, 2.0 ** -52 * float(-mp.log(target)) * xi)
            assert rel * xi <= allowed, gi

    def test_erlang_table_covers_the_fast_path(self):
        _, table = _reference_table("erlang_quantiles.txt")
        assert table.shape[1] == len(_ERLANG_SHAPES)
        assert list(_ERLANG_SHAPES) == list(range(1, table.shape[1] + 1))

    @pytest.mark.parametrize("shape", [1.0, 2.0, 5.0, 8.0])
    def test_duration_quantile_is_slice_invariant(self, shape):
        # coupling._durations_past quantiles the blocks of a group of
        # drivers in one call, and the Erlang quantile runs in slices of
        # _ERLANG_SLICE; the sup tests compare against one call per
        # replication: slices must not move a bit, across the slice
        # boundaries too
        model = GammaGaussianModel(tau_shape=shape, tau_scale=1.5)
        g = 2.5 * RngStream(7, 3).generator().standard_normal(20_000)
        whole = model.tau_from_gaussian(g)
        assert g.size > 2 * _ERLANG_SLICE
        one_pass = 1.5 * _erlang_slice(int(shape), g)
        assert whole.tobytes() == one_pass.tobytes()
        bounds = np.sort(RngStream(7, 4).generator().integers(0, g.size, 40))
        across = [(_ERLANG_SLICE - 5, _ERLANG_SLICE + 7),
                  (2 * _ERLANG_SLICE - 1, 2 * _ERLANG_SLICE + 1),
                  (100, g.size - 100)]
        for a, b in [*zip(bounds[::2], bounds[1::2]), *across]:
            assert (model.tau_from_gaussian(g[a:b]).tobytes()
                    == whole[a:b].tobytes())
        for i in bounds:
            assert (model.tau_from_gaussian(g[i:i + 1]).tobytes()
                    == whole[i:i + 1].tobytes())
            assert model.tau_from_gaussian(g[i]) == whole[i]

    @pytest.mark.parametrize("shape", [1.0, 2.0, 8.0])
    def test_duration_quantile_is_nondecreasing(self, shape):
        g = np.sort(RngStream(8, 0).generator().standard_normal(200_000))
        tau = GammaGaussianModel(tau_shape=shape).tau_from_gaussian(g)
        assert np.all(np.diff(tau) >= 0)

    def test_duration_quantile_far_tails(self):
        g = np.array([-np.inf, -60.0, -38.0, -8.5, 0.0, 8.5, 38.0, 60.0,
                      np.inf, np.nan])
        tau = GammaGaussianModel(tau_shape=2.0).tau_from_gaussian(g)
        # at g = -60 the quantile, about e^-902, is below the least double
        assert tau[0] == tau[1] == 0.0
        assert tau[-2] == np.inf and np.isnan(tau[-1])
        assert np.all(np.isfinite(tau[2:-2])) and np.all(tau[2:-2] > 0)
        assert np.all(np.diff(tau[1:-1]) > 0)

    def test_non_integer_shape_keeps_scipy_bits(self):
        # tau_shape = 2.5 (the coupling tests' NON_INTEGER_MU) stays on
        # scipy's route, bit for bit
        g = 3.0 * RngStream(9, 0).generator().standard_normal(20_000)
        model = GammaGaussianModel(tau_shape=2.5, tau_scale=1.0)
        expected = np.where(g <= 0, gammaincinv(2.5, ndtr(g)),
                            gammainccinv(2.5, ndtr(-g)))
        assert model.tau_from_gaussian(g).tobytes() == expected.tobytes()

    def test_increments_regression_structure(self, gg1_model):
        batch = _batch(gg1_model, 100_000)
        slope = np.cov(batch.xi[:, 0], batch.tau)[0, 1] / np.var(batch.tau)
        assert slope == pytest.approx(float(gg1_model.beta[0]), abs=0.03)

    def test_parameter_guards(self):
        with pytest.raises(InvalidParameterError):
            GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, dim=0)
        with pytest.raises(InvalidParameterError):
            GammaGaussianModel(tau_shape=2.0, tau_scale=1.0,
                               noise_cov=np.eye(3), dim=2)
        with pytest.raises(InvalidParameterError):
            GammaGaussianModel(tau_shape=-1.0, tau_scale=1.0, dim=1)


class TestParetoCycle:
    def test_tail_probability(self):
        model = ParetoCycleModel(tail_index=3.5)
        batch = _batch(model, 200_000)
        # P(tau > 1 + x) = x^(-a): at tau > 10 the exact value is 9^(-3.5)
        p_hat = float(np.mean(batch.tau > 10.0))
        exact = 9.0 ** -3.5
        se = np.sqrt(exact * (1 - exact) / 200_000)
        assert abs(p_hat - exact) <= 4 * se

    def test_increment_equals_duration(self):
        model = ParetoCycleModel(tail_index=3.5)
        batch = _batch(model, 1000)
        np.testing.assert_array_equal(batch.xi[:, 0], batch.tau)

    def test_p_max_is_tail_index(self):
        model = ParetoCycleModel(tail_index=3.5)
        assert model.p_max == 3.5
        with pytest.raises(InvalidParameterError):
            model._check_p(4.0)

    def test_tail_index_guard(self):
        with pytest.raises(InvalidParameterError):
            ParetoCycleModel(tail_index=2.0)

    @pytest.mark.parametrize("theta, p", [
        (theta, p) for theta in (2.5, 3.5, 5.0, 10.0)
        for p in (0.5, 2.05, 3.0, 3.4) if p < theta])
    def test_eta_moment_matches_quadrature(self, theta, p):
        from scipy.integrate import quad
        # quad at its default tolerances is off by up to 1.8e-11 here, so
        # the oracle runs at tighter ones.
        oracle, _ = quad(lambda x: (1.0 + x) ** p * theta * x ** (-theta - 1),
                         1.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        ours = ParetoCycleModel(tail_index=theta).eta_moment(p)
        assert ours == pytest.approx(oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("theta", [2.5, 3.5, 5.0, 10.0])
    def test_eta_moment_integer_p_is_the_binomial_sum(self, theta):
        # E(1+X)^p = theta sum_j C(p, j) / (theta - p + j), in exact rationals
        th = Fraction(theta)
        for p in range(0, math.ceil(theta)):
            exact = th * sum(Fraction(math.comb(p, j)) / (th - p + j)
                             for j in range(p + 1))
            ours = ParetoCycleModel(tail_index=theta).eta_moment(p)
            assert ours == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    def test_eta_moment_infinite_from_tail_index_on(self):
        model = ParetoCycleModel(tail_index=3.5)
        assert model.eta_moment(3.5) == math.inf
        assert model.eta_moment(4.0) == math.inf

    def test_duration_quantile_matches_closed_form(self):
        model = ParetoCycleModel(tail_index=3.5)
        g = np.array([-2.0, -0.5, 0.0, 1.0, 2.5])
        ours = model.tau_from_gaussian(g)
        u = stats.norm.cdf(g)
        oracle = 1.0 + (1.0 - u) ** (-1.0 / 3.5)
        np.testing.assert_allclose(ours, oracle, rtol=1e-10)

    def test_duration_quantile_against_the_reference_table(self):
        # 40-digit quantiles at tail_index 3.5 from
        # scripts/erlang_reference.py, on the grid of the Erlang table
        g, table = _reference_table("pareto_quantiles.txt")
        ref = table[:, 0]
        erlang_g, _ = _reference_table("erlang_quantiles.txt")
        np.testing.assert_array_equal(g, erlang_g)
        ours = ParetoCycleModel(tail_index=3.5).tau_from_gaussian(g)
        ulp = np.abs(ours - ref) / np.spacing(ref)
        assert ulp.max() <= 6.0
        assert np.median(ulp) <= 1.0


class TestMM1BusyCycle:
    def test_cycle_mean(self):
        model = MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0)
        batch = _batch(model, 200_000)
        # idle mean 1/arrival + busy period mean 1/(service - arrival) = 4
        se = batch.tau.std() / np.sqrt(batch.tau.size)
        assert abs(batch.tau.mean() - 4.0) <= 4 * se

    def test_increment_counts_departures(self):
        model = MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0)
        batch = _batch(model, 5000)
        assert np.all(batch.xi[:, 0] >= 1)
        np.testing.assert_array_equal(batch.xi[:, 0],
                                      np.round(batch.xi[:, 0]))
        # the path only steps upward, so the cycle maximum is the increment
        np.testing.assert_array_equal(batch.eta, batch.xi[:, 0])

    def test_true_greeks_exact(self):
        # E N = 2, Var N = 6, E tau = 4, Var tau = 16, Cov(N, tau) = 8 at
        # rho = 1/2; every value is exact in binary floating point
        g = MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0) \
            .true_greeks()
        assert g.mu == 4.0 and g.var_tau == 16.0
        assert float(g.var_xi[0, 0]) == 6.0
        assert float(g.cov_xi_tau[0]) == 8.0
        assert float(g.kappa[0]) == 0.5
        assert float(g.beta[0]) == 0.5 and float(g.sigma2[0, 0]) == 0.5

    def test_reference_greeks_oracle(self):
        model = MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0)
        g = reference_greeks(model, 3.0)
        # long-run departure rate must equal the arrival rate
        assert float(g.kappa[0]) == 0.5

    def test_reference_greeks_checks_p(self):
        # the greeks carry no p; the reference oracle checks the order it is
        # asked for
        with pytest.raises(InvalidParameterError, match="must exceed 2"):
            reference_greeks(GammaGaussianModel(), 2.0)

    def test_sample_cycles_pinned(self):
        # sample_cycles bit for bit on a fixed stream: any change to the
        # order of the walk's draws or to its arithmetic shows here
        batch = MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0) \
            .sample_cycles(10 ** 6, RngStream(0, 2 ** 62 + 11))
        h = hashlib.sha256()
        for array in (batch.tau, batch.xi):
            array = np.ascontiguousarray(array)
            h.update(f"{array.dtype}{array.shape}".encode())
            h.update(array.tobytes())
        assert h.hexdigest() == ("649593135dbe074284850a8d48ee000c"
                                 "78ec6b5a31774d2cc5ebf1fd8f028533")

    @pytest.mark.parametrize("arrival,service",
                             [(0.5, 1.0), (0.3, 2.0), (0.9, 1.0)])
    def test_moments_match_laplace_transform(self, arrival, service):
        # independent route: -L'(0) = E tau and L''(0) = E tau^2 from the
        # closed-form transform, by Richardson-extrapolated central
        # differences well inside its radius of convergence
        model = MM1BusyCycleModel(arrival_rate=arrival, service_rate=service)
        g = model.true_greeks()

        def lap(b):
            # E exp(-b tau): the Exp idle transform times the busy-period
            # transform (Kleinrock 1975, Queueing Systems I, sec. 5.8)
            s = service + arrival + b
            busy = (s - math.sqrt(s * s - 4.0 * arrival * service)) \
                / (2.0 * arrival)
            return arrival / (arrival + b) * busy

        radius = min(arrival, (math.sqrt(service) - math.sqrt(arrival)) ** 2)
        h = 0.01 * radius

        def first(h):
            return (lap(h) - lap(-h)) / (2.0 * h)

        def second(h):
            return (lap(h) - 2.0 * lap(0.0) + lap(-h)) / (h * h)

        slope = (4.0 * first(h / 2) - first(h)) / 3.0
        curvature = (4.0 * second(h / 2) - second(h)) / 3.0
        assert -slope == pytest.approx(g.mu, rel=1e-7)
        assert curvature == pytest.approx(g.var_tau + g.mu ** 2, rel=1e-7)

    @pytest.mark.parametrize("arrival,service",
                             [(0.5, 1.0), (0.8, 1.0), (0.3, 2.0)])
    def test_moments_match_simulation(self, arrival, service):
        # each moment is the mean of an i.i.d. per-cycle quantity once
        # centred at the exact means; 10^6 cycles, 4 standard errors
        model = MM1BusyCycleModel(arrival_rate=arrival, service_rate=service)
        g = model.true_greeks()
        batch = _batch(model, 10 ** 6, seed=2026, index=90)
        tau, n = batch.tau, batch.xi[:, 0]
        mean_n = float(g.kappa[0]) * g.mu
        checks = {"E tau": (tau, g.mu), "E N": (n, mean_n),
                  "Var tau": ((tau - g.mu) ** 2, g.var_tau),
                  "Var N": ((n - mean_n) ** 2, float(g.var_xi[0, 0])),
                  "Cov": ((n - mean_n) * (tau - g.mu),
                          float(g.cov_xi_tau[0]))}
        for name, (sample, exact) in checks.items():
            se = sample.std() / math.sqrt(sample.size)
            assert abs(sample.mean() - exact) <= 4.0 * se, name

    def test_stability_guard(self):
        with pytest.raises(InvalidParameterError):
            MM1BusyCycleModel(arrival_rate=1.0, service_rate=1.0)

    def test_intra_cycle_trajectory(self):
        model = MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0)
        path = model.sample_path(200, RngStream(0, 51))
        assert path.event_times.size > path.n_cycles  # busy periods add events

    @pytest.mark.parametrize("arrival, second", [(0.5, 10.0), (0.8, 205.0),
                                                 (0.9, 1810.0)])
    def test_eta_moment_p2_is_var_plus_squared_mean(self, arrival, second):
        # eta = N: E N^2 = Var N + (E N)^2, read off the closed-form greeks
        model = MM1BusyCycleModel(arrival_rate=arrival, service_rate=1.0)
        g = model.true_greeks()
        mean_n = float(g.kappa[0] * g.mu)
        assert g.var_xi[0, 0] + mean_n ** 2 == pytest.approx(second, rel=1e-12)
        assert model.eta_moment(2.0) == pytest.approx(second, rel=1e-11)

    def test_eta_moment_p3_at_the_defaults(self):
        assert MM1BusyCycleModel().eta_moment(3.0) == pytest.approx(
            122.0, rel=1e-14)

    def test_eta_moment_fractional_p_matches_sampling(self):
        model = MM1BusyCycleModel()
        eta = _batch(model, 200_000).eta ** 2.5
        se = eta.std() / math.sqrt(eta.size)
        assert abs(model.eta_moment(2.5) - eta.mean()) <= 4.0 * se


class TestCompoundJump:
    def test_true_vs_estimated(self):
        model = CompoundJumpModel(cycle_rate=1.0, jump_rate=2.0,
                                  jump_mean=np.array([0.5]),
                                  jump_cov=np.array([[1.5]]), dim=1)
        from regenlab.greeks import estimate_greeks
        exact = model.true_greeks()
        est = estimate_greeks(_batch(model, 200_000))
        np.testing.assert_allclose(est.mu, exact.mu, rtol=0.02)
        np.testing.assert_allclose(est.kappa, exact.kappa, rtol=0.05)
        np.testing.assert_allclose(est.var_xi, exact.var_xi, rtol=0.1)

    def test_drift_is_jump_rate_times_jump_mean(self):
        model = CompoundJumpModel(cycle_rate=1.0, jump_rate=2.0,
                                  jump_mean=np.array([0.5]),
                                  jump_cov=np.array([[1.0]]), dim=1)
        g = model.true_greeks()
        np.testing.assert_allclose(g.kappa, [1.0])

    def test_dim_guard(self):
        with pytest.raises(InvalidParameterError):
            CompoundJumpModel(dim=4)


class TestEtaMoment:
    def test_reproducible(self, gg1_model):
        a = eta_moment(gg1_model, 3.0)
        b = eta_moment(gg1_model, 3.0)
        assert a == b
        assert np.isfinite(a) and a > 0

    def test_single_event_family_matches_increment_moment(self, gg1_model):
        # the plug-in mean reads _ETA_CYCLES cycles of one fixed stream, block
        # after block on one generator, and adds up the blocks' sums; a
        # single-event cycle's maximum is its |increment|
        gen = _ETA_STREAM.generator()
        sums = [float(np.sum(np.abs(gg1_model._cycles(size, gen).xi[:, 0])
                             ** 3.0))
                for size in _block_sizes(_ETA_CYCLES)]
        direct = math.fsum(sums) / _ETA_CYCLES
        assert eta_moment(gg1_model, 3.0) == direct

    def test_plug_in_matches_the_exact_law(self, gg1_model):
        # at d = 1 eta = |xi| with xi | tau ~ N(0.4 tau - 0.3, 0.9) and
        # tau ~ Gamma(2, 1); E|xi|^3 by quadrature over tau of the folded
        # normal's third moment.  The plug-in lies within 4 standard errors.
        def folded_cube(m):
            var = 0.9
            a = m / math.sqrt(var)
            density = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
            return ((m ** 3 + 3.0 * m * var) * (1.0 - 2.0 * ndtr(-a))
                    + 2.0 * math.sqrt(var) * density * (m * m + 2.0 * var))
        exact = integrate.quad(
            lambda t: t * math.exp(-t) * folded_cube(0.4 * t - 0.3),
            0.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert exact == pytest.approx(2.953340972559145, rel=1e-12)
        cubes = np.concatenate(
            list(gg1_model.eta_blocks(_ETA_CYCLES, _ETA_STREAM))) ** 3.0
        se = float(np.std(cubes, ddof=1)) / math.sqrt(cubes.size)
        assert abs(eta_moment(gg1_model, 3.0) - exact) <= 4.0 * se

    @pytest.mark.parametrize("model", [
        IidSumModel(), GammaGaussianModel(), CompoundJumpModel(dim=1),
        CompoundJumpModel(jump_rate=2.0, jump_mean=np.array([0.3, -0.2]),
                          jump_cov=np.array([[1.0, 0.3], [0.3, 0.8]]),
                          dim=2)],
        ids=["iid-sums", "gamma-gaussian", "compound-jump-d1",
             "compound-jump-d2"])
    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_plug_in_is_the_mean_over_the_blocks(self, model, p):
        # the plug-in is the exactly rounded sum of the reader's block sums
        # over the cycle count: the mean over all the blocks' cycles, to
        # the rounding of one long sum
        blocks = list(model.eta_blocks(_ETA_CYCLES, _ETA_STREAM))
        sums = [float(np.sum(eta ** p)) for eta in blocks]
        assert model.eta_moment(p) == math.fsum(sums) / _ETA_CYCLES
        mean = float(np.mean(np.concatenate(blocks) ** p))
        assert model.eta_moment(p) == pytest.approx(mean, rel=1e-14)

    @pytest.mark.parametrize("model", [
        CompoundJumpModel(), GammaGaussianModel(), IidSumModel()],
        ids=["compound-jump", "gamma-gaussian", "iid-sums"])
    def test_plug_in_memory_is_bounded(self, model):
        # numpy reports its buffers to tracemalloc; one batch of all
        # 200,000 cycles peaked at 12.9, 6.1 and 7.6 MiB
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            model.eta_moment(3.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


def _correlated(dim):
    """A covariance with every pair correlated, so the root mixes rows."""
    return 0.5 * np.eye(dim) + 0.5


# every family, every dimension up to 3 and one beyond: numpy multiplies a
# single row through gemv, whose bits can differ from gemm's at d >= 4, so
# only up to d = 3 is a one-draw family's lone last cycle that of one batch
READER_CASES = {
    "iid-sums-d1": IidSumModel(),
    "iid-sums-d3": IidSumModel(xi_mean=0.2, xi_cov=_correlated(3), dim=3),
    "iid-sums-d5": IidSumModel(xi_cov=_correlated(5), dim=5),
    "gamma-gaussian-d1": GammaGaussianModel(beta=0.4, kappa=0.25),
    "gamma-gaussian-d2": GammaGaussianModel(
        tau_shape=0.7, beta=np.array([0.3, -0.2]), kappa=0.1,
        noise_cov=_correlated(2), dim=2),
    "gamma-gaussian-d5": GammaGaussianModel(
        beta=0.3, noise_cov=_correlated(5), dim=5),
    "pareto-cycle": ParetoCycleModel(),
    "mm1-busy-cycle": MM1BusyCycleModel(arrival_rate=0.7),
    "compound-jump-d1": CompoundJumpModel(jump_rate=3.0),
    "compound-jump-d2": CompoundJumpModel(
        cycle_rate=2.0, jump_rate=0.7, jump_mean=np.array([0.3, -0.2]),
        jump_cov=np.array([[1.0, 0.3], [0.3, 0.8]]), dim=2),
    "compound-jump-d3": CompoundJumpModel(
        jump_rate=1.5, jump_mean=0.1, jump_cov=_correlated(3), dim=3),
}
B = _CYCLE_BLOCK


class TestEtaBlocks:
    def test_cases_cover_every_family(self):
        assert {type(m).family for m in READER_CASES.values()} == set(MODELS)

    @pytest.mark.parametrize("n, sizes", [
        (1, [1]), (B - 1, [B - 1]), (B, [B]), (B + 1, [B, 1]),
        (2 * B + 17, [B, B, 17])])
    def test_block_sizes(self, n, sizes):
        assert _block_sizes(n) == sizes

    @pytest.mark.parametrize("name", sorted(READER_CASES))
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 17])
    def test_first_block_is_sample_cycles(self, name, n):
        # at n <= B the one block is the whole batch
        model = READER_CASES[name]
        stream = RngStream(2024, 23)
        blocks = list(model.eta_blocks(n, stream))
        assert [eta.size for eta in blocks] == _block_sizes(n)
        first = model.sample_cycles(min(n, B), stream).eta
        assert blocks[0].tobytes() == first.tobytes()

    @pytest.mark.parametrize("name", sorted(READER_CASES))
    def test_later_blocks_are_the_next_draws(self, name):
        # each block goes on drawing from the generator the block before
        # left, so no two blocks repeat one another's cycles
        model = READER_CASES[name]
        stream = RngStream(2024, 23)
        blocks = list(model.eta_blocks(2 * B + 17, stream))
        gen = stream.generator()
        for eta in blocks:
            assert eta.tobytes() == model._cycles(eta.size, gen).eta.tobytes()
        assert blocks[1].tobytes() != blocks[0].tobytes()

    @pytest.mark.parametrize("name", ["iid-sums-d1", "iid-sums-d3",
                                      "pareto-cycle"])
    @pytest.mark.parametrize("n", [B + 1, 2 * B + 17, 3 * B])
    def test_one_draw_families_read_the_one_batch(self, name, n):
        # one draw per cycle, filled sequentially (and at d <= 3 the same
        # product bits for any block): the blocks are the one batch
        model = READER_CASES[name]
        stream = RngStream(2024, 23)
        blocks = np.concatenate(list(model.eta_blocks(n, stream)))
        assert blocks.tobytes() == model.sample_cycles(n, stream).eta.tobytes()

    def test_mm1_memory_is_bounded(self):
        # one batch of 65,536 walked cycles peaked at 4.13 MiB
        model = MM1BusyCycleModel()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in model.eta_blocks(8 * B, RngStream(3, 4)):
                pass
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20


@pytest.mark.parametrize("draw", [
    lambda gen, lam: gen.exponential(2.0, size=lam.size),
    lambda gen, lam: gen.gamma(2.0, 1.5, size=lam.size),
    lambda gen, lam: gen.gamma(0.7, size=lam.size),
    lambda gen, lam: gen.poisson(lam),
    lambda gen, lam: gen.pareto(3.5, size=lam.size),
    lambda gen, lam: gen.standard_normal((lam.size, 3))],
    ids=["exponential", "gamma", "gamma-below-1", "poisson", "pareto",
         "standard-normal"])
def test_numpy_fills_draws_sequentially(draw):
    # a one-draw family's blocks equal its one batch because of this: n
    # draws and then m are one draw of n + m, and leave the generator in
    # the same state
    lam = np.random.default_rng(5).exponential(6.0, size=1777)   # < 10, >= 10
    stream = RngStream(7, 3)
    one, two = stream.generator(), stream.generator()
    whole = draw(one, lam)
    parts = np.concatenate([draw(two, lam[:1000]), draw(two, lam[1000:])])
    assert parts.tobytes() == whole.tobytes()
    assert two.bit_generator.state == one.bit_generator.state
