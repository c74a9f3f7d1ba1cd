"""Coupled construction: Poisson embedding, Wiener assembly, the eight terms."""
import dataclasses
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from regenlab.coupling import (AssembledW, CouplingBundle, GaussianDriver,
                               IdentityViolationError, ModeUnsupportedError,
                               PoissonQuantile, ScaledPath, UnitGridPath,
                               build_bundle, build_inverse_wiener,
                               build_poisson_from_brownian,
                               _path_on_grid, _phi_terms,
                               build_timechange_wiener,
                               drive_gaussians, evaluation_grid,
                               horizon_cycles_for, phi_decomposition,
                               sup_deviation)
from regenlab.models import (CompoundJumpModel, GammaGaussianModel,
                             IidSumModel, MM1BusyCycleModel, ParetoCycleModel,
                             reference_greeks)
from regenlab.models import single_event_path
from regenlab.paths import PIECEWISE_CONSTANT, HorizonExceededError
from regenlab.rng import RngStream


def _stream(index=0, root=0):
    return RngStream(root, 900 + index)


class TestUnitGridPath:
    def test_from_increments_cumsum(self):
        inc = np.array([[1.0], [-2.0], [0.5]])
        path = UnitGridPath.from_increments(inc)
        np.testing.assert_array_equal(path.values[:, 0], [0.0, 1.0, -1.0, -0.5])
        assert path.horizon == 3.0

    def test_at_linear_between_grid_points(self):
        path = UnitGridPath.from_increments(np.array([[2.0], [0.0]]))
        np.testing.assert_allclose(path.at(np.array([0.5, 1.0, 1.5]))[:, 0],
                                   [1.0, 2.0, 2.0])

    def test_horizon_guard(self):
        path = UnitGridPath.from_increments(np.array([[1.0]]))
        with pytest.raises(HorizonExceededError):
            path.at(np.array([1.1]))


class TestScaledPath:
    def test_value_and_time_scaling(self):
        base = UnitGridPath.from_increments(np.array([[1.0], [3.0]]))
        scaled = ScaledPath(base, value_scale=-2.0, time_scale=4.0)
        # scaled.at(t) = -2 * base.at(t/4)
        np.testing.assert_allclose(scaled.at(np.array([4.0]))[:, 0], [-2.0])
        np.testing.assert_allclose(scaled.at(np.array([8.0]))[:, 0], [-8.0])
        assert scaled.horizon == 8.0


class TestPoissonQuantile:
    def test_matches_scipy_ppf_dual_route(self):
        for rate in (0.25, 1.0, 3.7, 40.0):
            table = PoissonQuantile(rate)
            u = np.linspace(1e-6, 1 - 1e-6, 101)
            ours = table.ppf(u)
            oracle = stats.poisson.ppf(u, rate)
            np.testing.assert_array_equal(ours, oracle.astype(np.int64))

    def test_unit_rate_known_values(self):
        table = PoissonQuantile(1.0)
        assert table.ppf(np.array([0.5]))[0] == 1
        assert table.ppf(np.array([float(ndtr(-3.0))]))[0] == 0

    def test_gaussian_push_forward_is_poisson(self):
        rate = 2.5
        table = PoissonQuantile(rate)
        g = RngStream(1, 901).generator().standard_normal(200_000)
        counts = table.ppf(ndtr(g))
        assert counts.mean() == pytest.approx(rate, abs=0.02)
        assert counts.var() == pytest.approx(rate, abs=0.05)


class TestPoissonEmbedding:
    def _btilde(self, n=64, seed=2):
        inc = RngStream(seed, 902).generator().standard_normal(n)
        return UnitGridPath.from_increments(inc)

    def _greeks(self):
        model = GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, dim=1)
        return reference_greeks(model, 3.0)

    def test_measurable_function_of_brownian(self):
        btilde = self._btilde()
        g = self._greeks()
        first = build_poisson_from_brownian(btilde, g, horizon=32)
        second = build_poisson_from_brownian(btilde, g, horizon=32)
        np.testing.assert_array_equal(first.jump_times, second.jump_times)

    def test_different_brownian_different_jumps(self):
        g = self._greeks()
        a = build_poisson_from_brownian(self._btilde(seed=2), g, horizon=32)
        b = build_poisson_from_brownian(self._btilde(seed=3), g, horizon=32)
        assert not np.array_equal(a.jump_times, b.jump_times)

    def test_jumps_sorted_within_horizon(self):
        g = self._greeks()
        counting = build_poisson_from_brownian(self._btilde(), g, horizon=32)
        jumps = counting.jump_times
        assert np.all(np.diff(jumps) >= 0)
        assert jumps.size == 0 or (jumps.min() >= 0 and jumps.max() <= 32)


class TestConstructiveWieners:
    def test_inverse_wiener_formula(self):
        btilde = UnitGridPath.from_increments(
            RngStream(4, 903).generator().standard_normal((16, 1)))
        model = GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, dim=1)
        g = reference_greeks(model, 3.0)
        wtilde = build_inverse_wiener(btilde, g)
        probe = np.array([0.0, 1.0, 2.5, 8.0])
        expected = -math.sqrt(g.mu) * btilde.at(probe / g.mu)
        np.testing.assert_allclose(np.atleast_2d(wtilde.at(probe)), expected,
                                   atol=1e-12)

    def test_timechange_wiener_formula(self):
        b = UnitGridPath.from_increments(
            RngStream(5, 904).generator().standard_normal((16, 2)))
        model = GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, dim=2)
        g = reference_greeks(model, 3.0)
        wstar = build_timechange_wiener(b, g)
        probe = np.array([0.0, 3.0, 7.5])
        expected = math.sqrt(g.lam) * b.at(probe / g.lam)
        np.testing.assert_allclose(wstar.at(probe), expected, atol=1e-12)

    def test_zero_brownian_gives_zero_wiener(self):
        btilde = UnitGridPath(np.zeros((9, 1)))
        model = GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, dim=1)
        g = reference_greeks(model, 3.0)
        wtilde = build_inverse_wiener(btilde, g)
        np.testing.assert_array_equal(
            np.atleast_2d(wtilde.at(np.array([0.0, 4.0, 8.0]))), np.zeros((3, 1)))


class TestAssembledW:
    def test_matches_independent_formula(self, gg2_model):
        g = reference_greeks(gg2_model, 3.0)
        t = 32.0
        _, bundle = build_bundle(gg2_model, g, t, "shared-innovations",
                                 _stream(6))
        probe = np.linspace(0.0, t, 40)
        ours = bundle.w.at(probe)
        # independent reformulation with numpy's pinv and fresh projections
        star = np.atleast_2d(bundle.wstar.at(probe))
        tilde = np.atleast_1d(bundle.wtilde.at(probe))
        circ = np.atleast_2d(bundle.wcirc.at(probe))
        core = (star @ g.v) / math.sqrt(g.lam) \
            - np.outer(tilde, g.alpha) * (g.mu / (g.lam * math.sqrt(g.gamma)))
        pinv = np.linalg.pinv(g.sigma)
        proj = np.eye(g.d) - pinv @ g.sigma
        expected = core @ pinv + circ @ ((proj + proj.T) / 2)
        np.testing.assert_allclose(ours, expected, atol=1e-10)

    def test_starts_at_zero(self, gg1_model):
        g = reference_greeks(gg1_model, 3.0)
        _, bundle = build_bundle(gg1_model, g, 16.0, "shared-innovations",
                                 _stream(7))
        np.testing.assert_allclose(bundle.w.at(np.array([0.0])),
                                   np.zeros((1, 1)), atol=1e-14)


class TestModes:
    def test_unsupported_mode_raises(self):
        mm1 = MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0)
        g = reference_greeks(mm1, 3.0)
        with pytest.raises(ModeUnsupportedError):
            build_bundle(mm1, g, 16.0, "shared-innovations", _stream(9))

    def test_unknown_mode_raises(self, gg1_model):
        g = reference_greeks(gg1_model, 3.0)
        with pytest.raises(ModeUnsupportedError):
            build_bundle(gg1_model, g, 16.0, "no-such-mode", _stream(10))

    def test_independent_mode_all_families(self):
        models = [GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, dim=1),
                  ParetoCycleModel(tail_index=3.5),
                  MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0),
                  CompoundJumpModel(dim=1)]
        for k, model in enumerate(models):
            g = reference_greeks(model, 3.0)
            path, bundle = build_bundle(model, g, 16.0, "independent",
                                        _stream(20 + k))
            assert path.horizon >= 16.0
            assert bundle.driver.mode == "independent"

    def test_reproducible_for_same_stream(self, gg1_model):
        g = reference_greeks(gg1_model, 3.0)
        path_a, bundle_a = build_bundle(gg1_model, g, 16.0,
                                        "shared-innovations", _stream(11))
        path_b, bundle_b = build_bundle(gg1_model, g, 16.0,
                                        "shared-innovations", _stream(11))
        np.testing.assert_array_equal(path_a.xi, path_b.xi)
        np.testing.assert_array_equal(bundle_a.btilde.values,
                                      bundle_b.btilde.values)


class TestEvaluationGrid:
    def test_contains_required_points(self, gg1_model):
        g = reference_greeks(gg1_model, 3.0)
        path, _ = build_bundle(gg1_model, g, 10.0, "independent", _stream(12))
        grid = evaluation_grid(path, 10.0, 0.25, lattices=(g.mu, g.gamma))
        assert grid[0] == 0.0 and grid[-1] == 10.0
        assert np.all(np.diff(grid) > 0)
        for mult in (g.mu, 2 * g.mu, g.gamma, 5 * g.gamma):
            if mult <= 10.0:
                assert np.min(np.abs(grid - mult)) == 0.0
        renewals = path.renewal_times[(path.renewal_times > 0)
                                      & (path.renewal_times <= 10.0)]
        for rt in renewals:
            assert np.min(np.abs(grid - rt)) == 0.0

    def test_grid_step_must_divide_the_unit(self, gg1_model):
        g = reference_greeks(gg1_model, 3.0)
        path, _ = build_bundle(gg1_model, g, 10.0, "independent", _stream(13))
        for bad in (0.3, 1.5, 0.0, -1.0):
            with pytest.raises(ValueError, match="1/grid_step"):
                evaluation_grid(path, 10.0, bad)
        thirds = evaluation_grid(path, 10.0, 1.0 / 3.0)
        assert set(np.arange(11.0)) <= set(thirds)

    def test_finer_step_cannot_raise_the_sup(self, gg1_model):
        g = reference_greeks(gg1_model, 3.0)
        path, bundle = build_bundle(gg1_model, g, 64.0, "shared-innovations",
                                    _stream(14))
        coarse = sup_deviation(path, bundle.w, g, 64.0)
        for step in (0.5, 0.25, 0.125):
            fine = sup_deviation(path, bundle.w, g, 64.0, step)
            assert fine == pytest.approx(coarse, rel=1e-12)
            assert evaluation_grid(path, 64.0, step).size \
                > evaluation_grid(path, 64.0, 1.0).size


class TestPhiDecomposition:
    def _decompose(self, model, mode, t=48.0, index=30, p=3.0):
        g = reference_greeks(model, p)
        path, bundle = build_bundle(model, g, t, mode, _stream(index))
        return phi_decomposition(path, bundle, t), g

    def test_identity_across_families_and_modes(self):
        cases = [
            (GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, beta=0.3,
                                kappa=0.1, dim=1), "shared-innovations"),
            (GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, beta=0.3,
                                kappa=0.1, dim=1), "independent"),
            (ParetoCycleModel(tail_index=3.5), "shared-innovations"),
            (MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0),
             "independent"),
            (CompoundJumpModel(dim=1), "independent"),
        ]
        for k, (model, mode) in enumerate(cases):
            dec, _ = self._decompose(model, mode, index=40 + k)
            assert dec.residual <= dec.tolerance

    def test_identity_multidimensional(self, gg2_model):
        dec, _ = self._decompose(gg2_model, "shared-innovations", index=55)
        assert dec.residual <= dec.tolerance
        assert dec.phi[0].shape == (dec.grid.size, 2)

    def test_degenerate_family_kills_noise_terms(self):
        # increment == duration: the passage-time residual, drift-correction,
        # embedding and time-change terms must vanish identically
        dec, _ = self._decompose(ParetoCycleModel(tail_index=3.5),
                                 "shared-innovations", index=60)
        sups = dec.sup_per_term()
        for q in (3, 5, 6, 7):
            assert sups[q - 1] <= 1e-10, f"term {q} should vanish"
        assert sups[1] > 0 or sups[3] > 0  # the lattice terms survive

    def test_term8_bounded_by_drift_lattice_gap(self, gg1_model):
        dec, g = self._decompose(gg1_model, "shared-innovations", index=61)
        bound = float(np.max(np.abs(g.beta))) * g.gamma
        assert float(np.max(np.abs(dec.phi[7]))) <= bound * (1 + 1e-12)

    def test_deviation_column_is_max_norm_gap(self, gg2_model):
        dec, g = self._decompose(gg2_model, "shared-innovations", index=62)
        recomputed = np.max(np.abs(
            dec.s_values - np.outer(dec.grid, g.kappa)
            - dec.w_values @ g.sigma), axis=1)
        np.testing.assert_array_equal(dec.deviation, recomputed)

    def test_sup_deviation_consistent_with_decomposition(self, gg1_model):
        g = reference_greeks(gg1_model, 3.0)
        t = 48.0
        path, bundle = build_bundle(gg1_model, g, t, "shared-innovations",
                                    _stream(63))
        dec = phi_decomposition(path, bundle, t)
        sup = sup_deviation(path, bundle.w, g, t)
        # both are the exact sup; the decomposition only adds points at
        # which the deviation is linear
        assert sup == pytest.approx(float(dec.deviation.max()), rel=1e-12)

    def test_corrupted_bundle_is_caught(self, gg1_model):
        g = reference_greeks(gg1_model, 3.0)
        path, bundle = build_bundle(gg1_model, g, 32.0, "shared-innovations",
                                    _stream(64))
        warped = ScaledPath(bundle.wtilde.base,
                            bundle.wtilde.value_scale * 1.5,
                            bundle.wtilde.time_scale)
        broken = dataclasses.replace(bundle, wtilde=warped)
        with pytest.raises(IdentityViolationError):
            phi_decomposition(path, broken, 32.0)

    def test_small_horizons_and_lattice_alignment(self, gg1_model):
        for k, t in enumerate((1.0, 2.0, 3.75)):
            dec, _ = self._decompose(gg1_model, "shared-innovations", t=t,
                                     index=70 + k)
            assert dec.residual <= dec.tolerance
            assert dec.grid[-1] == t


EXACT_CASES = [
    (GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, beta=np.array([0.4]),
                        kappa=np.array([0.25]), noise_cov=np.array([[0.9]]),
                        dim=1), "shared-innovations"),
    (ParetoCycleModel(tail_index=3.5), "shared-innovations"),
    (CompoundJumpModel(dim=2), "independent"),
    (MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0), "independent"),
]


FAMILY_PATHS = {
    "iid-sums": IidSumModel(xi_mean=np.array([0.2, -0.1]), dim=2),
    "gamma-gaussian": GammaGaussianModel(tau_shape=2.0, tau_scale=1.0,
                                         beta=0.4, kappa=0.25),
    "pareto-cycle": ParetoCycleModel(tail_index=3.5),
    "mm1-busy-cycle": MM1BusyCycleModel(),
    "compound-jump": CompoundJumpModel(jump_mean=np.array([0.3, -0.2]),
                                       dim=2),
}


class TestPathOnGrid:
    """``_path_on_grid`` against the path's own searchsorted evaluation."""

    @pytest.mark.parametrize("family", sorted(FAMILY_PATHS))
    def test_last_events_are_the_renewal_times(self, family):
        path = FAMILY_PATHS[family].sample_path(300, _stream(40))
        last = path.cycle_event_ptr[1:] - 1
        assert path.event_times[last].tobytes() \
            == path.renewal_times[1:].tobytes()

    @staticmethod
    def _check(path, t, lattices):
        right = evaluation_grid(path, t, 1.0, lattices=lattices)
        events = path.event_times[path.event_times <= t]
        on_event = np.searchsorted(right, events)
        s_right, m_right, s_left, m_left = _path_on_grid(path, right,
                                                         on_event)
        np.testing.assert_array_equal(s_right, path.evaluate(right))
        np.testing.assert_array_equal(m_right, path.renewal_counts(right))
        np.testing.assert_array_equal(s_left,
                                      path.evaluate(events, side="left"))
        np.testing.assert_array_equal(m_left,
                                      path.renewal_counts(events, side="left"))

    @pytest.mark.parametrize("family", sorted(FAMILY_PATHS))
    def test_matches_evaluate_and_renewal_counts(self, family):
        path = FAMILY_PATHS[family].sample_path(300, _stream(41))
        for t in (0.5, 37.25, 0.9 * path.horizon, path.horizon):
            self._check(path, t, (1.7, 0.3))

    def test_duplicate_event_times(self):
        # a cycle too short to move the clock repeats its renewal time
        path = single_event_path(np.array([1.0, 1e-20, 0.5, 2.0]),
                                 np.array([1.0, 2.0, -4.0, 8.0]),
                                 PIECEWISE_CONSTANT)
        assert path.event_times[0] == path.event_times[1]
        for t in (1.0, 1.5, 3.5):
            self._check(path, t, ())


def _gap(path, w, g, u, s_u) -> np.ndarray:
    """Max-norm of S - kappa*u - sigma*W at times u, given the S values."""
    return np.max(np.abs(s_u - np.outer(u, g.kappa)
                         - np.atleast_2d(w.at(u)) @ g.sigma), axis=1)


class TestExactSup:
    """Breakpoints plus left limits give the exact sup over [0, t]: no probe
    of the continuum, dense or just beside a jump, reads higher."""

    @pytest.fixture(params=[(c, t) for c in range(len(EXACT_CASES))
                            for t in (37.5, 256.0)],
                    ids=lambda p: f"{EXACT_CASES[p[0]][0].family}-t{p[1]:g}")
    def case(self, request):
        c, t = request.param
        model, mode = EXACT_CASES[c]
        g = reference_greeks(model, 3.0)
        path, bundle = build_bundle(model, g, t, mode, _stream(80 + c))
        return g, path, bundle, t

    def test_sup_deviation_is_the_sup(self, case):
        g, path, bundle, t = case
        sup = sup_deviation(path, bundle.w, g, t)
        events = path.event_times[path.event_times <= t]
        probes = np.concatenate([np.arange(64 * t + 1) / 64, events - 1e-9,
                                 np.minimum(events + 1e-9, t)])
        reference = _gap(path, bundle.w, g, probes, path.evaluate(probes))
        assert np.all(reference <= sup * (1 + 1e-12))
        assert sup == pytest.approx(float(reference.max()), rel=1e-9)

    def test_term_sups_dominate_left_probes(self, case):
        g, path, bundle, t = case
        dec = phi_decomposition(path, bundle, t)
        steps = g.gamma * np.arange(1.0, math.floor(t / g.gamma) + 1.0)
        jumps = np.unique(np.concatenate([
            path.event_times[path.event_times <= t], steps[steps <= t]]))
        probes = jumps - 1e-9
        levels = np.floor(probes / g.gamma).astype(np.int64) + 1
        values = _phi_terms(path, bundle, probes, path.evaluate(probes),
                            path.renewal_counts(probes), levels,
                            bundle.wtilde.at(probes),
                            bundle.wstar.at(probes / g.gamma))
        sups = dec.sup_per_term()
        for q in range(8):
            assert float(np.max(np.abs(values[q]))) \
                <= sups[q] * (1 + 1e-12) + 1e-12, f"phi{q + 1}"
        assert dec.sup_deviation() == pytest.approx(
            sup_deviation(path, bundle.w, g, t), rel=1e-12)

    def test_left_rows_telescope(self, case):
        g, path, bundle, t = case
        dec = phi_decomposition(path, bundle, t)
        left = np.flatnonzero(dec.left)
        assert left.size and not dec.left[0] and not dec.left[-1]
        # each left row sits just before the right row at the same time
        assert np.all(dec.grid[left + 1] == dec.grid[left])
        assert not np.any(dec.left[left + 1])
        np.testing.assert_array_equal(
            dec.s_values[left], path.evaluate(dec.grid[left], side="left"))
        target = dec.s_values - np.outer(dec.grid, g.kappa) \
            - dec.w_values @ g.sigma
        residual = np.abs(sum(dec.phi) - target)[left]
        assert float(residual.max()) <= dec.tolerance

    def test_pareto_quarter_grid_reads_low(self):
        # a fixed seed on which the quarter-unit grid alone misses the sup:
        # it is attained at a left limit S(e-), just before a jump
        model = ParetoCycleModel(tail_index=3.5)
        g = reference_greeks(model, 3.0)
        t = 256.0
        path, bundle = build_bundle(model, g, t, "shared-innovations", _stream(90))
        grid = evaluation_grid(path, t, 0.25, lattices=(g.mu,))
        grid_sup = _gap(path, bundle.w, g, grid, path.evaluate(grid)).max()
        keep = path.event_times <= t
        before = np.vstack([np.zeros((1, 1)), path.event_values[:-1]])[keep]
        left_sup = _gap(path, bundle.w, g, path.event_times[keep],
                        before).max()
        assert left_sup > grid_sup + 0.1
        for step in (1.0, 0.25):
            assert sup_deviation(path, bundle.w, g, t, step) == left_sup


class TestBundle:
    def test_horizon_covers_and_first_passage(self, gg1_model):
        g = reference_greeks(gg1_model, 3.0)
        t = 24.0
        path, bundle = build_bundle(gg1_model, g, t, "shared-innovations",
                                    _stream(80))
        assert path.horizon >= t
        passage = bundle.first_passage(t)
        level = math.ceil(t / g.gamma)
        jumps = bundle.n_path.jump_times
        # count at the passage time reaches the level, and not before
        assert np.searchsorted(jumps, passage, side="right") >= level
        assert np.searchsorted(jumps, passage - 1e-9, side="right") < level

    def test_horizon_cycles_scales_linearly(self):
        small = horizon_cycles_for(100.0, 2.0)
        large = horizon_cycles_for(10_000.0, 2.0)
        assert large > 10 * small
        assert small > 50


class TestDriveGaussians:
    def test_driver_shapes(self, gg2_model):
        path, driver = drive_gaussians(gg2_model, 64, "shared-innovations",
                                       _stream(90))
        assert driver.unit_increments_b.shape == (64, 2)
        assert driver.unit_increments_btilde.shape == (64,)
        assert path.n_cycles == 64

    def test_shared_durations_follow_gamma_quantile(self, gg1_model):
        path, driver = drive_gaussians(gg1_model, 512, "shared-innovations",
                                       _stream(91))
        expected = gg1_model.tau_from_gaussian(driver.unit_increments_btilde)
        np.testing.assert_array_equal(path.tau, expected)
