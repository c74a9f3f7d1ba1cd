"""Coupled construction: Poisson embedding, Wiener assembly, the eight terms."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from regenlab import coupling
from regenlab.cli import main
from regenlab.config import parse_config
from regenlab.harness import replication_stream
from regenlab.coupling import (AssembledW, CouplingBundle, GaussianDriver,
                               IdentityViolationError,
                               ScaledPath, UnitGridPath,
                               build_bundle, build_inverse_wiener,
                               build_poisson_from_brownian,
                               _path_on_grid, _phi_terms,
                               build_timechange_wiener,
                               evaluation_grid,
                               horizon_cycles_for, phi_decomposition,
                               poisson_jump_counts, sup_deviation, sup_inputs)
from regenlab.models import (CompoundJumpModel, GammaGaussianModel,
                             IidSumModel, MM1BusyCycleModel,
                             ModeUnsupportedError, ParetoCycleModel,
                             reference_greeks)
from regenlab.models import single_event_path
from regenlab.paths import PIECEWISE_CONSTANT, HorizonExceededError
from regenlab.rng import RngStream


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _stream(index=0, root=0):
    return RngStream(root, 900 + index)


def _one_sup_inputs(model, greeks, t, mode, rng):
    """sup_inputs of one replication: a list of one stream."""
    (inputs,) = sup_inputs(model, greeks, t, mode, [rng])
    return inputs


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
        # the increments whose normal CDF spans [1e-6, 1 - 1e-6]
        g = np.linspace(-4.75, 4.75, 101)
        for rate in (0.25, 1.0, 3.7, 40.0):
            ours = poisson_jump_counts(g, rate)
            oracle = stats.poisson.ppf(ndtr(g), rate)
            np.testing.assert_array_equal(ours, oracle.astype(np.int64))

    def test_unit_rate_known_values(self):
        assert poisson_jump_counts(np.array([0.0]), 1.0)[0] == 1
        assert poisson_jump_counts(np.array([-3.0]), 1.0)[0] == 0

    def test_gaussian_push_forward_is_poisson(self):
        rate = 2.5
        g = RngStream(1, 901).generator().standard_normal(200_000)
        counts = poisson_jump_counts(g, rate)
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

    def test_one_dimensional_products_keep_the_matmul_bits(self, gg1_model):
        # at d = 1 the products are scalar multiplies: every bit, the sign of
        # a zero included, must be the matmul formula's
        ws = []
        for model in (gg1_model, ParetoCycleModel(tail_index=3.5)):
            g = reference_greeks(model, 3.0)
            ws.append(build_bundle(model, g, 32.0, "shared-innovations",
                                   _stream(8))[1].w)
        # beta < kappa and a -0.0 driver at the origin: the scalar products
        # give W(0) = -0.0, where the matmuls give +0.0
        g = reference_greeks(GammaGaussianModel(
            tau_shape=2.0, tau_scale=1.0, beta=[0.1], kappa=[0.25],
            noise_cov=[[0.9]], dim=1), 3.0)
        ws.append(coupling.assemble_W(
            build_timechange_wiener(UnitGridPath([[-0.0], [-0.0], [0.5]]), g),
            build_inverse_wiener(UnitGridPath([0.0, 0.0, 0.3]), g), None, g))
        for w in ws:
            g = w.greeks
            probe = np.linspace(0.0, 4.0, 17)
            star = np.atleast_2d(w.wstar.at(probe / g.gamma))
            tilde = np.atleast_1d(w.wtilde.at(probe))
            core = (star @ g.v) / math.sqrt(g.lam) - np.outer(
                tilde, g.alpha) * (g.mu / (g.lam * math.sqrt(g.gamma)))
            expected = core @ g.sigma_pinv
            if w.wcirc is not None:
                expected += np.atleast_2d(w.wcirc.at(probe)) @ g.null_projector
            assert w.at(probe).tobytes() == expected.tobytes()
            assert w.at(0.0).tobytes() == expected[0].tobytes()

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
        grid = evaluation_grid(path, 10.0, lattices=(g.mu, g.gamma))
        assert grid[0] == 0.0 and grid[-1] == 10.0
        assert np.all(np.diff(grid) > 0)
        for mult in (g.mu, 2 * g.mu, g.gamma, 5 * g.gamma):
            if mult <= 10.0:
                assert np.min(np.abs(grid - mult)) == 0.0
        renewals = path.renewal_times[(path.renewal_times > 0)
                                      & (path.renewal_times <= 10.0)]
        for rt in renewals:
            assert np.min(np.abs(grid - rt)) == 0.0

    def test_grid_step_is_ignored(self, gg1_model):
        # the points are the kinks whatever the step: the same sup and the
        # same decomposition rows
        g = reference_greeks(gg1_model, 3.0)
        path, bundle = build_bundle(gg1_model, g, 64.0, "shared-innovations",
                                    _stream(14))
        sup = sup_deviation(path, bundle.w, g, 64.0)
        rows = phi_decomposition(path, bundle, 64.0).grid
        for step in (0.3, 0.5, 1.5, 0.0, -1.0):
            assert sup_deviation(path, bundle.w, g, 64.0, step) == sup
            np.testing.assert_array_equal(
                phi_decomposition(path, bundle, 64.0, step).grid, rows)


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
        g = reference_greeks(gg2_model, 3.0)
        path, bundle = build_bundle(gg2_model, g, 64.0, "shared-innovations",
                                    _stream(90))
        k = bundle.horizon_cycles
        assert bundle.driver.unit_increments_b.shape == (k, 2)
        assert bundle.driver.unit_increments_btilde.shape == (k,)
        assert path.n_cycles == k

    def test_shared_durations_follow_gamma_quantile(self, gg1_model):
        g = reference_greeks(gg1_model, 3.0)
        path, bundle = build_bundle(gg1_model, g, 512.0,
                                    "shared-innovations", _stream(91))
        expected = gg1_model.tau_from_gaussian(
            bundle.driver.unit_increments_btilde)
        np.testing.assert_array_equal(path.tau, expected)


def _gamma_gaussian(d):
    """A d-dimensional gamma-gaussian model with correlated noise."""
    cov = np.eye(d) + 0.3 * (np.ones((d, d)) - np.eye(d))
    return GammaGaussianModel(tau_shape=2.0, tau_scale=1.0,
                              beta=np.linspace(0.3, -0.2, d),
                              kappa=np.linspace(0.1, 0.2, d),
                              noise_cov=cov, dim=d)


SUP_CASES = [
    *[(_gamma_gaussian(d), mode) for d in (1, 2, 3)
      for mode in ("shared-innovations", "independent")],
    (ParetoCycleModel(tail_index=3.5), "shared-innovations"),
    (MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0), "independent"),
    (CompoundJumpModel(dim=2), "independent"),
]


def _sups(model, mode, t, index):
    """The sup of one replication through build_bundle and sup_inputs, and
    the path sup_inputs built."""
    g = reference_greeks(model, 3.0)
    path, bundle = build_bundle(model, g, t, mode, _stream(index))
    full = sup_deviation(path, bundle.w, g, t)
    short_path, w = _one_sup_inputs(model, g, t, mode, _stream(index))
    return full, sup_deviation(short_path, w, g, t), short_path


class TestSupInputs:
    """sup_inputs builds only what the sup reads, bit for bit."""

    @pytest.mark.parametrize("t", [37.5, 1024.0, 8192.0])
    @pytest.mark.parametrize("case", range(len(SUP_CASES)),
                             ids=[f"{m.family}-d{m.d}-{mode}"
                                  for m, mode in SUP_CASES])
    def test_sup_equals_the_full_bundle_sup(self, case, t):
        model, mode = SUP_CASES[case]
        for rep in range(3):
            full, short, path = _sups(model, mode, t, 200 + rep)
            assert short == full
            k = horizon_cycles_for(t, reference_greeks(model, 3.0).mu)
            if mode == "independent":
                assert path.n_cycles == k
            elif t > 100:
                assert path.n_cycles < k

    @pytest.mark.parametrize("t", [37.5, 1024.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_one_cycle_blocks(self, monkeypatch, d, t):
        # blocks of one cycle: the extension loop runs once per cycle
        calls = []

        def one_cycle(span, greeks):
            calls.append(span)
            return 1

        monkeypatch.setattr(coupling, "_cycles_to_cover", one_cycle)
        for rep in range(3):
            full, short, path = _sups(_gamma_gaussian(d),
                                      "shared-innovations", t, 210 + rep)
            assert short == full
            # the path ends with the first cycle whose renewal reaches t
            assert path.renewal_times[-2] < t <= path.horizon
        assert len(calls) > t / 4


GROUP_CASES = {
    "erlang": GammaGaussianModel(tau_shape=2.0, tau_scale=1.0),
    "scipy": GammaGaussianModel(tau_shape=2.5, tau_scale=1.0),
    "pareto": ParetoCycleModel(tail_index=3.5),
}


class TestGroupedDurations:
    """A group's durations are quantiled together, bit for bit."""

    @pytest.mark.parametrize("case", GROUP_CASES)
    def test_a_chunk_keeps_every_bit(self, case):
        model, t = GROUP_CASES[case], 1024.0
        g = reference_greeks(model, 3.0)
        k = horizon_cycles_for(t, g.mu)
        drivers = [coupling._draw_drivers(
            model, k, "shared-innovations",
            replication_stream(3, "tail", 0, 50, rep)).unit_increments_btilde
            for rep in range(50)]
        grouped = coupling._durations_past(model, drivers, g, t)
        first = coupling._cycles_to_cover(t, g)
        extended = 0
        for g_dur, tau in zip(drivers, grouped):
            (alone,) = coupling._durations_past(model, [g_dur], g, t)
            assert tau.tobytes() == alone.tobytes()
            whole = model.tau_from_gaussian(g_dur)
            assert tau.tobytes() == whole[:tau.size].tobytes()
            assert tau.sum() >= t or tau.size == k
            extended += tau.size > first
        assert extended >= 1


class TestSupInputsFailures:
    """sup_inputs fails exactly when build_bundle fails, with its message."""

    @staticmethod
    def _same_failure(model, mode, t=64.0):
        g = reference_greeks(model, 3.0)
        with pytest.raises(HorizonExceededError) as full:
            build_bundle(model, g, t, mode, _stream(220))
        with pytest.raises(HorizonExceededError) as short:
            _one_sup_inputs(model, g, t, mode, _stream(220))
        assert str(short.value) == str(full.value)
        return str(full.value)

    @pytest.mark.parametrize("mode", ["shared-innovations", "independent"])
    def test_too_few_cycles(self, monkeypatch, mode):
        monkeypatch.setattr(coupling, "horizon_cycles_for",
                            lambda t, mu: 10)
        message = self._same_failure(_gamma_gaussian(2), mode)
        assert message.startswith("10 cycles reach only ")

    @pytest.mark.parametrize("mode", ["shared-innovations", "independent"])
    def test_too_few_jumps(self, monkeypatch, mode):
        # shifted driver increments: a tenth of the jumps the units need
        monkeypatch.setattr(coupling, "ndtr", lambda x: ndtr(x - 2.5))
        message = self._same_failure(_gamma_gaussian(2), mode)
        assert message.startswith("counting process has ")
        assert "needs 65 to cover t=64" in message

    @pytest.mark.parametrize("patch", ["cycles", "jumps"])
    def test_tail_run_exits_3_at_its_stream_address(self, tmp_path,
                                                    monkeypatch, capsys,
                                                    patch):
        if patch == "cycles":
            monkeypatch.setattr(coupling, "horizon_cycles_for",
                                lambda t, mu: 10)
        else:
            monkeypatch.setattr(coupling, "ndtr", lambda x: ndtr(x - 2.5))
        cfg = tmp_path / "tail.cfg"
        cfg.write_text("experiment.t_grid = 64.0\n"
                       "experiment.replications = 50\n"
                       "coupling.mode = shared-innovations\n"
                       "rng.root_seed = 5\n")
        out = tmp_path / "out"
        assert main(["tail", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "internal error: HorizonExceededError: replication root_seed=5 "
            "kind=tail t_index=0 rep=0: ")
        assert not out.exists()

    def test_tail_run_names_a_short_replication_inside_its_group(
            self, tmp_path, monkeypatch, capsys):
        # replication 7's durations shrink so that its K cycles fall short;
        # the 50 replications of the chunk form one group
        short = replication_stream(5, "tail", 0, 50, 7).stream_index
        real_draw, real_past = coupling._draw_drivers, coupling._durations_past
        groups = []

        def drawn(model, k, mode, rng):
            driver = real_draw(model, k, mode, rng)
            if rng.stream_index != short:
                return driver
            return dataclasses.replace(
                driver,
                unit_increments_btilde=driver.unit_increments_btilde - 6.0)

        def grouped(model, g_durs, greeks, t):
            groups.append(len(g_durs))
            return real_past(model, g_durs, greeks, t)

        monkeypatch.setattr(coupling, "_draw_drivers", drawn)
        monkeypatch.setattr(coupling, "_durations_past", grouped)
        cfg = tmp_path / "tail.cfg"
        cfg.write_text("experiment.t_grid = 64.0\n"
                       "experiment.replications = 50\n"
                       "coupling.mode = shared-innovations\n"
                       "rng.root_seed = 5\n")
        out = tmp_path / "out"
        assert main(["tail", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        k = horizon_cycles_for(64.0, 2.0)
        assert err.startswith(
            "internal error: HorizonExceededError: replication root_seed=5 "
            f"kind=tail t_index=0 rep=7: {k} cycles reach only ")
        assert groups == [50]
        assert not out.exists()

    @pytest.fixture
    def counted_units(self, monkeypatch):
        """The unit counts ``_unit_jump_counts`` is called with."""
        units = []
        real = coupling._unit_jump_counts

        def counted(btilde, rate, n_units):
            units.append(n_units)
            return real(btilde, rate, n_units)

        monkeypatch.setattr(coupling, "_unit_jump_counts", counted)
        return units

    def test_short_prefix_widens_to_all_units(self, monkeypatch,
                                              counted_units):
        # about half the jumps per unit: the prefix falls short, all k units
        # hold enough, and the sup is the full bundle's
        monkeypatch.setattr(coupling, "ndtr", lambda x: ndtr(x - 0.8))
        full, short, _ = _sups(_gamma_gaussian(2), "shared-innovations",
                               64.0, 221)
        assert short == full
        k = horizon_cycles_for(64.0, 2.0)
        assert counted_units[-1] == k and counted_units[-2] < k

    def test_shortfall_reports_the_count_over_all_units(self, monkeypatch,
                                                        counted_units):
        monkeypatch.setattr(coupling, "ndtr", lambda x: ndtr(x - 2.5))
        message = self._same_failure(_gamma_gaussian(2), "shared-innovations")
        assert message.startswith("counting process has ")
        k = horizon_cycles_for(64.0, 2.0)
        assert counted_units[-1] == k and counted_units[-2] < k

    def test_full_prefix_reads_no_further(self, counted_units):
        g = reference_greeks(_gamma_gaussian(2), 3.0)
        _one_sup_inputs(_gamma_gaussian(2), g, 1024.0, "shared-innovations",
                        _stream(222))
        assert len(counted_units) == 1
        assert counted_units[0] < horizon_cycles_for(1024.0, g.mu)


def _sorted_grid(path, t, lattices, step=None):
    """The kinks as one sorted unique array, every lattice included, and
    the multiples of ``step`` below t when given: a reference grid with
    points that are no kinks, the integers at ``step=1.0``."""
    pieces = [np.array([0.0, t]), path.event_times[path.event_times <= t]]
    pieces += [s * np.arange(0.0, math.floor(t / s) + 2.0) for s in lattices]
    if step is not None:
        n = round(1.0 / step)
        pieces.append(np.arange(math.ceil(t * n)) / n)
    grid = np.unique(np.concatenate(pieces))
    return grid[(grid >= 0.0) & (grid <= t)]


def _sorted_grid_sup(path, w, g, t, step=None):
    """The sup over the sorted grid, with W evaluated a second time at the
    events for the left limits: the reference sup_deviation must match bit
    for bit."""
    grid = _sorted_grid(path, t, (g.mu,), step)
    dev = path.evaluate(grid) - np.outer(grid, g.kappa) \
        - np.atleast_2d(w.at(grid)) @ g.sigma
    sup = float(np.max(np.abs(dev)))
    events = path.event_times[path.event_times <= t]
    if path.interpolation == PIECEWISE_CONSTANT and events.size:
        dev = path.evaluate(events, side="left") - np.outer(events, g.kappa) \
            - np.atleast_2d(w.at(events)) @ g.sigma
        sup = max(sup, float(np.max(np.abs(dev))))
    return sup


# mu = 2.5: the integers are no kinks of the deviation, and only the
# multiples of mu join the events
NON_INTEGER_MU = (GammaGaussianModel(tau_shape=2.5, tau_scale=1.0,
                                     beta=[0.4], kappa=[0.25],
                                     noise_cov=[[0.9]], dim=1),
                  "shared-innovations")

# one case per family with a sup and a decomposition
FAMILY_CASES = [
    (GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, dim=1),
     "shared-innovations"),
    (ParetoCycleModel(tail_index=3.5), "shared-innovations"),
    (MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0), "independent"),
    (CompoundJumpModel(dim=1), "independent"),
]

BREAKPOINT_CASES = SUP_CASES + [
    NON_INTEGER_MU,
    # a rank-1 sigma: the noise and beta - kappa both lie along (1, 1), so
    # the projector onto (1, -1) is nonzero and W keeps its W_circ term
    (GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, beta=[0.3, 0.3],
                        kappa=[0.1, 0.1], noise_cov=[[1.0, 1.0], [1.0, 1.0]],
                        dim=2), "shared-innovations"),
]


class TestSupBreakpoints:
    """The sup over the unsorted kinks is the sorted-grid sup."""

    @pytest.mark.parametrize("step", [1.0, 0.5])
    @pytest.mark.parametrize("t", [37.5, 1024.0])
    @pytest.mark.parametrize("case", range(len(BREAKPOINT_CASES)),
                             ids=[f"{m.family}-d{m.d}-{mode}"
                                  for m, mode in BREAKPOINT_CASES])
    def test_sup_equals_the_sorted_grid_sup(self, case, t, step):
        # the reference adds a uniform grid of ``step``, no kinks
        model, mode = BREAKPOINT_CASES[case]
        g = reference_greeks(model, 3.0)
        for rep in range(3):
            path, bundle = build_bundle(model, g, t, mode, _stream(230 + rep))
            full = sup_deviation(path, bundle.w, g, t)
            assert full == _sorted_grid_sup(path, bundle.w, g, t, step)
            short_path, w = _one_sup_inputs(model, g, t, mode,
                                            _stream(230 + rep))
            short = sup_deviation(short_path, w, g, t)
            assert short == _sorted_grid_sup(short_path, w, g, t, step)
            if np.any(g.null_projector) and np.any(g.sigma):
                # the full W holds sigma @ P0 @ W_circ, zero but for its
                # rounding; sup_inputs builds W without it
                assert short == pytest.approx(full, rel=1e-14)
            else:
                assert short == full

    def test_non_integer_mu_at_a_long_horizon(self):
        model, mode = NON_INTEGER_MU
        g = reference_greeks(model, 3.0)
        assert not float(g.mu).is_integer()
        t = 8192.0
        for rep in range(3):
            path, bundle = build_bundle(model, g, t, mode, _stream(235 + rep))
            expected = _sorted_grid_sup(path, bundle.w, g, t, 1.0)
            assert sup_deviation(path, bundle.w, g, t) == expected
            short_path, w = _one_sup_inputs(model, g, t, mode,
                                            _stream(235 + rep))
            assert sup_deviation(short_path, w, g, t) == expected

    @pytest.mark.parametrize("t", [37.5, 64.0])
    @pytest.mark.parametrize("case", range(len(BREAKPOINT_CASES)),
                             ids=[f"{m.family}-d{m.d}-{mode}"
                                  for m, mode in BREAKPOINT_CASES])
    def test_sup_reads_only_the_kinks(self, monkeypatch, case, t):
        # 0, t, the events and the multiples of mu, for every sigma
        model, mode = BREAKPOINT_CASES[case]
        g = reference_greeks(model, 3.0)
        path, w = _one_sup_inputs(model, g, t, mode, _stream(245))
        read = []
        real = AssembledW.at

        def recorded(self, u):
            read.append(np.array(u, dtype=float))
            return real(self, u)

        monkeypatch.setattr(AssembledW, "at", recorded)
        sup_deviation(path, w, g, t)
        assert len(read) == 1
        np.testing.assert_array_equal(np.unique(read[0]),
                                      _sorted_grid(path, t, (g.mu,)))

    @pytest.mark.parametrize("step", [1.0, 0.5, 1.0 / 3.0])
    @pytest.mark.parametrize("case", range(len(BREAKPOINT_CASES)),
                             ids=[f"{m.family}-d{m.d}-{mode}"
                                  for m, mode in BREAKPOINT_CASES])
    def test_evaluation_grid_is_the_sorted_kinks(self, case, step):
        # whatever the ignored grid step; an integer mu or gamma is a
        # lattice like any other
        model, mode = BREAKPOINT_CASES[case]
        g = reference_greeks(model, 3.0)
        for t in (37.5, 64.0):
            path, _ = build_bundle(model, g, t, mode, _stream(240))
            lattices = (g.mu, g.gamma)
            np.testing.assert_array_equal(
                evaluation_grid(path, t, step, lattices),
                _sorted_grid(path, t, lattices))

    @pytest.mark.parametrize("case", range(len(BREAKPOINT_CASES)),
                             ids=[f"{m.family}-d{m.d}-{mode}"
                                  for m, mode in BREAKPOINT_CASES])
    def test_sup_inputs_never_draws_child3(self, monkeypatch, case):
        # W_circ enters no deviation; only build_bundle draws it
        model, mode = BREAKPOINT_CASES[case]
        g = reference_greeks(model, 3.0)
        wcirc_stream = _stream(250).child(3)
        children = []
        real = RngStream.child

        def recorded(self, offset):
            children.append(real(self, offset))
            return children[-1]

        monkeypatch.setattr(RngStream, "child", recorded)
        _, w = _one_sup_inputs(model, g, 37.5, mode, _stream(250))
        assert wcirc_stream not in children and w.wcirc is None
        children.clear()
        build_bundle(model, g, 37.5, mode, _stream(250))
        assert wcirc_stream in children

    @pytest.mark.parametrize("case", range(len(FAMILY_CASES)),
                             ids=[m.family for m, _ in FAMILY_CASES])
    def test_integers_raise_no_sup(self, monkeypatch, case):
        # the eight term sups and the deviation sup on the kinks keep their
        # bits when the integers join the points
        model, mode = FAMILY_CASES[case]
        g = reference_greeks(model, 3.0)
        t = 1024.0
        for rep in range(10):
            path, bundle = build_bundle(model, g, t, mode, _stream(260 + rep))
            kinks = phi_decomposition(path, bundle, t)
            with monkeypatch.context() as patch:
                patch.setattr(coupling, "evaluation_grid",
                              lambda path, t, grid_step=1.0, lattices=():
                              _sorted_grid(path, t, lattices, 1.0))
                integers = phi_decomposition(path, bundle, t)
            assert np.isin(np.arange(t), integers.grid).all()
            assert integers.sup_per_term().tobytes() \
                == kinks.sup_per_term().tobytes()
            assert integers.sup_deviation() == kinks.sup_deviation()
            assert sup_deviation(path, bundle.w, g, t) \
                == _sorted_grid_sup(path, bundle.w, g, t, 1.0)

    @pytest.mark.parametrize("case", [i for i, (m, _) in enumerate(SUP_CASES)
                                      if m.d > 1],
                             ids=[f"{m.family}-d{m.d}-{mode}"
                                  for m, mode in SUP_CASES if m.d > 1])
    def test_full_rank_projector_is_exactly_zero(self, case):
        # the rank is decided on the eigenvalues, so no rounding residue of
        # I - pinv(sigma) sigma gives W_circ a weight
        model, _ = SUP_CASES[case]
        g = reference_greeks(model, 3.0)
        assert np.linalg.matrix_rank(g.sigma) == g.d
        assert not np.any(g.null_projector)

    def test_rank_deficient_projector(self):
        model, _ = BREAKPOINT_CASES[-1]
        g = reference_greeks(model, 3.0)
        assert np.linalg.matrix_rank(g.sigma) == 1
        np.testing.assert_allclose(g.null_projector,
                                   [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("name, kind", [
        ("rate_gamma", "rate"), ("rate_independent_null", "rate"),
        ("tail_gamma", "tail")])
    def test_shipped_sup_configs_build_no_wcirc(self, name, kind):
        cfg = parse_config(CONFIGS / f"{name}.cfg", kind)
        model = cfg.build_model()
        g = reference_greeks(model, cfg.p)
        assert not np.any(g.null_projector)
        _, w = _one_sup_inputs(model, g, 37.5, cfg.mode, _stream(251))
        assert w.wcirc is None
