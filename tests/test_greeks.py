"""Derived cycle parameters: hand-computed values, identities, linear algebra."""
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regenlab.config import parse_config, parse_config_text
from regenlab.greeks import (DegenerateTauError, Greeks, IndefiniteError,
                             InsufficientDataError, check_greek_identities,
                             estimate_greeks, matrix_sqrt_psd)
from regenlab.models import CycleBatch, reference_greeks

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

IDENTITY_TOL = 1e-12


class TestFromMoments:
    def test_two_point_duration_hand_values(self):
        # tau uniform on {1, 3}; xi = tau + Z with Z independent, Var Z = 4:
        # mu=2, Var tau=1, mean xi=2, Var xi=5, cov=1.
        g = Greeks.from_moments(2.0, [2.0], 1.0, [[5.0]], [1.0])
        assert g.mu == 2.0
        assert g.gamma == 0.5
        assert g.lam == 4.0
        np.testing.assert_allclose(g.kappa, [1.0])
        np.testing.assert_allclose(g.beta, [1.0])
        np.testing.assert_allclose(g.alpha, [0.0])
        np.testing.assert_allclose(g.v2, [[4.0]])
        np.testing.assert_allclose(g.sigma2, [[2.0]])
        np.testing.assert_allclose(g.sigma, [[np.sqrt(2.0)]])
        np.testing.assert_allclose(g.v, [[2.0]])

    def test_gamma_lambda_definitions(self):
        g = Greeks.from_moments(3.0, [1.0], 2.0, [[4.0]], [0.5])
        assert g.gamma == pytest.approx(2.0 / 3.0)
        assert g.lam == pytest.approx(9.0 / 2.0)
        assert g.gamma * g.lam == pytest.approx(g.mu)

    def test_rejects_degenerate_duration(self):
        with pytest.raises(DegenerateTauError):
            Greeks.from_moments(2.0, [1.0], 0.0, [[1.0]], [0.0])

    def test_identities_exact_multidim(self):
        var_xi = np.array([[2.0, 0.4, -0.1],
                           [0.4, 1.5, 0.2],
                           [-0.1, 0.2, 0.9]])
        g = Greeks.from_moments(1.7, [0.3, -0.2, 0.9], 0.6, var_xi,
                                [0.5, -0.3, 0.1])
        residuals = check_greek_identities(g)
        assert max(residuals.values()) <= IDENTITY_TOL

    def test_identity_check_flags_corruption(self):
        g = Greeks.from_moments(2.0, [2.0], 1.0, [[5.0]], [1.0])
        bad = dataclasses.replace(g, sigma2=np.array([[3.0]]))
        residuals = check_greek_identities(bad)
        assert residuals["decomposition"] > 1e-3
        assert residuals["sqrt_sigma"] > 1e-3


def _cycles(tau, xi):
    return CycleBatch(tau=tau, xi=xi, eta=np.zeros(len(tau)))


class TestEstimateGreeks:
    def test_exact_on_two_observed_cycles(self):
        # (1/n) sample moments of tau=[1,3], xi=[1,3]: all covariances equal 1.
        g = estimate_greeks(_cycles([1.0, 3.0], [1.0, 3.0]))
        assert g.mu == 2.0
        assert g.var_tau == 1.0
        np.testing.assert_allclose(g.beta, [1.0])
        np.testing.assert_allclose(g.v2, [[0.0]], atol=1e-15)
        np.testing.assert_allclose(g.alpha, [0.0], atol=1e-15)

    def test_degenerate_sample_raises(self):
        with pytest.raises(DegenerateTauError):
            estimate_greeks(_cycles([2.0, 2.0], [1.0, 0.0]))

    def test_single_cycle_raises(self):
        with pytest.raises(InsufficientDataError):
            estimate_greeks(_cycles([2.0], [1.0]))

    def test_estimated_identities_hold(self):
        rng = np.random.default_rng(42)
        tau = rng.gamma(2.0, 1.0, size=5000)
        xi = np.column_stack([0.4 * tau + rng.standard_normal(5000),
                              -0.2 * tau + rng.standard_normal(5000)])
        g = estimate_greeks(_cycles(tau, xi))
        assert max(check_greek_identities(g).values()) <= 1e-10 * (1 + g.mu)


def _psd_of_rank(seed, n, rank):
    """A random n x n PSD matrix of the given rank, and an orthonormal basis
    of its null space."""
    b = np.random.default_rng(seed).standard_normal((n, rank))
    return b @ b.T, np.linalg.svd(b)[0][:, rank:]


class TestLinearAlgebra:
    @given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 1000))
    def test_matrix_sqrt_squares_back_and_keeps_the_rank(self, n, rank, seed):
        a, null = _psd_of_rank(seed, n, min(rank, n))
        scale = max(1.0, float(np.abs(a).max()))
        root = matrix_sqrt_psd(a)
        np.testing.assert_array_equal(root, root.T)
        np.testing.assert_allclose(root @ root, a, atol=1e-10 * scale)
        # the null eigenvalues are clamped to exactly 0; unclamped, their
        # rounding residue (about 1e-16 scale) would leave 1e-8 here
        np.testing.assert_allclose(root @ null, 0.0,
                                   atol=1e-12 * np.sqrt(scale))

    def test_matrix_sqrt_squares_back(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((4, 4))
        a = b @ b.T
        root = matrix_sqrt_psd(a)
        np.testing.assert_allclose(root @ root, a, atol=1e-10)
        np.testing.assert_allclose(root, root.T, atol=1e-12)

    def test_matrix_sqrt_tolerates_tiny_negatives(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        root = matrix_sqrt_psd(a)
        assert np.all(np.isfinite(root))
        np.testing.assert_allclose(root @ root, np.maximum(a, 0), atol=1e-6)

    @pytest.mark.parametrize("matrix", [[[1.0, 0.0], [0.0, -1e-6]],
                                        [[-1.0, 0.0], [0.0, -2.0]]])
    def test_matrix_sqrt_rejects_a_negative_eigenvalue(self, matrix):
        with pytest.raises(IndefiniteError):
            matrix_sqrt_psd(np.array(matrix))


def _rank_deficient_greeks(d, rank, aligned):
    """Greeks of xi = a tau + C z, z ~ N(0, I_rank) independent of tau.

    xi - kappa tau = (a - kappa) tau + C z, so sigma has rank ``rank`` when
    a = kappa and rank + 1 otherwise.
    """
    rng = np.random.default_rng(10 * d + rank)
    c = rng.standard_normal((d, rank))
    kappa = rng.standard_normal(d)
    a = kappa if aligned else kappa + rng.standard_normal(d)
    mu, var_tau = 1.5, 0.8
    return Greeks.from_moments(mu, kappa * mu, var_tau,
                               np.outer(a, a) * var_tau + c @ c.T,
                               a * var_tau)


RANK_CASES = [(2, 1, True), (3, 1, True), (3, 1, False), (3, 2, True)]


class TestPseudoInverseAndNullProjector:
    @pytest.mark.parametrize("d, rank, aligned", RANK_CASES)
    def test_moore_penrose_identities(self, d, rank, aligned):
        g = _rank_deficient_greeks(d, rank, aligned)
        s, s_pinv = g.sigma, g.sigma_pinv
        np.testing.assert_allclose(s @ s_pinv @ s, s, atol=1e-12)
        np.testing.assert_allclose(s_pinv @ s @ s_pinv, s_pinv, atol=1e-12)
        np.testing.assert_allclose(s @ s_pinv, (s @ s_pinv).T, atol=1e-12)
        np.testing.assert_allclose(s_pinv @ s, (s_pinv @ s).T, atol=1e-12)

    @pytest.mark.parametrize("d, rank, aligned", RANK_CASES)
    def test_projector_onto_the_null_space(self, d, rank, aligned):
        g = _rank_deficient_greeks(d, rank, aligned)
        proj = g.null_projector
        np.testing.assert_array_equal(proj, proj.T)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-14)
        np.testing.assert_allclose(proj @ g.sigma, 0.0, atol=1e-14)
        np.testing.assert_allclose(proj + g.sigma_pinv @ g.sigma, np.eye(d),
                                   atol=1e-12)
        sigma_rank = rank if aligned else rank + 1
        assert np.trace(proj) == pytest.approx(d - sigma_rank, abs=1e-14)

    def test_rank_one_hand_values(self):
        # sigma2 = u u^T with u = (1, 2): sigma = u u^T / |u|,
        # pinv(sigma) = u u^T / |u|^3, and the null space is spanned by (2, -1)
        uu = np.array([[1.0, 2.0], [2.0, 4.0]])
        g = Greeks.from_moments(1.0, [0.0, 0.0], 1.0, uu, [0.0, 0.0])
        np.testing.assert_allclose(g.sigma, uu / np.sqrt(5.0), atol=1e-15)
        np.testing.assert_allclose(g.sigma_pinv, uu / 5.0 ** 1.5, atol=1e-15)
        np.testing.assert_allclose(g.null_projector,
                                   [[0.8, -0.4], [-0.4, 0.2]], atol=1e-15)

    def test_full_rank_inverse_and_zero_projector(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((3, 3))
        g = Greeks.from_moments(1.0, [0.0] * 3, 1.0, b @ b.T + np.eye(3),
                                [0.0] * 3)
        np.testing.assert_allclose(g.sigma_pinv, np.linalg.inv(g.sigma),
                                   atol=1e-10)
        assert not np.any(g.null_projector)


# float.hex of sigma, sigma_pinv, v and the null projector at d = 1 for
# every shipped config and benchmark family.  The committed runs/ fixtures
# and the benchmark digests depend on these bits, so a change of eigensolver
# or of the pseudo-inverse formula must leave them as they are.
_GAMMA = ("0x1.5ff11aae624a1p-1", "0x1.746cd9dd1acd9p+0",
          "0x1.e5b9d136c6d97p-1", "0x0.0p+0")
_MM1 = ("0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bccp+0",
        "0x1.6a09e667f3bcdp+0", "0x0.0p+0")
_PARETO = ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0")
D1_BITS = {
    "greeks_mm1.cfg": _MM1, "maxima_pareto.cfg": _PARETO,
    "phis_gamma.cfg": _GAMMA, "rate_gamma.cfg": _GAMMA,
    "rate_independent_null.cfg": _GAMMA, "tail_gamma.cfg": _GAMMA,
    "compound-jump": ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                      "0x1.0000000000000p+0", "0x0.0p+0"),
}


@pytest.mark.parametrize("name", sorted(
    {path.name for path in CONFIGS.glob("*.cfg")} | {"compound-jump"}))
def test_d1_fields_keep_their_bits(name):
    # the other benchmark families (gamma-gaussian, mm1-busy-cycle and
    # pareto-cycle) run the models of the shipped configs
    if name == "compound-jump":
        cfg = parse_config_text("model.family = compound-jump\n"
                                "coupling.mode = independent\n", "phis")
    else:
        cfg = parse_config(CONFIGS / name, "maxima")
    g = reference_greeks(cfg.build_model(), cfg.p)
    assert g.d == 1
    got = tuple(float(m[0, 0]).hex() for m in
                (g.sigma, g.sigma_pinv, g.v, g.null_projector))
    assert got == D1_BITS[name]
