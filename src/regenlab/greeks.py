"""Process parameters ("greeks") of a regenerative cumulative process.

From the first and second moments of one cycle (duration tau, increment xi)
the library derives every constant the coupling pipeline needs:

    mu      = E tau
    kappa   = E xi / mu                       (long-run drift per unit time)
    beta    = cov(xi, tau) / Var tau          (regression of xi on tau)
    v2      = Var(xi - beta tau)              (residual covariance)
    alpha   = beta - kappa
    gamma   = Var tau / mu,   lam = mu^2 / Var tau   (so gamma * lam = mu)
    sigma2  = Var(xi - kappa tau) / mu        (asymptotic covariance rate)
    sigma   = psd square root of sigma2,  sigma_pinv = its pseudo-inverse
    null_projector = I - sigma_pinv sigma     (projector onto sigma's null space)

All derived fields come from a single moment routine, which keeps the exact
identity  mu * sigma2 = v2 + Var(tau) * alpha alpha^T  at floating precision
for estimated moments as well as for closed-form ones.

sigma, sigma_pinv and null_projector come from one ``numpy.linalg.eigh`` of
sigma2.  Eigenvalues below 1e-12 of the largest count as zero, so the rank
is decided once: at full rank the null projector is exactly zero, and a
rank-deficient sigma gets an exact orthogonal projector from the null
eigenvectors rather than the rounding residue of I - sigma_pinv sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .models import CycleBatch


_SQRT_CLAMP_REL = 1e-12   # eigenvalues below this (relative) are treated as 0
_SYMMETRY_REL = 1e-10


class NotSymmetricError(ValueError):
    """Matrix argument is not symmetric within tolerance."""


class IndefiniteError(ValueError):
    """Matrix argument has a meaningfully negative eigenvalue."""


class DegenerateTauError(ValueError):
    """Cycle durations carry no variance; the pipeline requires Var(tau) > 0."""


class InsufficientDataError(ValueError):
    """Too few cycles to estimate second moments."""


def _require_symmetric(matrix: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError(f"{what} must be a square matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m), initial=0.0))
    if scale and float(np.max(np.abs(m - m.T))) > _SYMMETRY_REL * scale:
        raise NotSymmetricError(f"{what} is not symmetric within {_SYMMETRY_REL:g} relative")
    return _symmetric(m)


def _symmetric(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _clamped_eigh(matrix: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric PSD matrix.

    Eigenvalues within 1e-12 (relative to the largest) of zero are set to
    exactly zero, which decides the rank once; a genuinely negative
    eigenvalue raises IndefiniteError.
    """
    w, vecs = np.linalg.eigh(_require_symmetric(matrix, what))
    top = max(float(w[-1]), 0.0)
    if w[0] < -_SQRT_CLAMP_REL * (top or 1.0):
        raise IndefiniteError(f"eigenvalue {w[0]:g} below -{_SQRT_CLAMP_REL:g} * max")
    return np.where(w > _SQRT_CLAMP_REL * top, w, 0.0), vecs


def matrix_sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root R with R @ R == matrix.

    Eigenvalues within 1e-12 (relative) of zero are clamped to exactly zero,
    so exact rank deficiency survives the round trip; a genuinely negative
    eigenvalue raises IndefiniteError.
    """
    w, vecs = _clamped_eigh(matrix, "matrix_sqrt_psd argument")
    return _symmetric((vecs * np.sqrt(w)) @ vecs.T)


@dataclass(frozen=True)
class Greeks:
    """Derived parameters of one cycle distribution; see the module docstring."""

    mu: float
    kappa: np.ndarray
    var_tau: float
    var_xi: np.ndarray
    cov_xi_tau: np.ndarray
    beta: np.ndarray
    v2: np.ndarray
    v: np.ndarray
    gamma: float
    lam: float
    alpha: np.ndarray
    sigma2: np.ndarray
    sigma: np.ndarray
    sigma_pinv: np.ndarray
    null_projector: np.ndarray

    @property
    def d(self) -> int:
        return self.kappa.size

    @classmethod
    def from_moments(cls, mu: float, mean_xi: np.ndarray, var_tau: float,
                     var_xi: np.ndarray, cov_xi_tau: np.ndarray) -> "Greeks":
        """Derive every field from raw cycle moments.

        Both closed-form parameterizations and plug-in sample moments go
        through here, so the algebraic identities linking the fields hold to
        floating precision in either case.
        """
        mu = float(mu)
        var_tau = float(var_tau)
        mean_xi = np.atleast_1d(np.asarray(mean_xi, dtype=float))
        cov_xi_tau = np.atleast_1d(np.asarray(cov_xi_tau, dtype=float))
        var_xi = np.asarray(var_xi, dtype=float)
        if var_xi.ndim == 0:
            var_xi = var_xi.reshape(1, 1)
        if mu <= 0 or not np.isfinite(mu):
            raise ValueError(f"mean cycle duration must be positive, got {mu}")
        if not np.isfinite(var_tau) or var_tau <= 0:
            raise DegenerateTauError(
                f"Var(tau) = {var_tau} but the pipeline requires Var(tau) > 0")
        kappa = mean_xi / mu
        beta = cov_xi_tau / var_tau
        outer_bc = np.outer(beta, cov_xi_tau)
        v2 = var_xi - outer_bc - outer_bc.T + np.outer(beta, beta) * var_tau
        v2 = 0.5 * (v2 + v2.T)
        outer_kc = np.outer(kappa, cov_xi_tau)
        sigma2 = (var_xi - outer_kc - outer_kc.T
                  + np.outer(kappa, kappa) * var_tau) / mu
        sigma2 = 0.5 * (sigma2 + sigma2.T)
        # sigma, its pseudo-inverse and the projector onto its null space
        # share one eigendecomposition of sigma2, whose clamp fixes the rank
        w, vecs = _clamped_eigh(sigma2, "sigma2")
        kept = w > 0.0
        root = np.sqrt(w)
        inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=kept)
        null = vecs[:, ~kept]
        return cls(
            mu=mu, kappa=kappa, var_tau=var_tau, var_xi=0.5 * (var_xi + var_xi.T),
            cov_xi_tau=cov_xi_tau, beta=beta, v2=v2, v=matrix_sqrt_psd(v2),
            gamma=var_tau / mu, lam=mu * mu / var_tau, alpha=beta - kappa,
            sigma2=sigma2, sigma=_symmetric((vecs * root) @ vecs.T),
            sigma_pinv=_symmetric((vecs * inv_root) @ vecs.T),
            null_projector=_symmetric(null @ null.T),
        )


def estimate_greeks(cycles: CycleBatch) -> Greeks:
    """Plug-in (1/n) moment estimates from observed cycles.

    Raises DegenerateTauError when the sample durations carry no variance
    and InsufficientDataError for fewer than 2 cycles.
    """
    tau, xi = cycles.tau, cycles.xi
    n = tau.size
    if n < 2:
        raise InsufficientDataError(f"need at least 2 cycles, got {n}")
    mu = float(np.mean(tau))
    mean_xi = xi.mean(axis=0)
    dtau = tau - mu
    var_tau = float(np.mean(dtau * dtau))
    if var_tau <= 0:
        raise DegenerateTauError(
            "sample Var(tau) is zero; durations are degenerate")
    dxi = xi - mean_xi
    var_xi = (dxi.T @ dxi) / n
    cov_xi_tau = dxi.T @ dtau / n
    return Greeks.from_moments(mu, mean_xi, var_tau, var_xi, cov_xi_tau)


def check_greek_identities(greeks: Greeks) -> dict[str, float]:
    """Max-norm residuals of the exact identities between derived fields.

    Keys:
        decomposition : mu sigma2 - v2 - var_tau alpha alpha^T
        gamma_lambda  : gamma * lam - mu
        sqrt_sigma    : sigma sigma - sigma2
        sqrt_v        : v v - v2
        pinv          : sigma sigma+ sigma - sigma
        range_v       : sigma sigma+ v - v
        range_alpha   : sigma sigma+ alpha - alpha
    """
    g = greeks
    proj = g.sigma @ g.sigma_pinv
    return {
        "decomposition": float(np.max(np.abs(
            g.mu * g.sigma2 - g.v2 - g.var_tau * np.outer(g.alpha, g.alpha)))),
        "gamma_lambda": abs(g.gamma * g.lam - g.mu),
        "sqrt_sigma": float(np.max(np.abs(g.sigma @ g.sigma - g.sigma2))),
        "sqrt_v": float(np.max(np.abs(g.v @ g.v - g.v2))),
        "pinv": float(np.max(np.abs(proj @ g.sigma - g.sigma))),
        "range_v": float(np.max(np.abs(proj @ g.v - g.v))),
        "range_alpha": float(np.max(np.abs(proj @ g.alpha - g.alpha))),
    }
