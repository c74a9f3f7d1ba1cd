"""Catalog of regenerative process models.

Five families, each producing i.i.d. cycles ``(tau, xi, trajectory)``:

* ``iid-sums``          -- constant cycle duration, Gaussian increments; the
                           degenerate ``Var(tau) = 0`` case that the rest of
                           the pipeline must reject.
* ``gamma-gaussian``    -- Gamma durations, increments linear in the duration
                           plus Gaussian noise; the family whose own
                           innovations can drive the coupling exactly.
* ``pareto-cycle``      -- heavy-tailed durations with tunable moment order;
                           the increment equals the duration.
* ``mm1-busy-cycle``    -- idle period plus M/M/1 busy period; the increment
                           counts departures, giving a genuine intra-cycle
                           trajectory; closed-form moments from the
                           busy period's departure count.
* ``compound-jump``     -- exponential durations with Gaussian jumps at
                           Poisson times, dimension up to 3.

Each family is declared once, as a frozen dataclass listed in ``MODELS``:
its fields are its ``model.*`` config keys.  Every family has ``p_max``, the
supremum of finite moment orders of the cycle duration and the cycle maximum;
configurations requesting ``p >= p_max`` are rejected by the config layer.

All samplers are pure functions of an :class:`~regenlab.rng.RngStream`
position, so parallel replications on disjoint stream indices are exactly
reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from ._normal import (log_normal_pieces, log_normal_sf, normal_cdf,
                      normal_cdf_left)
from .greeks import DegenerateTauError, Greeks, matrix_sqrt_psd
from .paths import (PIECEWISE_CONSTANT, PIECEWISE_LINEAR, RegenerativePath,
                    single_event_path)
from .rng import RngStream

SHARED_INNOVATIONS = "shared-innovations"
INDEPENDENT = "independent"
COUPLING_MODES = (SHARED_INNOVATIONS, INDEPENDENT)

_ETA_BLOCK = 4096   # terms per block of the M/M/1 E eta^p series
_ETA_CYCLES = 200_000   # cycles of the plug-in E eta^p estimate ...
_ETA_STREAM = RngStream(0, 2 ** 62 + 211)   # ... and its fixed stream
_CYCLE_BLOCK = 8192   # cycles per block of Model.eta_blocks


class InvalidParameterError(ValueError):
    """Nonsensical family parameters (nonpositive rate, bad dimension, ...)."""


class ModeUnsupportedError(ValueError):
    """The model family cannot be driven in the requested coupling mode."""


def _dimension(dim: int, most: float) -> None:
    if not 1 <= dim <= most:
        raise InvalidParameterError(
            f"dimension must lie in 1..{most:g}, got {dim}")


def _vector(name: str, value, dim: int) -> np.ndarray:
    """A length-``dim`` vector; a scalar is repeated and None means 0."""
    vec = np.asarray(0.0 if value is None else value, dtype=float)
    if vec.shape not in ((), (1,), (dim,)):
        raise InvalidParameterError(
            f"{name} shape {vec.shape} does not match dimension {dim}")
    return np.broadcast_to(vec, (dim,)).copy()


def _block_sizes(n: int) -> list[int]:
    """Sizes of the consecutive blocks of ``_CYCLE_BLOCK`` cycles that cover
    n cycles, the rest last."""
    full, rest = divmod(n, _CYCLE_BLOCK)
    return [_CYCLE_BLOCK] * full + ([rest] if rest else [])


def _lgamma(x: np.ndarray) -> np.ndarray:
    """``math.lgamma`` of each element."""
    return np.fromiter(map(math.lgamma, x.tolist()), float, x.size)


def _covariance(name: str, value, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A ``dim`` x ``dim`` covariance (None means the identity) and its PSD
    square root."""
    cov = np.eye(dim) if value is None \
        else np.atleast_2d(np.asarray(value, dtype=float))
    if cov.shape != (dim, dim):
        raise InvalidParameterError(
            f"{name} shape {cov.shape} does not match dimension {dim}")
    return cov, matrix_sqrt_psd(cov)


@dataclass(frozen=True)
class CycleBatch:
    """Vectorized cycle statistics: durations, increments, trajectory maxima."""

    tau: np.ndarray   # (n,)
    xi: np.ndarray    # (n, d)
    eta: np.ndarray   # (n,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim == 1:
            xi = xi[:, None]
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))

    @property
    def d(self) -> int:
        return self.xi.shape[1]


class Model:
    """Common interface of the model families.

    Subclasses set ``family``, ``interpolation`` and ``coupling_modes`` and
    implement the sampling and moment methods.  ``sample_cycles`` returns only
    the per-cycle statistics (fast, vectorized); ``sample_path`` materializes
    the full trajectory for path-level experiments; ``eta_blocks`` reads the
    cycle maxima in bounded memory.  On the same stream the two samplers
    give bit-identical ``tau`` and ``xi``.

    A family draws its cycles in one core, ``_cycles(n, gen)``, from a
    single generator: ``sample_cycles`` is one call of it on the stream's
    generator, ``eta_blocks`` consecutive calls on one generator.
    """

    family: ClassVar[str]
    interpolation: ClassVar[str]
    coupling_modes: ClassVar[tuple[str, ...]] = (INDEPENDENT,)
    dim: ClassVar[int] = 1
    p_max: ClassVar[float] = math.inf

    @property
    def d(self) -> int:
        return self.dim

    def _cycles(self, n: int, gen: np.random.Generator) -> CycleBatch:
        raise NotImplementedError

    def sample_cycles(self, n: int, rng: RngStream) -> CycleBatch:
        """n cycles in one batch."""
        return self._cycles(n, rng.generator())

    def eta_blocks(self, n: int, rng: RngStream) -> Iterator[np.ndarray]:
        """The maxima of n i.i.d. cycles, in consecutive blocks of at most
        ``_CYCLE_BLOCK`` cycles (:func:`_block_sizes`), each block drawn
        after the one before on one generator; no block holds another's tau,
        xi or jumps.  The first block is ``sample_cycles(size, rng).eta``."""
        gen = rng.generator()
        for size in _block_sizes(n):
            yield self._cycles(size, gen).eta

    def sample_path(self, n: int, rng: RngStream) -> RegenerativePath:
        """One event per cycle at its end; families with an intra-cycle
        trajectory override this."""
        batch = self.sample_cycles(n, rng)
        return single_event_path(batch.tau, batch.xi, self.interpolation)

    def true_greeks(self) -> Greeks:
        """Exact parameters from closed-form cycle moments.

        Raises DegenerateTauError when the durations carry no variance.
        """
        raise NotImplementedError

    def eta_moment(self, p: float) -> float:
        """E eta^p; families without a closed form take the plug-in mean over
        ``_ETA_CYCLES`` cycles of ``_ETA_STREAM``: the exactly rounded sum
        of the per-block sums of eta^p from ``eta_blocks``, so no array
        outgrows a block."""
        sums = [float(np.sum(eta ** p))
                for eta in self.eta_blocks(_ETA_CYCLES, _ETA_STREAM)]
        return math.fsum(sums) / _ETA_CYCLES

    def tau_from_gaussian(self, g: np.ndarray) -> np.ndarray:
        """Duration from a standard normal variate via the inverse CDF.

        Only the families supporting ``shared-innovations`` implement it.
        """
        raise ModeUnsupportedError(
            f"{self.family} has no duration quantile coupling")

    def increments_from(self, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Cycle increments given durations and standard normal innovations.

        Only the families supporting ``shared-innovations`` implement it.
        """
        raise ModeUnsupportedError(
            f"{self.family} has no increment coupling hook")

    def _check_p(self, p: float) -> None:
        if not p > 2:
            raise InvalidParameterError(f"moment order p must exceed 2, got {p}")
        if p >= self.p_max:
            raise InvalidParameterError(
                f"p={p:g} >= p_max={self.p_max:g} for {self.family}")


@dataclass(frozen=True, eq=False)
class IidSumModel(Model):
    """Constant cycle duration, i.i.d. Gaussian increments (a random walk).

    The degenerate case: Var(tau) = 0, so the coupling pipeline's parameters
    (which divide by Var(tau)) do not exist and true_greeks raises.
    """

    family: ClassVar[str] = "iid-sums"
    interpolation: ClassVar[str] = PIECEWISE_CONSTANT
    coupling_modes: ClassVar[tuple[str, ...]] = ()

    xi_mean: np.ndarray | None = None
    xi_cov: np.ndarray | None = None
    tau_const: float = 1.0
    dim: int = 1

    def __post_init__(self) -> None:
        _dimension(self.dim, math.inf)
        if not self.tau_const > 0:
            raise InvalidParameterError(
                f"cycle duration must be positive, got {self.tau_const}")
        cov, root = _covariance("xi_cov", self.xi_cov, self.dim)
        object.__setattr__(self, "xi_mean",
                           _vector("xi_mean", self.xi_mean, self.dim))
        object.__setattr__(self, "xi_cov", cov)
        object.__setattr__(self, "_xi_root", root)

    def _cycles(self, n, gen) -> CycleBatch:
        g = gen.standard_normal((n, self.dim))
        xi = self.xi_mean + g @ self._xi_root
        tau = np.full(n, float(self.tau_const))
        return CycleBatch(tau=tau, xi=xi, eta=np.max(np.abs(xi), axis=1))

    def true_greeks(self) -> Greeks:
        raise DegenerateTauError(
            "iid-sums has Var(tau) = 0; the pipeline requires Var(tau) > 0")


_ERLANG_SHAPES = range(1, 9)   # the shapes tests/erlang_quantiles.txt covers
_ERLANG_TOLS = (2.0 ** -20, 2.0 ** -34, 2.0 ** -56)   # Halley, Halley, polish
_ERLANG_SLICE = 8192   # drivers per pass of the Erlang quantile
_SEED_EDGE = 8.5       # the quantile's seed table covers [-8.5, 8.5] ...
_SEED_STEPS = 64       # ... with a node every 1/64


def _horner(coef: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients ``coef`` (highest power first)."""
    out = np.full_like(x, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


@functools.lru_cache(maxsize=None)
def _erlang_series(k: int) -> tuple[tuple[float, ...], ...]:
    """Horner coefficients of the two series behind the Gamma(k, 1) tails.

    The lower tail is F(x) = x^k e^(-x) r(x) / (k-1)! with
    r(x) = sum_{i>=0} (k-1)! x^i / (i+k)!, all terms positive.  There is one
    truncation of r per entry of ``_ERLANG_TOLS``; the terms it drops sum to
    less than the tolerance times r for every x up to k, which exceeds the
    median.  The last entry is T(x) = sum_{j<k} x^j / j!, the upper tail
    being Q(x) = e^(-x) T(x).
    """
    fact = math.factorial(k - 1)
    out = []
    for tol in _ERLANG_TOLS:
        # term: the first dropped term over r(0) = 1/k, at x = k; the
        # dropped tail is below twice that
        n, term = 0, 1.0
        while 2.0 * term >= tol:
            n += 1
            term *= k / (n + k)
        out.append(tuple(fact / math.factorial(i + k)   # rounded once
                         for i in reversed(range(n))))
    out.append(tuple(1.0 / math.factorial(j) for j in reversed(range(k))))
    return tuple(out)


def _wilson_hilferty(k: int, g: np.ndarray) -> np.ndarray:
    """The Wilson-Hilferty guess k (1 - c + g sqrt(c))^3, c = 1/(9k)."""
    c = 1.0 / (9.0 * k)
    y = g * math.sqrt(c) + (1.0 - c)
    return k * (y * y * y)


def _erlang_lower(k: int, g: np.ndarray) -> np.ndarray:
    """The Gamma(k, 1) quantile at Phi(g) for g <= 0.

    Phi(g) and the pieces of log Phi(g) come from ``regenlab._normal``.
    From the larger of the small-x asymptote x^k/k! = Phi and the
    Wilson-Hilferty guess, two Halley steps in u = log x solve
    log F = log Phi, on truncated series; log F is concave in u with slope
    1/r.  A last Newton step on F(x) - Phi in linear space, where both keep
    full relative precision, removes the log-space rounding (one ulp of
    log Phi is |log Phi|/k ulp of x).
    """
    halley1, halley2, full, _ = _erlang_series(k)
    log_fact = math.lgamma(k)   # log (k-1)!
    phi = normal_cdf(g)
    scaled, sq, err = log_normal_pieces(g)
    # target = log Phi + log (k-1)!
    target = np.log(scaled) - 0.5 * sq - 0.5 * err + log_fact
    u0 = (target + math.log(k)) / k   # x^k / k! = Phi
    u = np.fmax(u0, np.log(_wilson_hilferty(k, g)))
    for coef in (halley1, halley2):
        np.minimum(u, math.log(k), out=u)
        x = np.exp(u)
        r = _horner(coef, x)
        h = k * u - x + np.log(r) - target
        u -= 2.0 * h * r / (2.0 + h * (1.0 + r * (x - k)))
    x = _lower_newton(k, np.exp(u), phi)
    # below the normal range Phi has lost bits; there x^k / k! = Phi holds
    # to far below one ulp
    return np.where(phi >= np.finfo(float).tiny, x, np.exp(u0))


def _lower_newton(k: int, x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """One Newton step on F(x) - Phi in linear space, for x below k:
    F(x) / f(x) = x r(x), with r on the full series."""
    r = _horner(_erlang_series(k)[2], x)
    ratio = phi * math.factorial(k - 1) / (x ** k * np.exp(-x) * r)
    x += x * r * (ratio - 1.0)
    return x


def _erlang_upper(k: int, g: np.ndarray) -> np.ndarray:
    """The Gamma(k, 1) quantile at Phi(g) for g > 0.

    Three Newton steps on log Q(x) = -x + log T(x) = log Phi(-g), from the
    larger of the Wilson-Hilferty guess and one fixed-point step of
    x = log T(x) - log Phi(-g).  log Q is concave, so after the first step
    the iterates fall to the root from above.  Its slope grows with x, so
    one ulp of log Phi(-g) moves x by about one ulp.
    """
    poly = _erlang_series(k)[-1]
    log_q = log_normal_sf(g)
    x = np.log(_horner(poly, -log_q)) - log_q
    x = np.fmax(x, _wilson_hilferty(k, g))
    for _ in range(3):
        x = _upper_newton(k, x, log_q)
    return x


def _upper_newton(k: int, x: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """One Newton step on log Q(x) = log T(x) - x = ``log_q``."""
    t = _horner(_erlang_series(k)[-1], x)
    x += (np.log(t) - x - log_q) * (math.factorial(k - 1) * t
                                     / x ** (k - 1))
    return x


def _erlang_solve(k: int, g: np.ndarray) -> np.ndarray:
    """The Gamma(k, 1) quantile at Phi(g) from g alone, for a 1-d ``g``:
    :func:`_erlang_lower` up to 0, :func:`_erlang_upper` above, and the
    limits 0 and inf at -inf and inf."""
    out = np.empty_like(g)
    lower = np.flatnonzero(g <= 0)   # indices: cheaper than a random mask
    upper = np.flatnonzero(~(g <= 0))
    with np.errstate(all="ignore"):   # the far tails take their limits
        out.put(lower, _erlang_lower(k, g.take(lower)))
        out.put(upper, _erlang_upper(k, g.take(upper)))
    infinite = np.isinf(g)
    out[infinite] = np.where(g[infinite] > 0, np.inf, 0.0)
    return out


@functools.lru_cache(maxsize=None)
def _erlang_seed_table(k: int) -> np.ndarray:
    """Per cell of the step-1/64 grid of [-8.5, 8.5], the cubic in the
    cell's fraction s that seeds log x, as a read-only (4, cells) array of
    coefficients, lowest power first.

    The nodes' log x come from :func:`_erlang_solve` and their slopes from
    d log x/dg = phi(g) / (x f_k(x)), f_k the Gamma(k, 1) density; each
    cubic is the Hermite interpolant of both at its two ends, within about
    1e-10 of log x.  Built once per shape, at its first quantile.
    """
    g = np.arange(2 * _SEED_EDGE * _SEED_STEPS + 1) / _SEED_STEPS - _SEED_EDGE
    x = _erlang_solve(k, g)
    log_x = np.log(x)
    # log of phi(g) (k-1)! / (x^k e^-x), over the steps per unit
    slope = np.exp(x - k * log_x - 0.5 * g * g - 0.5 * math.log(2.0 * math.pi)
                   + math.lgamma(k) - math.log(_SEED_STEPS))
    y0, y1, d0, d1 = log_x[:-1], log_x[1:], slope[:-1], slope[1:]
    table = np.stack([y0, d0, 3.0 * (y1 - y0) - 2.0 * d0 - d1,
                      2.0 * (y0 - y1) + d0 + d1])
    table.flags.writeable = False
    return table


def _erlang_quantile(k: int, g: np.ndarray) -> np.ndarray:
    """Gamma(k, 1) quantile at Phi(g) for an integer shape k, in plain numpy.

    Within [-8.5, 8.5] a cubic Hermite seed of log x
    (:func:`_erlang_seed_table`, nodes every 1/64) starts one last step: at
    g <= 0 the linear-space Newton step on F(x) - Phi(g), above 0 one
    Newton step on log Q(x) = log Phi(-g).  The seed is within about 1e-10,
    so that step leaves a quadratic error far below one ulp.  Outside the table, and at -inf, inf and NaN, g takes
    :func:`_erlang_solve`, whose Halley and Newton steps from the
    Wilson-Hilferty guess and the tails' asymptotes need no table; it also
    solves the table's nodes.

    Every step is elementwise with a fixed number of terms and iterations,
    so any slice of ``g`` gives the same bits.  A long ``g`` goes through in
    slices of ``_ERLANG_SLICE``, which bounds the temporaries' memory.
    """
    flat = g.ravel()
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _ERLANG_SLICE):
        out[lo:lo + _ERLANG_SLICE] = _erlang_slice(
            k, flat[lo:lo + _ERLANG_SLICE])
    return out.reshape(g.shape)


def _erlang_slice(k: int, g: np.ndarray) -> np.ndarray:
    """:func:`_erlang_quantile` on a 1-d ``g``, in one pass."""
    table = _erlang_seed_table(k)
    cells = table.shape[1]
    with np.errstate(all="ignore"):   # the elements outside are redone
        s = g + _SEED_EDGE
        s *= _SEED_STEPS
        np.fmax(s, 0.0, out=s)   # NaN to 0 too
        np.fmin(s, cells, out=s)
        whole = np.floor(s)
        np.minimum(whole, cells - 1, out=whole)   # g = 8.5 ends the last cell
        cell = whole.astype(np.intp)
        s -= whole
        x = table[3].take(cell)
        for row in table[2::-1]:
            x *= s
            x += row.take(cell)
        np.exp(x, out=x)
        lower = np.flatnonzero(g <= 0)
        upper = np.flatnonzero(g > 0)
        x.put(lower, _lower_newton(k, x.take(lower),
                                   normal_cdf_left(g.take(lower))))
        x.put(upper, _upper_newton(k, x.take(upper),
                                   log_normal_sf(g.take(upper))))
    far = np.flatnonzero(~(np.abs(g) <= _SEED_EDGE))
    if far.size:
        x.put(far, _erlang_solve(k, g.take(far)))
    return x


@dataclass(frozen=True, eq=False)
class GammaGaussianModel(Model):
    """Gamma durations; increments linear in the duration plus Gaussian noise.

    tau ~ Gamma(tau_shape, tau_scale) and

        xi = beta * tau + (kappa - beta) * mu + noise,   noise ~ N(0, noise_cov)

    so the long-run drift is exactly ``kappa`` and the regression coefficient
    of xi on tau is exactly ``beta``.  The noise is generated as
    ``matrix_sqrt_psd(noise_cov) @ g`` with ``g`` standard normal, which is
    what lets the coupling reuse ``g`` as the Wiener driver increment with
    zero per-cycle tracking error.  The increment accrues linearly across the
    cycle.
    """

    family: ClassVar[str] = "gamma-gaussian"
    interpolation: ClassVar[str] = PIECEWISE_LINEAR
    coupling_modes: ClassVar[tuple[str, ...]] = COUPLING_MODES

    tau_shape: float = 2.0
    tau_scale: float = 1.0
    beta: np.ndarray | None = None
    kappa: np.ndarray | None = None
    noise_cov: np.ndarray | None = None
    dim: int = 1

    def __post_init__(self) -> None:
        _dimension(self.dim, math.inf)
        if not (self.tau_shape > 0 and self.tau_scale > 0):
            raise InvalidParameterError(
                f"Gamma duration needs positive shape and scale, got "
                f"shape={self.tau_shape}, scale={self.tau_scale}")
        cov, root = _covariance("noise_cov", self.noise_cov, self.dim)
        object.__setattr__(self, "beta", _vector("beta", self.beta, self.dim))
        object.__setattr__(self, "kappa",
                           _vector("kappa", self.kappa, self.dim))
        object.__setattr__(self, "noise_cov", cov)
        object.__setattr__(self, "_noise_root", root)

    @property
    def mu(self) -> float:
        return self.tau_shape * self.tau_scale

    @property
    def var_tau(self) -> float:
        return self.tau_shape * self.tau_scale ** 2

    def _xi_from(self, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
        """beta tau + shift + g @ root.  At d = 1 the noise is a scalar
        product plus 0.0, which has the matmul's bits: one rounding, and a
        zero product summed onto +0.0."""
        if self.dim == 1 and g.shape[1:] == (1,):
            noise = g * self._noise_root[0, 0]
            noise += 0.0
        else:
            noise = g @ self._noise_root
        xi = np.outer(tau, self.beta)
        xi += (self.kappa - self.beta) * self.mu
        xi += noise
        return xi

    def tau_from_gaussian(self, g: np.ndarray) -> np.ndarray:
        """Duration as an increasing function of a standard normal variate.

        Inverse-CDF transform tau = F^{-1}(Phi(g)), branch-split so both
        tails keep full relative precision.  Integer shapes in
        ``_ERLANG_SHAPES`` take the plain-numpy Erlang quantile; every other
        shape takes scipy's ``gammaincinv``/``gammainccinv`` at scipy's
        ``ndtr``, imported here so that no other run loads scipy.
        """
        g = np.asarray(g, dtype=float)
        if self.tau_shape in _ERLANG_SHAPES:
            return self.tau_scale * _erlang_quantile(int(self.tau_shape), g)
        from scipy.special import gammainccinv, gammaincinv, ndtr
        out = np.empty_like(g)
        lower = g <= 0
        out[lower] = gammaincinv(self.tau_shape, ndtr(g[lower]))
        out[~lower] = gammainccinv(self.tau_shape, ndtr(-g[~lower]))
        return self.tau_scale * out

    def increments_from(self, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Increments from durations and noise innovations (Gaussian residual,
        so the increment-side coupling is exact)."""
        return self._xi_from(np.asarray(tau, dtype=float),
                             np.asarray(g, dtype=float))

    def _cycles(self, n, gen) -> CycleBatch:
        """The n durations, then the noise."""
        tau = gen.gamma(self.tau_shape, self.tau_scale, size=n)
        xi = self._xi_from(tau, gen.standard_normal((n, self.dim)))
        return CycleBatch(tau=tau, xi=xi, eta=np.max(np.abs(xi), axis=1))

    def true_greeks(self) -> Greeks:
        var_tau = self.var_tau
        var_xi = self.noise_cov + np.outer(self.beta, self.beta) * var_tau
        return Greeks.from_moments(
            mu=self.mu, mean_xi=self.kappa * self.mu, var_tau=var_tau,
            var_xi=var_xi, cov_xi_tau=self.beta * var_tau)


@dataclass(frozen=True, eq=False)
class ParetoCycleModel(Model):
    """Heavy-tailed cycles: tau = 1 + X with X Pareto(tail_index), xi = tau.

    P(tau > 1 + x) = x^(-tail_index) for x >= 1, so tau >= 2 and moments of
    order p exist exactly for p < tail_index.  Because the increment equals
    the duration, the residual and asymptotic covariances vanish exactly.
    """

    family: ClassVar[str] = "pareto-cycle"
    interpolation: ClassVar[str] = PIECEWISE_CONSTANT
    coupling_modes: ClassVar[tuple[str, ...]] = COUPLING_MODES

    tail_index: float = 3.5

    def __post_init__(self) -> None:
        if not self.tail_index > 2:
            raise InvalidParameterError(
                f"tail_index must exceed 2 for finite duration variance, "
                f"got {self.tail_index}")

    @property
    def p_max(self) -> float:
        return float(self.tail_index)

    def tau_from_gaussian(self, g: np.ndarray) -> np.ndarray:
        """tau = 1 + Phi(-g)^(-1/tail_index), increasing in g."""
        g = np.asarray(g, dtype=float)
        return 1.0 + normal_cdf(-g) ** (-1.0 / self.tail_index)

    def increments_from(self, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The increment equals the duration; the noise innovation is unused
        (the residual is degenerate for this family)."""
        del g
        return np.asarray(tau, dtype=float).copy()

    def _cycles(self, n, gen) -> CycleBatch:
        tau = 2.0 + gen.pareto(self.tail_index, size=n)
        return CycleBatch(tau=tau, xi=tau, eta=tau)

    def true_greeks(self) -> Greeks:
        th = self.tail_index
        mean_x = th / (th - 1.0)
        var_tau = th / (th - 2.0) - mean_x * mean_x
        var = np.array([[var_tau]])
        return Greeks.from_moments(mu=1.0 + mean_x, mean_xi=1.0 + mean_x,
                                   var_tau=var_tau, var_xi=var,
                                   cov_xi_tau=np.array([var_tau]))

    def eta_moment(self, p: float) -> float:
        if p >= self.tail_index:
            return math.inf
        # E(1+X)^p with X ~ Pareto(th) on [1, inf): s = 1/x turns the
        # integral into th * int_0^1 s^(th-p-1) (1+s)^p ds, Euler's integral
        # of 2F1(-p, b; b+1; -1) / b, b = th - p.  Pfaff's transform makes
        # it 2^p 2F1(-p, 1; b+1; 1/2) = 2^p sum_k t_k, t_0 = 1 and
        # t_{k+1} = t_k (k - p) / (2 (k + b + 1)).  The terms alternate up
        # to k = p, where they may cancel, so they are summed as exact
        # rationals; past p they keep one sign and shrink by about 1/2 each.
        # The sum stops at the first term below 1e-17 of it past p, or at
        # the zero term that ends it for an integer p.
        th, q = Fraction(self.tail_index), Fraction(p)
        b = th - q
        term = total = Fraction(1)
        k = 0
        while k <= q or abs(term) >= 1e-17 * abs(total):
            term *= (k - q) / (2 * (k + b + 1))
            total += term
            k += 1
        return float(th / b * total) * 2.0 ** p


@dataclass(frozen=True, eq=False)
class MM1BusyCycleModel(Model):
    """Idle period plus M/M/1 busy period; the increment counts departures.

    A cycle starts with the system empty: an Exp(arrival_rate) idle period,
    then a busy period during which events occur at rate
    ``arrival_rate + service_rate`` and each event is an arrival with
    probability ``arrival_rate / (arrival_rate + service_rate)``.  The path
    steps up by one at every departure, so cycles have a genuine intra-cycle
    trajectory and the cycle maximum equals the departure count.

    The cycle moments are closed forms.  The departure count N of a busy
    period has E N = 1/(1 - rho) and Var N = rho (1 + rho) / (1 - rho)^3
    with rho = arrival_rate / service_rate (Takacs 1962; Kleinrock 1975,
    Queueing Systems I, sec. 5.8).  A walk that empties the queue after N
    departures takes 2N - 1 events, so given N the busy period is the sum of
    2N - 1 Exp(arrival_rate + service_rate) holding times, which is how the
    one walk both samplers share builds it; the idle period is independent
    of it.  Conditioning on N gives the duration moments and Cov(N, tau),
    and the drift is exactly the arrival rate.
    """

    family: ClassVar[str] = "mm1-busy-cycle"
    interpolation: ClassVar[str] = PIECEWISE_CONSTANT

    arrival_rate: float = 0.5
    service_rate: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.arrival_rate < self.service_rate):
            raise InvalidParameterError(
                f"need 0 < arrival_rate < service_rate for stability, got "
                f"arrival={self.arrival_rate}, service={self.service_rate}")

    # p_max is infinite: the busy period has a finite exponential moment,
    # hence all polynomial moments; so does the departure count.

    def true_greeks(self) -> Greeks:
        la = self.arrival_rate
        rho = la / self.service_rate
        rate = la + self.service_rate
        mean_n = 1.0 / (1.0 - rho)
        var_n = rho * (1.0 + rho) / (1.0 - rho) ** 3
        stages = 2.0 * mean_n - 1.0           # E(2N - 1) Erlang stages
        # Var tau = Var idle + E Var(busy | N) + Var E(busy | N)
        var_tau = 1.0 / la ** 2 + stages / rate ** 2 + 4.0 * var_n / rate ** 2
        return Greeks.from_moments(
            mu=1.0 / la + stages / rate, mean_xi=np.array([mean_n]),
            var_tau=var_tau, var_xi=np.array([[var_n]]),
            cov_xi_tau=np.array([2.0 * var_n / rate]))

    def eta_moment(self, p: float) -> float:
        # eta = N, whose law is P(N = n) = C(2n-2, n-1)/n rho^(n-1)
        # (1+rho)^(1-2n) (Takacs).  The terms n^p P(N = n) decay like
        # (4 rho / (1+rho)^2)^n; add them in blocks, in log space, until a
        # block no longer changes the sum.
        rho = self.arrival_rate / self.service_rate
        total = 0.0
        for start in itertools.count(1, _ETA_BLOCK):
            n = np.arange(start, start + _ETA_BLOCK, dtype=float)
            log_terms = (_lgamma(2.0 * n - 1.0) - _lgamma(n) - _lgamma(n + 1.0)
                         + (n - 1.0) * math.log(rho)
                         + (1.0 - 2.0 * n) * math.log1p(rho) + p * np.log(n))
            block = float(np.sum(np.exp(log_terms)))
            if total + block == total:
                return total
            total += block

    def _walk(self, n: int, gen: np.random.Generator):
        """Walk every cycle's busy period forward in lockstep rounds.

        The n idle periods are drawn first.  Then, each round, every cycle
        still busy draws one Exp(arrival_rate + service_rate) holding time,
        added to its own clock, and one uniform that makes the event an
        arrival or a departure.  The queue, one customer at the start of the
        busy period, is empty once the departures exceed the arrivals by
        one, that is once ``2 * departures == events + 1``.  The busy
        cycles' clocks and departure counts are compacted after each round in
        cycle order, so a cycle's clock is the sequential sum of its idle
        period and its holding times; at its last departure it is tau.

        Yields, round by round, the cycle, clock and departures so far of
        each departure in that round.  The first round is empty, so a walk
        of n = 0 cycles yields one empty round.
        """
        rate = self.arrival_rate + self.service_rate
        p_up = self.arrival_rate / rate
        clock = gen.exponential(1.0 / self.arrival_rate, size=n)
        busy = np.arange(n)
        count = np.zeros(n, dtype=np.int64)
        yield busy[:0], clock[:0], count[:0]
        events = 0
        while busy.size:
            events += 1
            clock += gen.exponential(1.0 / rate, size=busy.size)
            down = gen.random(busy.size) >= p_up
            count += down
            yield busy[down], clock[down], count[down]
            left = 2 * count != events + 1
            busy, clock, count = busy[left], clock[left], count[left]

    def _cycles(self, n, gen) -> CycleBatch:
        """Each cycle's last departure: tau is its clock, xi = eta = N."""
        tau, xi = np.empty(n), np.empty(n)
        for cycle, clock, count in self._walk(n, gen):
            tau[cycle] = clock   # a later departure of a cycle overwrites
            xi[cycle] = count
        return CycleBatch(tau=tau, xi=xi, eta=xi)

    def sample_path(self, n: int, rng: RngStream) -> RegenerativePath:
        """The walk's departures, one event each, sorted into cycle order."""
        cycle, clock, count = (np.concatenate(column) for column
                               in zip(*self._walk(n, rng.generator())))
        order = np.argsort(cycle, kind="stable")
        ptr = np.concatenate([[0], np.cumsum(np.bincount(cycle, minlength=n))])
        offsets, values = clock[order], count[order].astype(float)
        last = ptr[1:] - 1
        return RegenerativePath.from_cycle_events(
            offsets[last], values[last], offsets, values, ptr,
            self.interpolation)


@dataclass(frozen=True, eq=False)
class CompoundJumpModel(Model):
    """Exponential cycles carrying Gaussian jumps at Poisson times, d <= 3.

    tau ~ Exp(cycle_rate); given tau, jumps arrive at rate jump_rate and each
    jump is Normal(jump_mean, jump_cov).  The increment is the jump sum, so
    the drift and regression coefficients coincide and the centered pair is
    uncorrelated beyond the duration itself.
    """

    family: ClassVar[str] = "compound-jump"
    interpolation: ClassVar[str] = PIECEWISE_CONSTANT

    cycle_rate: float = 1.0
    jump_rate: float = 1.0
    jump_mean: np.ndarray | None = None
    jump_cov: np.ndarray | None = None
    dim: int = 1

    def __post_init__(self) -> None:
        _dimension(self.dim, 3)
        if not (self.cycle_rate > 0 and self.jump_rate > 0):
            raise InvalidParameterError(
                f"rates must be positive, got cycle_rate={self.cycle_rate}, "
                f"jump_rate={self.jump_rate}")
        cov, root = _covariance("jump_cov", self.jump_cov, self.dim)
        object.__setattr__(self, "jump_mean",
                           _vector("jump_mean", self.jump_mean, self.dim))
        object.__setattr__(self, "jump_cov", cov)
        object.__setattr__(self, "_jump_root", root)

    def _draw(self, n: int, gen: np.random.Generator):
        """Durations, jump counts, running jump sums and increments, drawn
        in that order.

        The running sums restart at each cycle and are accumulated one
        position at a time, so each cycle's sums have exactly the bits of its
        own sequential cumsum; xi is a cycle's last running sum, 0 for a cycle
        without jumps.  The passes run on a position-major copy of the
        jumps of the cycles with two or more: position j holds the j-th jump
        of each cycle with more than j, cycles with more jumps first, so the
        cycles that go on at position j lead position j - 1 in the same
        order, and each pass is one contiguous slice add.
        """
        tau = gen.exponential(1.0 / self.cycle_rate, size=n)
        counts = gen.poisson(self.jump_rate * tau)
        total = int(counts.sum())
        running = self.jump_mean + gen.standard_normal(
            (total, self.dim)) @ self._jump_root
        first = np.cumsum(counts) - counts
        top = int(counts.max(initial=0))
        if top > 1:
            # the cycles with two jumps or more, most first; a 16-bit key
            # sorts by radix
            multi = np.flatnonzero(counts > 1)
            many = counts[multi]
            key = (top - many).astype(np.uint16 if top < 2 ** 16 else int)
            by_count = first[multi[np.argsort(key, kind="stable")]]
            # widths[j] of them have more than j jumps; their position-j rows
            # start at starts[j] in the position-major copy
            widths = multi.size - np.cumsum(
                np.bincount(many, minlength=top + 1)[:top])
            starts = np.cumsum(widths) - widths
            rows = by_count[np.arange(starts[-1] + widths[-1])
                            - np.repeat(starts, widths)]
            rows += np.repeat(np.arange(top), widths)
            major = np.take(running, rows, axis=0)
            for j in range(1, top):
                lo, width = starts[j], widths[j]
                major[lo:lo + width] += major[starts[j - 1]:][:width]
            running[rows] = major
        xi = np.zeros((n, self.dim))
        nonempty = counts > 0
        xi[nonempty] = running[first[nonempty] + counts[nonempty] - 1]
        return tau, counts, running, xi

    def _cycles(self, n, gen) -> CycleBatch:
        tau, counts, running, xi = self._draw(n, gen)
        eta = np.zeros(n)
        nonempty = counts > 0
        if np.any(nonempty):
            first = np.cumsum(counts) - counts
            eta[nonempty] = np.maximum.reduceat(
                np.max(np.abs(running), axis=1), first[nonempty])
        return CycleBatch(tau=tau, xi=xi, eta=eta)

    def sample_path(self, n: int, rng: RngStream) -> RegenerativePath:
        """Jump events plus a flat terminal event closing each cycle."""
        gen = rng.generator()
        tau, counts, running, xi = self._draw(n, gen)
        total = running.shape[0]
        cycle = np.repeat(np.arange(n), counts)
        u = gen.random(total)
        jump_offsets = u[np.lexsort((u, cycle))] * tau[cycle]
        # Each cycle's events: its jumps, then the terminal event (tau, xi).
        slot = np.arange(total) + cycle
        end = np.cumsum(counts) + np.arange(n)
        offsets = np.empty(total + n)
        offsets[slot] = jump_offsets
        offsets[end] = tau
        values = np.empty((total + n, self.dim))
        values[slot] = running
        values[end] = xi
        ptr = np.concatenate([[0], end + 1])
        return RegenerativePath.from_cycle_events(
            tau, xi, offsets, values, ptr, self.interpolation)

    def true_greeks(self) -> Greeks:
        mu = 1.0 / self.cycle_rate
        var_tau = mu * mu
        m, nu = self.jump_mean, self.jump_rate
        mm = np.outer(m, m)
        var_xi = nu * mu * (self.jump_cov + mm) + nu * nu * mm * var_tau
        return Greeks.from_moments(
            mu=mu, mean_xi=nu * mu * m, var_tau=var_tau, var_xi=var_xi,
            cov_xi_tau=nu * m * var_tau)


MODELS: dict[str, type[Model]] = {cls.family: cls for cls in (
    IidSumModel, GammaGaussianModel, ParetoCycleModel, MM1BusyCycleModel,
    CompoundJumpModel)}
FAMILIES = tuple(MODELS)


# -- module-level operations ------------------------------------------------


def reference_greeks(model: Model, p: float) -> Greeks:
    """Ground truth for the coupling pipeline: the family's closed form,
    for a moment order p the family admits (2 < p < p_max)."""
    model._check_p(p)
    return model.true_greeks()


def eta_moment(model: Model, p: float) -> float:
    """E eta^p of the cycle maximum, see ``Model.eta_moment``."""
    return model.eta_moment(p)
