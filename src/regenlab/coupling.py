"""Constructive coupling of a cumulative process with a Wiener process.

The pipeline builds, from one replication's randomness:

* drivers ``B`` (d-dim) and ``B_tilde`` (scalar) — unit-grid Gaussian paths;
  in ``shared-innovations`` mode the cycle durations are quantiles of
  ``B_tilde``'s increments and the cycle increments are built from ``B``'s,
  in ``independent`` mode the cycles are drawn apart from both;
* an embedded Poisson counting process ``N`` derived measurably from
  ``B_tilde`` by per-unit-interval quantile mapping;
* Wiener surrogates ``W_tilde`` (time-rescaled from ``B_tilde``) and
  ``W_star`` (time-rescaled from ``B``), plus an independent ``W_circ``;
* the assembled d-dimensional Wiener path ``W`` combining the surrogates
  through the pseudo-inverse of the asymptotic covariance root, and
  ``W_circ`` through the null-space projector;
* the eight-term error decomposition ``phi[1..8]`` whose sum telescopes to
  ``S(u) - kappa*u - sigma*W_u`` exactly — the pipeline's central algebraic
  identity, verified on every run.

The drivers are *surrogates*: explicitly computable stand-ins for couplings
whose existence classical strong-approximation theory guarantees without an
algorithm.  Their error rates are measured by the experiment harness, never
assumed.

Two builders run the same stages in the same order: the stream draws for
all K cycles, the cycles, the three horizon checks, the surrogates and W.
:func:`build_bundle` keeps every array at its K-cycle length, places the
Poisson jumps and draws ``W_circ``; the eight-term decomposition (``phis``)
and ``couple`` read them.  :func:`sup_inputs` builds only what the sup over
[0, t] reads: the cycles up to the first renewal past t, the jump count
without the jump times, and W without ``W_circ``.  It takes a list of
replication streams and quantiles the durations of a group of them in one
call.  The ``rate`` and ``tail`` replications and the embedding check use
it.

``W_circ`` enters the deviation only as ``sigma @ P0 @ W_circ``, and
``sigma @ P0 = 0``, so the integers where it bends are no kinks of the
deviation or of any of the eight terms.  Both the sup and the decomposition
evaluate at the kinks alone (:func:`_breakpoints`): 0 and t, the events up
to t and the multiples of mu, and of gamma for the decomposition.
:func:`sup_deviation` takes its max over them as they come, duplicates and
all; the decomposition, whose rows are ordered in time, sorts them
(:func:`evaluation_grid`).

Time axes: cycle index (``B``, ``B_tilde``, ``N`` and its first-passage
inverse live here) versus physical time (the path ``S``, ``W_tilde``,
``W_circ`` and the assembled ``W``).  ``W_star`` is indexed by counting level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.special import ndtr

from .greeks import Greeks
from .models import (INDEPENDENT, Model, ModeUnsupportedError,
                     single_event_path)
from .paths import (PIECEWISE_CONSTANT, CountingPath, HorizonExceededError,
                    RegenerativePath, invert_counting)
from .rng import RngStream, bytes_generator

_MAX_TABLE_RATE = 500.0
_GROUP_DRIVERS = 32768   # first-block duration drivers quantiled together


class GridMismatchError(ValueError):
    """Input paths do not cover compatible grids."""


class IdentityViolationError(AssertionError):
    """The eight-term decomposition failed to telescope — an implementation
    bug, not a statistical event."""


# -- piecewise-linear paths on a unit grid ----------------------------------


class UnitGridPath:
    """Values on the integer grid 0..K, linearly interpolated in between."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        self._matrix = values[:, None] if values.ndim == 1 else values
        self._flat = values.ndim == 1
        if self._matrix.shape[0] < 2:
            raise ValueError("a unit-grid path needs at least two grid values")
        self._grid = np.arange(self._matrix.shape[0], dtype=float)

    @classmethod
    def from_increments(cls, increments: np.ndarray) -> "UnitGridPath":
        increments = np.asarray(increments, dtype=float)
        matrix = increments[:, None] if increments.ndim == 1 else increments
        values = np.zeros((matrix.shape[0] + 1, matrix.shape[1]))
        np.cumsum(matrix, axis=0, out=values[1:])
        return cls(values if increments.ndim == 2 else values[:, 0])

    @property
    def horizon(self) -> int:
        return self._matrix.shape[0] - 1

    @property
    def d(self) -> int:
        return self._matrix.shape[1]

    @property
    def values(self) -> np.ndarray:
        return self._matrix[:, 0] if self._flat else self._matrix

    def at(self, x) -> np.ndarray:
        """Interpolated value(s); scalar in -> (d,) out, (m,) in -> (m, d)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if x.size:
            lo, hi = x.min(), x.max()
            if lo < -1e-9 or hi > self.horizon + 1e-9:
                raise HorizonExceededError(
                    f"path covers [0, {self.horizon}], asked for "
                    f"[{lo:g}, {hi:g}]")
        if self.d == 1:
            out = np.interp(x, self._grid, self._matrix[:, 0])[:, None]
        else:
            out = np.empty((x.size, self.d))
            for j in range(self.d):
                out[:, j] = np.interp(x, self._grid, self._matrix[:, j])
        if self._flat:
            return out[0, 0] if scalar else out[:, 0]
        return out[0] if scalar else out


@dataclass(frozen=True)
class ScaledPath:
    """value_scale * base((t / time_scale)) — a rescaled unit-grid path."""

    base: UnitGridPath
    value_scale: float
    time_scale: float

    def at(self, t) -> np.ndarray:
        return self.value_scale * self.base.at(np.asarray(t, dtype=float)
                                               / self.time_scale)

    @property
    def horizon(self) -> float:
        return self.base.horizon * self.time_scale


# -- drivers ----------------------------------------------------------------


@dataclass(frozen=True)
class GaussianDriver:
    """Per-cycle standard normal increments behind the coupled drivers.

    ``unit_increments_b`` has shape (K, d) and drives the increment side;
    ``unit_increments_btilde`` has shape (K,) and drives the duration side.
    Under mode "independent" both are independent of the cycles; the other
    modes couple them per the contracts in :func:`_cycle_path`.
    """

    unit_increments_b: np.ndarray
    unit_increments_btilde: np.ndarray
    mode: str


def _draw_drivers(model: Model, horizon_cycles: int, mode: str,
                  rng: RngStream) -> GaussianDriver:
    """The K-cycle Gaussian drivers.  The stream layout is fixed: child(0)
    native cycle sampling (:func:`_cycle_path`), child(1) the increment-side
    driver, child(2) the duration-side driver, child(3) the independent
    Wiener path ``W_circ`` of :func:`build_bundle`'s W."""
    if mode not in model.coupling_modes:
        raise ModeUnsupportedError(
            f"model {model.family} supports modes {model.coupling_modes}, "
            f"not {mode!r}")
    k = int(horizon_cycles)
    if k < 2:
        raise ValueError(f"need at least 2 cycles, got {k}")
    g = rng.child(1).generator().standard_normal((k, model.d))
    g_dur = rng.child(2).generator().standard_normal(k)
    return GaussianDriver(g, g_dur, mode)


def _cycle_path(model: Model, driver: GaussianDriver, rng: RngStream,
                tau: np.ndarray | None = None) -> RegenerativePath:
    """The replication's cycles, by mode.

    * ``shared-innovations`` — the durations are ``tau``, by default the
      family's quantile of all K duration-driver increments, and the
      increments are ``increments_from(tau, g)``, ``g`` the matching leading
      rows of the increment driver.  Exact when the residual is Gaussian
      (gamma-gaussian: ``g`` is the model's own noise innovation); ``g`` is
      unused when the residual is degenerate (pareto-cycle, xi = tau).
    * ``independent`` — null baseline: child(0) samples all K cycles
      natively, apart from both drivers, and its draw order is the stream
      contract; no tracking guarantee.
    """
    k = driver.unit_increments_btilde.size
    if driver.mode == INDEPENDENT:
        return model.sample_path(k, rng.child(0))
    if tau is None:
        tau = model.tau_from_gaussian(driver.unit_increments_btilde)
    xi = model.increments_from(tau, driver.unit_increments_b[:tau.size])
    return single_event_path(tau, xi, model.interpolation)


def _cycles_to_cover(span: float, greeks: Greeks) -> int:
    """Cycles whose renewal time often passes ``span``: the mean renewal
    count plus one of its standard deviations, sqrt(span*gamma)/mu.

    A block that falls short is extended by :func:`_durations_past`, so a
    tight block trades an occasional short second block for fewer
    quantiles past t."""
    return int(math.ceil(span / greeks.mu
                         + math.sqrt(span * greeks.gamma) / greeks.mu + 1.0))


def _durations_past(model: Model, g_durs: Sequence[np.ndarray],
                    greeks: Greeks, t: float) -> list[np.ndarray]:
    """Per duration driver, the quantile durations of its leading cycles,
    block by block until the renewal time reaches t or the driver ends.

    Each round quantiles, in one call, a block of every driver still short
    of t: first a block sized from mu and gamma (:func:`_cycles_to_cover`),
    which often suffices, then short blocks sized from what each still
    lacks.  The quantile is elementwise, so each duration has the bits it
    has in its own driver's full K-cycle array.  Each running renewal time
    continues ``np.cumsum`` from its last value, so it equals, bit for bit,
    the last renewal time of the path its durations build.
    """
    blocks = [[] for _ in g_durs]
    reach = [0.0] * len(g_durs)
    done = [0] * len(g_durs)
    short = list(range(len(g_durs)))
    while short:
        stops = [min(g_durs[i].size,
                     done[i] + _cycles_to_cover(t - reach[i], greeks))
                 for i in short]
        tau = model.tau_from_gaussian(np.concatenate(
            [g_durs[i][done[i]:stop] for i, stop in zip(short, stops)]))
        at = 0
        for i, stop in zip(short, stops):
            block = tau[at:at + stop - done[i]]
            at += block.size
            blocks[i].append(block)
            reach[i] = float(
                np.cumsum(np.concatenate(([reach[i]], block)))[-1])
            done[i] = stop
        short = [i for i in short if reach[i] < t and done[i] < g_durs[i].size]
    return [np.concatenate(b) for b in blocks]


# -- Poisson embedding ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _poisson_cdf(rate: float) -> np.ndarray:
    """Read-only CDF table of Poisson(rate), built once per rate."""
    if not 0 < rate <= _MAX_TABLE_RATE:
        raise ValueError(
            f"rate must lie in (0, {_MAX_TABLE_RATE:g}], got {rate}")
    terms = [math.exp(-rate)]
    k, cdf = 0, terms[0]
    while cdf < 1.0 - 1e-16 and k < 40 + int(10 * rate):
        k += 1
        terms.append(terms[-1] * rate / k)
        cdf += terms[-1]
    table = np.cumsum(terms)
    table.flags.writeable = False
    return table


def poisson_jump_counts(increments: np.ndarray, rate: float) -> np.ndarray:
    """Per driver increment g, the Poisson(rate) quantile at Phi(g): exactly
    Poisson for standard normal increments; needs 0 < rate <= 500."""
    return np.searchsorted(_poisson_cdf(float(rate)), ndtr(increments),
                           side="left")


def _unit_jump_counts(btilde: UnitGridPath, rate: float,
                      n_units: int) -> tuple[np.ndarray, np.ndarray]:
    """The driver increments over the first ``n_units`` unit intervals and
    their Poisson(rate) quantile jump counts."""
    increments = np.diff(btilde.values[:n_units + 1])
    return increments, poisson_jump_counts(increments, rate)


def _jump_count(btilde: UnitGridPath, rate: float, n_units: int,
                needed: int) -> int:
    """The jump count over the first ``n_units`` units when it is below
    ``needed``; otherwise some count of at least ``needed``.

    The counts are nonnegative, so a prefix holding ``needed`` jumps settles
    the check.  The prefix is the mean number of units ``needed`` jumps take
    plus three standard deviations of its jump count; only a short prefix
    widens to all units, whose count a failure reports.
    """
    prefix = min(n_units, int(math.ceil(
        (needed + 3.0 * math.sqrt(needed)) / rate + 1.0)))
    count = int(_unit_jump_counts(btilde, rate, prefix)[1].sum())
    if count < needed and prefix < n_units:
        count = int(_unit_jump_counts(btilde, rate, n_units)[1].sum())
    return count


def build_poisson_from_brownian(btilde: UnitGridPath, greeks: Greeks,
                                horizon: float) -> CountingPath:
    """Counting process on [0, horizon] derived measurably from the driver.

    Per unit interval [k, k+1) the jump count is the Poisson(lambda) quantile
    of the standard normal CDF of the driver increment — so counts are
    exactly Poisson marginally and are a deterministic function of the
    driver.  Jump positions inside each interval are uniform draws from a
    generator seeded by hashing the increment values, which keeps the whole
    construction measurable with respect to the driver path.
    """
    n_units = int(horizon)
    if n_units < 1:
        raise ValueError(f"horizon must be at least 1 unit, got {horizon}")
    if n_units > btilde.horizon:
        raise GridMismatchError(
            f"driver covers {btilde.horizon} units, horizon asks {n_units}")
    increments, counts = _unit_jump_counts(btilde, greeks.lam, n_units)
    total = int(counts.sum())
    gen = bytes_generator(increments.tobytes())
    offsets = gen.random(total)
    times = np.repeat(np.arange(n_units, dtype=float), counts) + offsets
    times.sort()
    return CountingPath(jump_times=times)


# -- Wiener surrogates and the assembled process ----------------------------


def build_inverse_wiener(btilde: UnitGridPath, greeks: Greeks) -> ScaledPath:
    """Scalar Wiener surrogate for the renewal-count fluctuation.

    ``-sqrt(mu) * btilde(u / mu)``: Brownian scaling gives variance u; the
    sign reflects that longer cycles mean fewer renewals by time u.
    """
    if greeks.mu <= 0:
        raise ValueError("needs mu > 0")
    return ScaledPath(base=btilde, value_scale=-math.sqrt(greeks.mu),
                      time_scale=greeks.mu)


def build_timechange_wiener(b: UnitGridPath, greeks: Greeks) -> ScaledPath:
    """d-dim Wiener surrogate on the counting-level axis.

    ``sqrt(lambda) * b(s / lambda)``: at integer levels this is the exact
    Brownian time change of the increment driver.
    """
    if greeks.lam <= 0:
        raise ValueError("needs lambda > 0")
    return ScaledPath(base=b, value_scale=math.sqrt(greeks.lam),
                      time_scale=greeks.lam)


@dataclass(frozen=True)
class AssembledW:
    """The assembled d-dimensional Wiener path.

        W(t) = pinv(sigma) @ (v W*(t/gamma) / sqrt(lambda)
                              - mu alpha Wt(t) / (lambda sqrt(gamma)))
               + P0 @ Wc(t)

    with W* the level-axis surrogate, Wt the scalar surrogate, and Wc an
    independent Wiener path carrying the null-space component through
    ``P0 = greeks.null_projector``.  Without Wc (``wcirc=None``, as
    :func:`sup_inputs` builds W) the last term is left out; ``sigma @ P0``
    is zero, so no deviation reads it.

    At d = 1 every product is a scalar multiply (:func:`_times`), and a
    final ``+ 0.0`` turns a zero into the +0.0 the matmuls give.
    """

    wstar: ScaledPath
    wtilde: ScaledPath
    wcirc: ScaledPath | None
    greeks: Greeks

    def at(self, t) -> np.ndarray:
        """W(t) for scalar or array t; rows are time points."""
        g = self.greeks
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        star = np.atleast_2d(self.wstar.at(t / g.gamma))
        tilde = np.atleast_1d(self.wtilde.at(t))
        core = _times(star, g.v) / math.sqrt(g.lam) \
            - np.outer(tilde, g.alpha) * (g.mu / (g.lam * math.sqrt(g.gamma)))
        out = _times(core, g.sigma_pinv)
        if self.wcirc is not None:
            out += _times(np.atleast_2d(self.wcirc.at(t)), g.null_projector)
        if g.d == 1:
            out += 0.0
        return out[0] if scalar else out


def _times(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix``; a 1x1 matrix multiplies as a scalar.

    A one-term product is rounded once either way, so the bits agree, but
    for the sign of a zero: the matmul sums the product onto +0.0, the
    scalar multiply keeps ``0.0 * -0.5 == -0.0``.
    """
    return rows * matrix[0, 0] if matrix.shape == (1, 1) else rows @ matrix


def assemble_W(wstar: ScaledPath, wtilde: ScaledPath,
               wcirc: ScaledPath | None, greeks: Greeks) -> AssembledW:
    """Combine the surrogates into the assembled Wiener path.

    Requires the independent path, when given, to be d-dimensional and all
    horizons to cover a common positive physical-time span.
    """
    if wcirc is not None and wcirc.base.d != greeks.d:
        raise GridMismatchError(
            f"independent path has d={wcirc.base.d}, parameters say {greeks.d}")
    if wstar.base.d != greeks.d:
        raise GridMismatchError(
            f"level-axis surrogate has d={wstar.base.d}, parameters say {greeks.d}")
    spans = [wstar.horizon * greeks.gamma, wtilde.horizon]
    if wcirc is not None:
        spans.append(wcirc.horizon)
    if min(spans) <= 0:
        raise GridMismatchError("assembled path would cover an empty time span")
    return AssembledW(wstar=wstar, wtilde=wtilde, wcirc=wcirc, greeks=greeks)


# -- bundles ----------------------------------------------------------------


@dataclass(frozen=True)
class CouplingBundle:
    """Everything one replication of the pipeline produces."""

    driver: GaussianDriver
    b: UnitGridPath
    btilde: UnitGridPath
    n_path: CountingPath
    wtilde: ScaledPath
    wstar: ScaledPath
    wcirc: ScaledPath
    w: AssembledW
    greeks: Greeks
    horizon_cycles: int

    def first_passage(self, u: float) -> float:
        """First-passage inverse of the scaled counting process at time u.

        Ceiling semantics at integer levels, matching
        :func:`regenlab.paths.invert_counting`.
        """
        return invert_counting(self.n_path, float(u) / self.greeks.gamma)


def horizon_cycles_for(t: float, mu: float) -> int:
    """Cycle count that covers physical horizon t with a generous margin."""
    units = t / mu
    return int(math.ceil(1.15 * units + 12.0 * math.sqrt(units + 1.0) + 50.0))


def build_bundle(model: Model, greeks: Greeks, t: float, mode: str,
                 rng: RngStream) -> tuple[RegenerativePath, CouplingBundle]:
    """Run the full pipeline for one replication over horizon t.

    Draws cycles and drivers, embeds the Poisson process, builds the three
    Wiener surrogates and the assembled W, and verifies that every component
    actually covers the requested horizon (raising HorizonExceededError with
    a diagnostic when the generous default margin is ever insufficient).

    Every array has its full K-cycle length, K = ``horizon_cycles_for``:
    the eight-term decomposition (``phis``) and ``couple`` read the jump
    times and the cycles past t.  The sup-only runs (``rate``, ``tail`` and
    the embedding check) call :func:`sup_inputs` instead.
    """
    k = _horizon_cycles(greeks, t)
    return _build(model, greeks, t, _draw_drivers(model, k, mode, rng), rng,
                  None, full=True)


def sup_inputs(model: Model, greeks: Greeks, t: float, mode: str,
               rngs: Sequence[RngStream]
               ) -> Iterator[tuple[RegenerativePath, AssembledW]]:
    """Per stream of ``rngs``, in order, the path and the assembled W of
    :func:`build_bundle`, built only as far as :func:`sup_deviation` reads
    them on [0, t].  One replication is one stream: ``sup_inputs(...,
    [rng])``.

    The same stream draws, the same three horizon checks, and the same W
    but for ``W_circ``, which no deviation reads: child(3) is never drawn.
    In ``shared-innovations`` mode the path stops at the first cycle whose
    renewal time reaches t, and no Poisson jump is placed: the jump-count
    check needs only the per-unit counts, summed over a prefix of the units
    that usually holds enough jumps.  Every value of S and of W's
    surrogates on [0, t] keeps its bits, so ``sup_deviation`` returns what
    it returns on the full bundle, up to the rounding of
    ``sigma @ P0 @ W_circ`` where the null-space projector is nonzero (a
    rank-deficient sigma; exactly zero at sigma = 0).  A replication fails
    here exactly when it fails there, as its own inputs are built.

    The streams go in groups of about ``_GROUP_DRIVERS`` first-block
    drivers: a group's drivers are drawn, and its durations quantiled
    together (:func:`_durations_past`), before its first inputs come out.
    """
    k = _horizon_cycles(greeks, t)
    size = max(1, _GROUP_DRIVERS // _cycles_to_cover(t, greeks))
    for lo in range(0, len(rngs), size):
        group = rngs[lo:lo + size]
        drivers = [_draw_drivers(model, k, mode, rng) for rng in group]
        taus = [None] * len(group)
        if mode != INDEPENDENT:
            taus = _durations_past(
                model, [d.unit_increments_btilde for d in drivers], greeks, t)
        for rng, driver, tau in zip(group, drivers, taus):
            yield _build(model, greeks, t, driver, rng, tau, full=False)


def _horizon_cycles(greeks: Greeks, t: float) -> int:
    """K = ``horizon_cycles_for(t, mu)``, for a positive horizon t."""
    if t <= 0:
        raise ValueError(f"horizon must be positive, got {t}")
    return horizon_cycles_for(t, greeks.mu)


def _build(model: Model, greeks: Greeks, t: float, driver: GaussianDriver,
           rng: RngStream, tau: np.ndarray | None, full: bool):
    """The stages both builders share after the drivers, in their fixed
    order: the cycles (``tau`` the leading durations, when quantiled
    already), the path's reach, the jump count and level checks, the Wiener
    surrogates and W."""
    k = driver.unit_increments_btilde.size
    path = _cycle_path(model, driver, rng, tau)
    if path.horizon < t:
        raise HorizonExceededError(
            f"{k} cycles reach only {path.horizon:g} < t={t:g}")
    b = UnitGridPath.from_increments(driver.unit_increments_b)
    btilde = UnitGridPath.from_increments(driver.unit_increments_btilde)
    needed_jumps = int(math.floor(t / greeks.gamma)) + 1
    if full:
        n_path = build_poisson_from_brownian(btilde, greeks, horizon=k)
        n_jumps = n_path.n_jumps
    else:
        n_jumps = _jump_count(btilde, greeks.lam, k, needed_jumps)
    if n_jumps < needed_jumps:
        raise HorizonExceededError(
            f"counting process has {n_jumps} jumps, "
            f"needs {needed_jumps} to cover t={t:g}")
    if needed_jumps / greeks.lam > k:
        raise HorizonExceededError(
            f"level {needed_jumps} lies beyond the driver grid of {k} units")
    wtilde = build_inverse_wiener(btilde, greeks)
    wstar = build_timechange_wiener(b, greeks)
    if not full:
        return path, assemble_W(wstar, wtilde, None, greeks)
    circ_incs = rng.child(3).generator().standard_normal(
        (int(math.ceil(t)) + 2, greeks.d))
    wcirc = ScaledPath(base=UnitGridPath.from_increments(circ_incs),
                       value_scale=1.0, time_scale=1.0)
    w = assemble_W(wstar, wtilde, wcirc, greeks)
    bundle = CouplingBundle(driver=driver, b=b, btilde=btilde, n_path=n_path,
                            wtilde=wtilde, wstar=wstar, wcirc=wcirc, w=w,
                            greeks=greeks, horizon_cycles=k)
    return path, bundle


# -- evaluation grids and the decomposition ---------------------------------


def _breakpoints(path: RegenerativePath, t: float,
                 lattices: Sequence[float] = ()) -> list[np.ndarray]:
    """The kinks of [0, t] in pieces, in this order: the path events up to
    t, 0 and t, and the multiples up to t of each lattice spacing.  A piece
    may repeat points of another."""
    pieces = [path.event_times[path.event_times <= t], np.array([0.0, t])]
    for spacing in lattices:
        if spacing > 0:
            multiples = _multiples(spacing, t)
            pieces.append(multiples[multiples <= t])
    return pieces


def evaluation_grid(path: RegenerativePath, t: float, grid_step: float = 1.0,
                    lattices: Sequence[float] = ()) -> np.ndarray:
    """Sorted unique points of [0, t]: 0, t, the path events and the
    multiples of each lattice spacing.

    With the mean duration among the lattices (and the duration-variance
    ratio gamma for the first-passage steps), every term of the deviation
    is linear between consecutive grid points: the path between its events,
    the unit-grid Wiener surrogates, read at ``u/mu``, between the multiples
    of the mean duration, the first-passage level between multiples of
    gamma.  Only the jumps at events and lattice points are
    missing, and :func:`sup_deviation` and :func:`phi_decomposition` add
    their left limits.  Only the decomposition, whose rows are in time
    order, needs the points sorted; :func:`sup_deviation` takes the same
    breakpoints unsorted.

    ``grid_step`` is ignored; ROADMAP item 1b deletes it.
    """
    return np.unique(np.concatenate(_breakpoints(path, t, lattices)))


def _multiples(spacing: float, t: float) -> np.ndarray:
    """``spacing * k`` for k = 0 .. floor(t/spacing) + 1: every multiple in
    [0, t] even when the quotient rounds down, and then one past t."""
    return spacing * np.arange(0.0, math.floor(t / spacing) + 2.0)


@dataclass(frozen=True)
class PhiDecomposition:
    """The eight error terms at the evaluation points, plus the identity audit.

    Rows are in ``u = grid[i]`` order.  ``left[i]`` marks a left-limit row:
    at each event and each multiple of gamma in (0, t], where the path, the
    renewal count or the first-passage level jumps, a left row holding the
    limit from below comes just before the right row at the same ``u``.
    ``phi[q-1][i]`` is the d-vector value of term q at row i.  The sum of the
    eight terms minus ``S(u) - kappa*u - sigma*W(u)`` is the residual; its
    max-norm over all rows must vanish to floating precision.
    """

    grid: np.ndarray
    left: np.ndarray
    s_values: np.ndarray
    w_values: np.ndarray
    phi: tuple[np.ndarray, ...]
    deviation: np.ndarray
    residual: float
    tolerance: float

    def sup_per_term(self) -> np.ndarray:
        """Max-norm supremum of each term over [0, t], shape (8,)."""
        return np.array([float(np.max(np.abs(p))) for p in self.phi])

    def sup_deviation(self) -> float:
        return float(np.max(self.deviation))


def phi_decomposition(path: RegenerativePath, bundle: CouplingBundle,
                      t: float, grid_step: float = 1.0) -> PhiDecomposition:
    """Compute the eight-term decomposition and verify it telescopes.

    Every term is linear between consecutive points of the evaluation grid
    (with the mean-duration and gamma lattices), so the right rows there and
    the left rows at the jumps give each term's exact sup over [0, t].
    ``grid_step`` is ignored; ROADMAP item 1b deletes it.

    Raises IdentityViolationError when the residual of any row exceeds
    ``1e-8 * (1 + max |S|)`` — that can only mean an implementation bug.

    The first-passage level of a right row is one plus the number of
    multiples of gamma in (0, u], the right-continuous inverse: the count at
    the passage time then always equals the level, which keeps the
    telescoping identity exact.  A left row counts the multiples in (0, u).
    Both count the same products ``gamma * k`` the grid holds, so a lattice
    point never falls on the wrong side of its own step.
    """
    g = bundle.greeks
    if path.d != g.d:
        raise GridMismatchError(f"path d={path.d} vs parameters d={g.d}")
    if t > path.horizon:
        raise HorizonExceededError(
            f"t={t:g} beyond simulated horizon {path.horizon:g}")
    right = evaluation_grid(path, t, lattices=(g.mu, g.gamma))
    steps = _multiples(g.gamma, t)
    count = np.floor(right / g.gamma).astype(np.int64)  # off by one at most
    count += steps[count + 1] <= right
    count -= steps[count] > right        # now the multiples of gamma in (0, u]
    on_step = np.flatnonzero((count > 0) & (steps[count] == right))
    events = path.event_times[path.event_times <= t]
    on_event = np.searchsorted(right, events)
    rows_at = np.ones(right.size, dtype=np.int64)
    rows_at[on_step] = rows_at[on_event] = 2
    point = np.repeat(np.arange(right.size), rows_at)   # grid point of a row
    is_left = np.append(point[:-1] == point[1:], False)
    after = np.cumsum(rows_at)               # one past each point's right row
    grid = right[point]
    s_right, m_right, s_left, m_left = _path_on_grid(path, right, on_event)
    s_u = s_right[point]
    m_u = m_right[point]
    levels = count[point] + 1
    # left limits: S and m jump at events, the level at multiples of gamma
    s_u[after[on_event] - 2] = s_left
    m_u[after[on_event] - 2] = m_left
    levels[after[on_step] - 2] -= 1

    # the terms read the surrogates, the target reads the assembled W: the
    # identity check compares the two
    phi = _phi_terms(path, bundle, grid, s_u, m_u, levels,
                     np.atleast_1d(bundle.wtilde.at(right))[point],
                     np.atleast_2d(bundle.wstar.at(right / g.gamma))[point])
    w_u = np.atleast_2d(bundle.w.at(right))[point]
    target = s_u - np.outer(grid, g.kappa) - w_u @ g.sigma
    total = sum(phi)
    residual = float(np.max(np.abs(total - target)))
    tolerance = 1e-8 * (1.0 + float(np.max(np.abs(s_u))))
    if residual > tolerance:
        raise IdentityViolationError(
            f"decomposition residual {residual:.3e} exceeds tolerance "
            f"{tolerance:.3e} — the eight terms failed to telescope")
    deviation = np.max(np.abs(target), axis=1)
    return PhiDecomposition(grid=grid, left=is_left, s_values=s_u,
                            w_values=w_u, phi=phi, deviation=deviation,
                            residual=residual, tolerance=tolerance)


def _path_on_grid(path: RegenerativePath, right: np.ndarray,
                  on_event: np.ndarray) -> tuple[np.ndarray, ...]:
    """(S, m) at the grid points ``right`` and their left limits (S(e-),
    m(e-)) at the events, from ``on_event``, the grid position of each
    event up to the end of the grid.

    The grid holds every such event, so the events at or before
    ``right[i]`` are those whose position is at most ``i``: a cumulative
    count, which also counts duplicate event times, and the count one row
    up gives the events strictly before.  A cycle's last event sits at its
    renewal time, so m counts those last events the same way.  A
    piecewise-linear path is continuous: it is interpolated on the grid and
    its left limits are its values.
    """
    size = right.size
    upto = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(on_event, minlength=size), out=upto[1:])
    last = path.cycle_event_ptr[1:] - 1
    done = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(on_event[last[last < on_event.size]],
                          minlength=size), out=done[1:])
    if path.interpolation == PIECEWISE_CONSTANT:
        padded = np.concatenate([np.zeros((1, path.d)),
                                 path.event_values[:on_event.size]])
        s_right, s_left = padded[upto[1:]], padded[upto[on_event]]
    else:
        s_right = path.evaluate(right)
        s_left = s_right[on_event]
    return s_right, done[1:], s_left, done[on_event]


def _phi_terms(path: RegenerativePath, bundle: CouplingBundle,
               u: np.ndarray, s_u: np.ndarray, m_u: np.ndarray,
               levels: np.ndarray, wtilde_u: np.ndarray,
               wstar_scaled: np.ndarray) -> tuple[np.ndarray, ...]:
    """The eight terms on rows at times ``u``, given each row's path value
    ``s_u``, renewal count ``m_u``, first-passage level (right values or
    left limits alike) and the surrogates ``Wt(u)`` and ``W*(u/gamma)``;
    each term has shape (len(u), d).  What depends on the level alone is
    evaluated once per level.
    """
    g = bundle.greeks
    jump_times = bundle.n_path.jump_times
    top = int(levels.max())
    if top > jump_times.size:
        raise HorizonExceededError(
            f"rows need counting level {top}, "
            f"only {jump_times.size} jumps recorded")
    passage = jump_times[:top]              # first passage to levels 1..top
    if math.floor(passage[-1]) > path.n_cycles:
        raise HorizonExceededError(
            f"first passage reaches cycle {math.floor(passage[-1])}, "
            f"only {path.n_cycles} simulated")
    k = levels - 1
    iy = np.floor(passage).astype(np.int64)
    s_at_iy = path.prefix_xi[iy]
    t_iy = path.renewal_times[iy]
    b_y = np.atleast_2d(bundle.b.at(passage))
    wstar_level = np.atleast_2d(bundle.wstar.at(np.arange(1.0, top + 1.0)))
    level_times = g.gamma * np.arange(1, top + 1)  # phi4/phi8: exact cancel

    sqrt_lam = math.sqrt(g.lam)
    # terms 3, 4 and 6 depend on the level alone
    phi3 = (s_at_iy - np.outer(t_iy, g.beta)
            + g.mu * np.outer(passage, g.alpha) - b_y @ g.v)[k]
    phi4 = np.outer(t_iy - level_times, g.beta)[k]
    phi6 = ((b_y - wstar_level / sqrt_lam) @ g.v)[k]
    s_at_m = path.prefix_xi[m_u]
    phi1 = s_u - s_at_m
    phi2 = s_at_m - s_at_iy[k]
    phi5 = -g.mu * np.outer(
        passage[k] - u / (g.lam * g.gamma)
        - wtilde_u / (g.lam * math.sqrt(g.gamma)), g.alpha)
    phi7 = ((wstar_level[k] - wstar_scaled) @ g.v) / sqrt_lam
    phi8 = np.outer(level_times[k] - u, g.beta)
    return (phi1, phi2, phi3, phi4, phi5, phi6, phi7, phi8)


def sup_deviation(path: RegenerativePath, w: AssembledW, greeks: Greeks,
                  t: float, grid_step: float = 1.0) -> float:
    """The exact sup over [0, t] of |S(u) - kappa*u - sigma*W(u)|.

    ``W_tilde`` and ``W_star`` are unit-grid interpolants read at ``u/mu``
    and ``(u/gamma)/lambda``, and gamma*lambda = mu, so they bend only at
    the multiples of mu; S bends or jumps only at its events; kappa*u is
    linear.  ``W_circ`` enters sigma*W as ``sigma @ P0 @ W_circ``, and
    ``sigma @ P0 = 0``, so it adds no kink.  The deviation is therefore
    linear between consecutive points of {0, t}, the events up to t and the
    multiples of mu up to t, for every sigma: the max over those kinks is
    the sup.  ``grid_step`` is ignored; ROADMAP item 1b deletes it.

    A piecewise-constant path jumps at its events, so the max also runs over
    the left limits ``S(e-) - kappa*e - sigma*W(e)`` at the events
    ``e <= t`` (W is continuous).  A max needs no order: the points are the
    breakpoint pieces as they come, unsorted and with repeats, and each
    point's value has the bits it has on the sorted grid.
    """
    if t > path.horizon:
        raise HorizonExceededError(
            f"t={t:g} beyond simulated horizon {path.horizon:g}")
    pieces = _breakpoints(path, t, lattices=(greeks.mu,))
    points = np.concatenate(pieces)
    w_sigma = _times(np.atleast_2d(w.at(points)), greeks.sigma)
    dev = path.evaluate(points) - np.outer(points, greeks.kappa) - w_sigma
    sup = float(np.max(np.abs(dev)))
    events = pieces[0]
    if path.interpolation != PIECEWISE_CONSTANT or not events.size:
        return sup
    dev = path.evaluate(events, side="left") \
        - np.outer(events, greeks.kappa) - w_sigma[:events.size]
    return max(sup, float(np.max(np.abs(dev))))
