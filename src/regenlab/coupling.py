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
  identity, which ``phis`` and ``couple`` verify on every bundle they
  decompose; ``rate`` and ``tail`` read only the sup and do not check it.

The drivers are *surrogates*: explicitly computable stand-ins for couplings
whose existence classical strong-approximation theory guarantees without an
algorithm.  Their error rates are measured by the experiment harness, never
assumed.

One core (:func:`_path_and_w`) builds, from a replication's drivers, the
cycles, checks that they reach t, and builds the surrogates and W without
``W_circ``: all that the sup over [0, t] reads.  :func:`sup_inputs` yields
it with the drivers drawn only as far as the sup reads them: the durations
block by block until the renewal time passes t, the surrogates' unit grids
at floor(t/mu) + 2 units; it takes a list of replication streams and
quantiles the durations of a group of them in one call (``rate``, ``tail``
and the embedding check).  :func:`build_bundle` draws the drivers for a
fixed K cycles and adds what only the eight-term decomposition (``phis``)
and ``couple`` read: the surrogates over all K units, the Poisson jumps
over them, with their level checks, and ``W_circ`` assembled into W.

``W_circ`` enters the deviation only as ``sigma @ P0 @ W_circ``, and
``sigma @ P0 = 0``, so the integers where it bends are no kinks of the
deviation or of any of the eight terms, and W adds it only where P0 is
nonzero.  Both the sup and the decomposition evaluate at the kinks alone:
0 and t, the events up to t and the multiples of mu, and of gamma for the
decomposition.  :func:`sup_deviation` walks them unsorted, in blocks of at
most ``_SUP_BLOCK`` points whose arrays stay below glibc's mmap threshold,
so that a long horizon reuses heap memory instead of faulting fresh pages
in every replication.  It reads S and its left limits at the events by
index (``RegenerativePath.event_rows``) and at the multiples of mu through
``RegenerativePath.evaluate``; the path holds the rules for tied events,
the time before the first event and the left limits.  W's unit grids are
read by cell index (:meth:`UnitGridPath.at`), with ``np.interp``'s bits.  The
decomposition, whose rows are ordered in time, sorts the kinks
(:func:`evaluation_grid`) and reads S on them by counting events
(:func:`_path_on_grid`).

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

from ._normal import normal_cdf
from .greeks import Greeks
from .models import INDEPENDENT, Model, ModeUnsupportedError
from .paths import (PIECEWISE_CONSTANT, CountingPath, HorizonExceededError,
                    RegenerativePath, invert_counting, single_event_path)
from .rng import RngStream, bytes_generator

_MAX_TABLE_RATE = 500.0
_GROUP_DRIVERS = 32768   # first-block duration drivers quantiled together
_DRAW_CAP = 100   # duration draws per surrogate unit before a path gives up
# kinks per sup block: 64 KB a column, below glibc's 128 KB mmap threshold,
# so a block's arrays come from and go back to the heap, not the OS
_SUP_BLOCK = 8192


class GridMismatchError(ValueError):
    """Input paths do not cover compatible grids."""


class IdentityViolationError(AssertionError):
    """The eight-term decomposition failed to telescope — an implementation
    bug, not a statistical event."""


# -- piecewise-linear paths on a unit grid ----------------------------------


class UnitGridPath:
    """Values on the integer grid 0..K, linearly interpolated in between:
    the running sums, from 0, of K unit increments (:meth:`from_increments`,
    the one constructor).

    The values are held one contiguous row per dimension, followed by a copy
    of the last value, so that every point of [0, K], K included, has a cell
    with a right end."""

    @classmethod
    def from_increments(cls, increments: np.ndarray) -> "UnitGridPath":
        """The path of ``increments``, (K, d); 1-d increments are one
        column.  Raises ValueError on no increment or on a value that is not
        finite."""
        increments = np.asarray(increments, dtype=float)
        matrix = increments[:, None] if increments.ndim == 1 else increments
        if matrix.shape[0] < 1:
            raise ValueError("a unit-grid path needs at least two grid values")
        columns = np.zeros((matrix.shape[1], matrix.shape[0] + 2))
        columns[:, 1:-1] = matrix.T
        # the sums start at the +0.0 of the origin, so none is -0.0; a
        # running sum stays inf or NaN once it is, so the sums are finite
        # when the last is
        np.cumsum(columns[:, :-1], axis=1, out=columns[:, :-1])
        if not np.all(np.isfinite(columns[:, -2])):
            raise ValueError("unit-grid values must be finite")
        columns[:, -1] = columns[:, -2]
        path = cls.__new__(cls)
        path._columns = columns
        return path

    @property
    def horizon(self) -> int:
        return self._columns.shape[1] - 2

    @property
    def d(self) -> int:
        return self._columns.shape[0]

    @property
    def values(self) -> np.ndarray:
        return self._columns[:, :-1].T

    def at(self, x) -> np.ndarray:
        """Interpolated values at the points ``x``, shape (m, d) for m
        points; a scalar is one point.

        Each value has the bits of ``np.interp`` on the grid, read by cell
        index instead of a search: in the cell j = floor(x),
        (v[j+1] - v[j]) * (x - j) + v[j], which is v[j] at a grid point.
        Points at most 1e-9 outside [0, K] take the end values.  Raises
        ValueError on a NaN point and HorizonExceededError beyond that
        overhang.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size:
            lo, hi = x.min(), x.max()
            if np.isnan(lo):
                raise ValueError("unit-grid points must not be NaN")
            if lo < -1e-9 or hi > self.horizon + 1e-9:
                raise HorizonExceededError(
                    f"path covers [0, {self.horizon}], asked for "
                    f"[{lo:g}, {hi:g}]")
            if lo < 0 or hi > self.horizon:
                x = np.clip(x, 0.0, self.horizon)
        whole = np.floor(x)
        cell = whole.astype(np.intp)
        frac = x - whole
        out = np.empty((self.d, x.size))
        for column, row in zip(self._columns, out):
            left = column.take(cell)
            np.subtract(column[1:].take(cell), left, out=row)
            row *= frac
            row += left
        return out.T


@dataclass(frozen=True)
class ScaledPath:
    """value_scale * base((t / time_scale)) — a rescaled unit-grid path."""

    base: UnitGridPath
    value_scale: float
    time_scale: float

    def at(self, t) -> np.ndarray:
        """Values at the times ``t``, shape (m, d) for m times."""
        values = self.base.at(np.asarray(t, dtype=float) / self.time_scale)
        values *= self.value_scale
        return values

    @property
    def horizon(self) -> float:
        return self.base.horizon * self.time_scale


# -- drivers ----------------------------------------------------------------


@dataclass(frozen=True)
class GaussianDriver:
    """Per-cycle standard normal increments behind the coupled drivers of
    :func:`build_bundle`.

    ``unit_increments_b`` has shape (K, d) and drives the increment side;
    ``unit_increments_btilde`` has shape (K,) and drives the duration side.
    Under mode "independent" both are independent of the cycles; the other
    modes couple them per the contracts in :func:`_path_and_w`.
    """

    unit_increments_b: np.ndarray
    unit_increments_btilde: np.ndarray
    mode: str


def _cycles_to_cover(span: float, greeks: Greeks) -> int:
    """Cycles whose renewal time often passes ``span``: the mean renewal
    count plus one of its standard deviations, sqrt(span*gamma)/mu.

    A block that falls short is extended by :func:`_durations_past`, so a
    tight block trades an occasional short second block for fewer
    quantiles past t."""
    return int(math.ceil(span / greeks.mu
                         + math.sqrt(span * greeks.gamma) / greeks.mu + 1.0))


def _durations_past(model: Model, gens: Sequence[np.random.Generator],
                    greeks: Greeks, t: float
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per duration-driver generator, the driver it drew and the quantile
    durations of its cycles, drawn block by block until the renewal time
    reaches t.

    Each round draws a block from every generator still short of t, and
    quantiles the round's blocks in one call: first a block sized from mu
    and gamma (:func:`_cycles_to_cover`), which often suffices, then short
    blocks sized from what each still lacks.  numpy fills a generator's
    draws sequentially and the quantile is elementwise, so each driver
    value and each duration has the bits it has in one long draw.  Each
    running renewal time continues the sequential sum from its last value
    (``np.add.accumulate`` on a buffer that starts at it), so it equals,
    bit for bit, the last renewal time of the path its durations build.  A
    generator stops short of t after ``_DRAW_CAP`` times the floor(t/mu)+2
    units of the surrogates, so that a broken duration law cannot loop
    forever: its path then fails the reach check of :func:`_path_and_w`.
    """
    cap = _DRAW_CAP * (math.floor(t / greeks.mu) + 2)
    drivers = [[] for _ in gens]
    blocks = [[] for _ in gens]
    reach = [0.0] * len(gens)
    done = [0] * len(gens)
    short = list(range(len(gens)))
    while short:
        g_durs = [gens[i].standard_normal(
            min(cap - done[i], _cycles_to_cover(t - reach[i], greeks)))
            for i in short]
        tau = model.tau_from_gaussian(np.concatenate(g_durs))
        running = np.empty(1 + max(g_dur.size for g_dur in g_durs))
        at = 0
        for i, g_dur in zip(short, g_durs):
            block = tau[at:at + g_dur.size]
            at += g_dur.size
            drivers[i].append(g_dur)
            blocks[i].append(block)
            sums = running[:block.size + 1]
            sums[0] = reach[i]
            sums[1:] = block
            reach[i] = float(np.add.accumulate(sums, out=sums)[-1])
            done[i] += block.size
        short = [i for i in short if reach[i] < t and done[i] < cap]
    return [(_joined(d), _joined(b)) for d, b in zip(drivers, blocks)]


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The concatenation of ``parts``; one part is returned uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
    return np.searchsorted(_poisson_cdf(float(rate)), normal_cdf(increments),
                           side="left")


def build_poisson_from_brownian(btilde: UnitGridPath, greeks: Greeks,
                                horizon: float) -> CountingPath:
    """Counting process on [0, horizon] derived measurably from the driver.

    Per unit interval [k, k+1) the jump count is the Poisson(lambda) quantile
    of the standard normal CDF of the driver increment — so counts are
    exactly Poisson marginally and are a deterministic function of the
    driver.  Jump positions inside each interval are uniform draws from a
    generator seeded by hashing the increment values, which keeps the whole
    construction measurable with respect to the driver path, which must be
    scalar (d = 1).
    """
    n_units = int(horizon)
    if n_units < 1:
        raise ValueError(f"horizon must be at least 1 unit, got {horizon}")
    if btilde.d != 1:
        raise GridMismatchError(f"driver has d={btilde.d}, needs a scalar one")
    if n_units > btilde.horizon:
        raise GridMismatchError(
            f"driver covers {btilde.horizon} units, horizon asks {n_units}")
    increments = np.diff(btilde.values[:n_units + 1, 0])
    counts = poisson_jump_counts(increments, greeks.lam)
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
    :func:`sup_inputs` builds W) or with a zero P0 (a full-rank sigma) the
    last term is left out; ``sigma @ P0`` is zero, so no deviation reads it.

    At d = 1 every product is a scalar multiply (:func:`_times`), and a
    final ``+ 0.0`` turns a zero into the +0.0 the matmuls give.  The
    arithmetic runs in place on the arrays the surrogates return, in the
    order of the formula, so each value has the bits of the formula.
    """

    wstar: ScaledPath
    wtilde: ScaledPath
    wcirc: ScaledPath | None
    greeks: Greeks

    def at(self, t) -> np.ndarray:
        """W at the times ``t``, shape (m, d) for m times."""
        g = self.greeks
        t = np.atleast_1d(np.asarray(t, dtype=float))
        core = _times(self.wstar.at(t / g.gamma), g.v)
        core /= math.sqrt(g.lam)
        tilde = np.outer(self.wtilde.at(t), g.alpha)
        tilde *= g.mu / (g.lam * math.sqrt(g.gamma))
        core -= tilde
        out = _times(core, g.sigma_pinv)
        if self.wcirc is not None and np.any(g.null_projector):
            out += _times(self.wcirc.at(t), g.null_projector)
        if g.d == 1:
            out += 0.0
        return out


def _times(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix``; a 1x1 matrix multiplies as a scalar, in place, so
    ``rows`` must be an array the caller owns.

    A one-term product is rounded once either way, so the bits agree, but
    for the sign of a zero: the matmul sums the product onto +0.0, the
    scalar multiply keeps ``0.0 * -0.5 == -0.0``.
    """
    if matrix.shape != (1, 1):
        return rows @ matrix
    rows *= matrix[0, 0]
    return rows


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
    """K, the fixed cycle count of :func:`build_bundle` and of the native
    sampler of mode ``independent``: it covers physical horizon t with a
    generous margin."""
    units = t / mu
    return int(math.ceil(1.15 * units + 12.0 * math.sqrt(units + 1.0) + 50.0))


def build_bundle(model: Model, greeks: Greeks, t: float, mode: str,
                 rng: RngStream) -> tuple[RegenerativePath, CouplingBundle]:
    """Run the full pipeline for one replication over horizon t: the path
    and W of :func:`sup_inputs`, but over K = ``horizon_cycles_for`` cycles
    and driver rows, plus what only the eight-term decomposition (``phis``)
    and ``couple`` read: the Poisson jumps over the K units, and ``W_circ``
    assembled into W.  Raises HorizonExceededError when the cycles do not
    reach t or the jumps do not pass level t/gamma within the driver grid.

    The stream layout of a replication is fixed: child(0) samples the cycles
    natively in mode ``independent``, child(1) draws the increment driver,
    child(2) the duration driver and child(3) the Wiener path ``W_circ``."""
    k = _horizon_cycles(model, greeks, t, mode)
    driver = GaussianDriver(
        rng.child(1).generator().standard_normal((k, model.d)),
        rng.child(2).generator().standard_normal(k), mode)
    tau = (None if mode == INDEPENDENT
           else model.tau_from_gaussian(driver.unit_increments_btilde))
    path, w = _path_and_w(model, greeks, t, rng, k, tau,
                          driver.unit_increments_b,
                          driver.unit_increments_btilde, k)
    n_path = build_poisson_from_brownian(w.wtilde.base, greeks, horizon=k)
    needed_jumps = int(math.floor(t / greeks.gamma)) + 1
    if n_path.n_jumps < needed_jumps:
        raise HorizonExceededError(
            f"counting process has {n_path.n_jumps} jumps, "
            f"needs {needed_jumps} to cover t={t:g}")
    if needed_jumps / greeks.lam > k:
        raise HorizonExceededError(
            f"level {needed_jumps} lies beyond the driver grid of {k} units")
    circ_incs = rng.child(3).generator().standard_normal(
        (int(math.ceil(t)) + 2, greeks.d))
    wcirc = ScaledPath(base=UnitGridPath.from_increments(circ_incs),
                       value_scale=1.0, time_scale=1.0)
    w = assemble_W(w.wstar, w.wtilde, wcirc, greeks)
    return path, CouplingBundle(
        driver=driver, b=w.wstar.base, btilde=w.wtilde.base, n_path=n_path,
        wtilde=w.wtilde, wstar=w.wstar, wcirc=wcirc, w=w, greeks=greeks,
        horizon_cycles=k)


def sup_inputs(model: Model, greeks: Greeks, t: float, mode: str,
               rngs: Sequence[RngStream]
               ) -> Iterator[tuple[RegenerativePath, AssembledW]]:
    """Per stream of ``rngs``, in order, the path and the assembled W that
    :func:`sup_deviation` reads on [0, t].  One replication is one stream:
    ``sup_inputs(..., [rng])``.

    The stream draws, cycles and surrogates of :func:`build_bundle`, drawn
    only as far as the sup reads them: no Poisson jump, no ``W_circ``
    (child(3)), and unit grids of floor(t/mu) + 2 units, enough for W on
    [0, t] with the rounding of ``(u/gamma)/lambda``.  In
    ``shared-innovations`` mode the duration driver is drawn block by block
    until the renewal time reaches t (:func:`_durations_past`), then topped
    up to the units, and the increment driver is drawn for the larger of
    the cycles and the units.  In ``independent`` mode both drivers are
    drawn for the units, and child(0) samples K native cycles: each
    family's draw order is fixed, so sampling past K would not extend a
    K-cycle draw, and ``runs/rate-independent`` would move.  numpy fills
    draws sequentially, so every value of S and of W's surrogates on
    [0, t] keeps its bits: ``sup_deviation`` returns what it returns on the
    full bundle, up to the rounding of ``sigma @ P0 @ W_circ`` where the
    null-space projector is nonzero (a rank-deficient sigma; exactly zero
    at sigma = 0).  A replication fails here only when its cycles fall
    short of t: independent mode's K cycles, or a duration driver at its
    cap; a counting process short of level t/gamma fails only the full
    bundle.

    The streams go in groups of about ``_GROUP_DRIVERS`` first-block
    drivers: a group's durations are drawn and quantiled together
    (:func:`_durations_past`) before its first inputs come out.
    """
    k = _horizon_cycles(model, greeks, t, mode)
    units = math.floor(t / greeks.mu) + 2
    size = max(1, _GROUP_DRIVERS // _cycles_to_cover(t, greeks))
    for lo in range(0, len(rngs), size):
        group = rngs[lo:lo + size]
        gens = [rng.child(2).generator() for rng in group]
        if mode == INDEPENDENT:
            drawn = [(gen.standard_normal(units), None) for gen in gens]
        else:
            drawn = _durations_past(model, gens, greeks, t)
        for rng, gen, (g_dur, tau) in zip(group, gens, drawn):
            if g_dur.size < units:
                g_dur = np.concatenate(
                    [g_dur, gen.standard_normal(units - g_dur.size)])
            rows = units if tau is None else max(tau.size, units)
            g = rng.child(1).generator().standard_normal((rows, model.d))
            yield _path_and_w(model, greeks, t, rng, k, tau, g, g_dur, units)


def _horizon_cycles(model: Model, greeks: Greeks, t: float, mode: str) -> int:
    """K = ``horizon_cycles_for(t, mu)``, for a positive horizon t and a
    mode the model supports."""
    if t <= 0:
        raise ValueError(f"horizon must be positive, got {t}")
    if mode not in model.coupling_modes:
        raise ModeUnsupportedError(
            f"model {model.family} supports modes {model.coupling_modes}, "
            f"not {mode!r}")
    return horizon_cycles_for(t, greeks.mu)


def _path_and_w(model: Model, greeks: Greeks, t: float, rng: RngStream,
                k: int, tau: np.ndarray | None, g: np.ndarray,
                g_dur: np.ndarray, units: int
                ) -> tuple[RegenerativePath, AssembledW]:
    """The core both builders share: the cycles, the check that they reach
    t, and W without ``W_circ`` from the surrogates on the first ``units``
    rows of the drivers ``g`` and ``g_dur`` (W covers [0, units * mu], to
    rounding).  In ``shared-innovations`` mode the durations are ``tau``,
    the quantiles of the leading rows of ``g_dur``, and the increments are
    ``increments_from(tau, g)`` on the matching rows of ``g``: exact when
    the residual is Gaussian (gamma-gaussian: ``g`` is the model's own noise
    innovation), ``g`` unused when it is degenerate (pareto-cycle, xi =
    tau).  In ``independent`` mode (``tau`` None), the null baseline,
    child(0) samples K cycles natively, apart from both drivers, in the
    family's fixed draw order; no tracking guarantee.
    """
    if tau is None:
        path = model.sample_path(k, rng.child(0))
    else:
        path = single_event_path(tau, model.increments_from(tau, g[:tau.size]),
                                 model.interpolation)
    if path.horizon < t:
        raise HorizonExceededError(
            f"{path.n_cycles} cycles reach only {path.horizon:g} < t={t:g}")
    b = UnitGridPath.from_increments(g[:units])
    btilde = UnitGridPath.from_increments(g_dur[:units])
    return path, assemble_W(build_timechange_wiener(b, greeks),
                            build_inverse_wiener(btilde, greeks), None, greeks)


# -- evaluation grids and the decomposition ---------------------------------


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
    order, needs the points sorted; :func:`sup_deviation` walks the same
    kinks, with mu the one lattice, unsorted and block by block.

    ``grid_step`` is ignored; ROADMAP item 1b deletes it.
    """
    pieces = [path.event_times[path.event_times <= t], np.array([0.0, t])]
    for spacing in lattices:
        if spacing > 0:
            multiples = _multiples(spacing, t)
            pieces.append(multiples[multiples <= t])
    return np.unique(np.concatenate(pieces))


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
                     bundle.wtilde.at(right)[point],
                     bundle.wstar.at(right / g.gamma)[point])
    w_u = bundle.w.at(right)[point]
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

    The counts are faster than ``path.evaluate`` and ``renewal_counts``,
    which search the events again for every point: read through those two,
    the decomposition took 11-27% longer on the piecewise-constant families
    at t = 1024 and 8192, with the same bits.
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
    left limits alike) and the surrogates' rows ``Wt(u)`` (len(u), 1) and
    ``W*(u/gamma)``; each term has shape (len(u), d).  What depends on the
    level alone is evaluated once per level.
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
    b_y = bundle.b.at(passage)
    wstar_level = bundle.wstar.at(np.arange(1.0, top + 1.0))
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
        - wtilde_u[:, 0] / (g.lam * math.sqrt(g.gamma)), g.alpha)
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
    ``e <= t`` (W is continuous).  A max needs no order: the kinks are
    walked in blocks of at most ``_SUP_BLOCK`` points, the events up to t
    first, then the multiples of mu, 0 included, and t; the multiples are
    made block by block, so no array spans all the kinks.  S and its left
    limits at the events are read by index (``path.event_rows``), at the
    multiples through ``path.evaluate``; both keep the path's rules for
    tied events, the time before the first event and the left limits, so
    each point's value has the bits it has on the sorted grid.
    """
    if t > path.horizon:
        raise HorizonExceededError(
            f"t={t:g} beyond simulated horizon {path.horizon:g}")
    times = path.event_times
    n = int(np.searchsorted(times, t, side="right"))   # the events up to t
    jumps = path.interpolation == PIECEWISE_CONSTANT
    mu = float(greeks.mu)
    count = math.floor(t / mu) + 2       # the candidates of _multiples
    while mu * (count - 1) > t:
        count -= 1                       # now the multiples up to t
    top = np.float64(0.0)
    for lo in range(0, n + count + 1, _SUP_BLOCK):
        hi = min(lo + _SUP_BLOCK, n + count + 1)
        u = times[lo:min(hi, n)]
        rows = []
        if u.size:
            right, left = path.event_rows(lo, lo + u.size)
            rows = [(0, right), (0, left)] if jumps else [(0, right)]
        if hi > n:      # row n + k: the k-th multiple of mu, t at k = count
            k0, k1 = max(lo, n) - n, hi - n
            multiples = np.arange(k0, k1, dtype=float)
            multiples *= mu
            if k1 > count:
                multiples[-1] = t
            rows.append((u.size, path.evaluate(multiples)))
            u = np.concatenate([u, multiples])
        top = np.maximum(top, _block_sup(u, rows, w, greeks))
    return float(top)


def _block_sup(u: np.ndarray, rows: Sequence[tuple[int, np.ndarray]],
               w: AssembledW, greeks: Greeks) -> np.float64:
    """Max of |s - kappa*u - sigma*W(u)| over one block's points ``u``, for
    each ``(start, s)`` of ``rows``: path values at the points
    ``u[start:start + len(s)]``."""
    w_sigma = _times(w.at(u), greeks.sigma)
    ku = np.multiply.outer(u, greeks.kappa)
    top = np.float64(0.0)
    for start, s in rows:
        stop = start + len(s)
        dev = s - ku[start:stop]
        dev -= w_sigma[start:stop]
        np.abs(dev, out=dev)
        top = np.maximum(top, dev.max())
    return top
