"""Experiments, certifications and the embedding check.

Four Monte Carlo experiments (deviation rate, deviation tail, per-term
diagnostics, maxima scaling), a registry of bound certifications against
exact oracles, and an embedding sanity check.

All replication goes through one primitive: ``_replicate`` runs a
replication function over every (horizon, replication) pair of an
experiment and maps its chunks through one ``_map_chunks`` call, so a run
opens at most one process pool.  A chunk hands the replication function
the streams of all its replications at once, and the function yields one
result per stream, in order; :func:`regenlab.coupling.sup_inputs`, which
builds what the sup reads, quantiles the durations of a group of them in
one call.  A failure belongs to the replication whose result was due, and
the message names that replication's stream address.  The certifications
draw nothing and open no pool: every oracle is a closed form, an exact
count or a deterministic quadrature.

Reproducibility contract: every random draw descends from the config's
``root_seed`` through an arithmetic stream index — replication ``r`` of
horizon ``i`` always gets the same stream — so results are bit-identical
for any ``workers`` count.  Chunk boundaries are fixed (``_CHUNK``
replications) and never depend on scheduling; the pool runs the costliest
chunks first, and the parent concatenates chunk results in canonical
(horizon, replication) order.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import gammainc, gammaincc, ndtr

from .bounds import (TailMoments, block_maximal_tail,
                     brownian_grid_increment_tail, brownian_sup_tail,
                     nagaev_tail, poisson_inverse_tail, random_sum_M0,
                     random_sum_nagaev_tail, renewal_count_tail,
                     validity_region)
from .config import ExperimentConfig
from .coupling import (build_bundle, phi_decomposition,
                       poisson_jump_counts, sup_deviation, sup_inputs)
from .greeks import Greeks
from .models import eta_moment, reference_greeks
from .rng import RngStream
from .stats import (MedianEstimate, bootstrap_slope_ci, loglog_slope,
                    median_ci, poisson_gof_pvalue, wilson_interval)

# Stream layout: each experiment kind owns a disjoint 2^34-wide index range;
# within it, replication r of horizon index i claims 4 consecutive indices
# (cycles, increment driver, duration driver, independent Wiener path).
_KIND_STREAM_IDS = {"rate": 0, "tail": 1, "phis": 2, "maxima": 3,
                    "embedding": 4}
_KIND_SPAN = 2 ** 34
_COMPONENTS = 4
_AUX_OFFSET = 2 ** 33          # bootstrap etc., far from replication streams
_CHUNK = 50                    # fixed so chunk boundaries never depend on workers

def replication_stream(root_seed: int, kind: str, t_index: int,
                       replications: int, rep: int) -> RngStream:
    """The dedicated stream of one replication; components via child(0..3)."""
    base = _KIND_STREAM_IDS[kind] * _KIND_SPAN \
        + (t_index * replications + rep) * _COMPONENTS
    return RngStream(root_seed=root_seed, stream_index=base)


def _aux_stream(root_seed: int, kind: str, offset: int = 0) -> RngStream:
    return RngStream(root_seed=root_seed,
                     stream_index=_KIND_STREAM_IDS[kind] * _KIND_SPAN
                     + _AUX_OFFSET + offset)


def _chunk_ranges(total: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]


def _map_chunks(fn: Callable, args: list, workers: int,
                costs: Sequence[float]) -> list:
    """``[fn(a) for a in args]``, through a pool of at most ``workers``
    processes, and no more processes than chunks, when that is two or more.

    The pool is given the chunks costliest first (``costs[i]`` is the cost
    of ``args[i]``; ties keep their order), so that no long chunk starts
    last while the other workers idle: largest-first scheduling (Graham
    1969).  The results come back in the order of ``args``.  As with
    ``Executor.map``, the first chunk in that order that raises raises
    here, and the chunks not yet started are cancelled.
    """
    workers = min(workers, len(args))
    if workers <= 1:
        return [fn(a) for a in args]
    futures = [None] * len(args)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for i in sorted(range(len(args)), key=costs.__getitem__,
                        reverse=True):
            futures[i] = pool.submit(fn, args[i])
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()


# -- the replication primitive ---------------------------------------------


def _replicate_chunk(args) -> list:
    rep_fn, cfg, greeks, kind, t_index, t, lo, hi = args
    model = cfg.build_model()
    streams = [replication_stream(cfg.root_seed, kind, t_index,
                                  cfg.replications, rep)
               for rep in range(lo, hi)]
    out = []
    try:
        for result in rep_fn(model, greeks, cfg, t, streams):
            out.append(result)
    except Exception as exc:
        # Name the stream address of the replication whose result was due
        # and keep the type, so the CLI exit code holds.  ``args`` travel
        # with the exception out of a pool worker; ``add_note`` needs 3.11.
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"replication root_seed={cfg.root_seed} "
                        f"kind={kind} t_index={t_index} rep={lo + len(out)}: "
                        f"{exc.args[0]}", *exc.args[1:])
        raise
    return out


def _replicate(rep_fn: Callable, cfg: ExperimentConfig, greeks: Greeks | None,
               horizons: Sequence[float], kind: str,
               workers: int) -> list[list]:
    """The results of every replication of every horizon, grouped per
    horizon in replication order.  ``rep_fn(model, greeks, cfg, t,
    streams)`` yields one result per stream of a chunk, in order.  The
    chunks of all horizons go through one ``_map_chunks`` call, a chunk's
    cost being its horizon times its replication count."""
    ranges = _chunk_ranges(cfg.replications)
    args = [(rep_fn, cfg, greeks, kind, t_index, float(t), lo, hi)
            for t_index, t in enumerate(horizons) for lo, hi in ranges]
    chunks = _map_chunks(_replicate_chunk, args, workers,
                         [t * (hi - lo) for *_, t, lo, hi in args])
    return [[r for c in chunks[i:i + len(ranges)] for r in c]
            for i in range(0, len(chunks), len(ranges))]


# -- sup-deviation per replication (rate and tail share it) -----------------


def _deviations(model, greeks, cfg, t, streams) -> Iterator[float]:
    for path, w in sup_inputs(model, greeks, t, cfg.mode, streams):
        dev = sup_deviation(path, w, greeks, t)
        del path, w   # not held while the next replication is built
        yield dev


# -- rate experiment --------------------------------------------------------


@dataclass(frozen=True)
class HorizonSummary:
    t: float
    n: int
    median: float
    ci_low: float
    ci_high: float
    mean: float
    q90: float


@dataclass(frozen=True)
class RateFit:
    """Log-log fit of the median sup-deviation against the horizon."""

    slope: float
    intercept: float
    slope_ci: tuple[float, float]
    per_t: tuple[HorizonSummary, ...]
    p: float
    threshold: float
    passed: bool
    deviations: tuple[tuple[float, ...], ...] = field(repr=False)


def run_rate_experiment(cfg: ExperimentConfig,
                        workers: int = 1) -> RateFit:
    """Median sup-deviation per horizon and its growth exponent.

    The pass threshold 1/p + 0.1 (reported, not enforced) leaves room for
    finite-horizon transients while still failing the uncoupled null, whose
    deviation grows like sqrt(t).
    """
    model = cfg.build_model()
    greeks = reference_greeks(model, cfg.p)
    per_t = [np.asarray(devs) for devs in _replicate(
        _deviations, cfg, greeks, cfg.t_grid, cfg.kind, workers)]
    summaries = []
    for t, devs in zip(cfg.t_grid, per_t):
        est = median_ci(devs)
        summaries.append(HorizonSummary(
            t=float(t), n=devs.size, median=est.median, ci_low=est.ci_low,
            ci_high=est.ci_high, mean=float(devs.mean()),
            q90=float(np.quantile(devs, 0.9))))
    medians = [s.median for s in summaries]
    slope, intercept = loglog_slope(cfg.t_grid, medians)
    gen = _aux_stream(cfg.root_seed, cfg.kind).generator()
    ci = bootstrap_slope_ci(cfg.t_grid, per_t, gen)
    threshold = 1.0 / cfg.p + 0.1
    return RateFit(slope=slope, intercept=intercept, slope_ci=ci,
                   per_t=tuple(summaries), p=cfg.p, threshold=threshold,
                   passed=slope <= threshold,
                   deviations=tuple(tuple(map(float, d)) for d in per_t))


# -- tail experiment --------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    """Empirical exceedance probability at one (t, x) grid point."""

    t: float
    x: float
    p: float
    region: str
    n: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float
    normalized: float
    normalized_high: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError(
                f"interval ordering violated: {self.ci_low}, {self.p_hat}, "
                f"{self.ci_high}")


def _estimates_from_sups(sups: np.ndarray, t: float, x_values,
                         p: float) -> list[TailEstimate]:
    out = []
    for x in x_values:
        hits = int(np.count_nonzero(sups >= x))
        p_hat = hits / sups.size
        lo, hi = wilson_interval(hits, sups.size)
        scale = x ** p / t
        out.append(TailEstimate(
            t=float(t), x=float(x), p=p, region=validity_region(t, x),
            n=sups.size, hits=hits, p_hat=p_hat, ci_low=lo, ci_high=hi,
            normalized=p_hat * scale, normalized_high=hi * scale))
    return out


def run_tail_experiment(cfg: ExperimentConfig,
                        workers: int = 1) -> list[TailEstimate]:
    """Exceedance probabilities of the sup-deviation over the (t, x) grid."""
    model = cfg.build_model()
    greeks = reference_greeks(model, cfg.p)
    per_t = [np.asarray(devs) for devs in _replicate(
        _deviations, cfg, greeks, cfg.t_grid, cfg.kind, workers)]
    estimates: list[TailEstimate] = []
    for t, devs in zip(cfg.t_grid, per_t):
        estimates.extend(
            _estimates_from_sups(devs, float(t), cfg.x_grid_for(float(t)),
                                 cfg.p))
    return estimates


def fit_constant_a(estimates: Sequence[TailEstimate]) -> float:
    """Largest Wilson-upper normalized value: the certified empirical
    constant not contradicted by the data at 95% confidence."""
    if not estimates:
        raise ValueError("cannot fit a constant to an empty estimate list")
    return max(e.normalized_high for e in estimates)


# -- per-term diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class PhiDiagnostics:
    """Per-term tail tables plus the side events the bound chain tracks."""

    t: float
    x_values: tuple[float, ...]
    per_term: tuple[tuple[TailEstimate, ...], ...]   # index q-1
    deviation_table: tuple[TailEstimate, ...]
    term_sup_medians: tuple[float, ...]
    passage_exceed_freq: float       # first passage of level t/gamma past 2t/mu
    passage_exceed_bound: float
    count_exceed_freq: float         # renewal count past 2t/mu
    structure_rows: tuple[tuple[float, float, float], ...]  # x, lhs, rhs
    eta_pth_moment: float
    triangle_max_violation: float
    max_residual: float


def _phi_row(model, greeks, cfg, t, rng) -> tuple:
    """(per-term sups, deviation sup, passage flag, count flag, triangle
    excess, identity residual) of one replication."""
    path, bundle = build_bundle(model, greeks, t, cfg.mode, rng)
    dec = phi_decomposition(path, bundle, t)
    sups = dec.sup_per_term()
    dev = dec.sup_deviation()
    return (sups, dev,
            bundle.first_passage(t) > 2.0 * t / greeks.mu,
            int(path.renewal_counts(np.array([t]))[0]) > 2.0 * t / greeks.mu,
            dev - float(sups.sum()), dec.residual)


def _phi_rows(model, greeks, cfg, t, streams) -> Iterator[tuple]:
    # one call per replication, so that no bundle outlives its row
    return (_phi_row(model, greeks, cfg, t, rng) for rng in streams)


def run_phi_diagnostics(cfg: ExperimentConfig,
                        workers: int = 1) -> PhiDiagnostics:
    """Which of the eight error terms dominates, and do the analysis-side
    events behave: the first-passage indicator frequency against its bound,
    the renewal-count event, and the term-1 structural comparison against
    the within-cycle-maximum moment."""
    model = cfg.build_model()
    greeks = reference_greeks(model, cfg.p)
    t = float(cfg.t_grid[0])
    rows = _replicate(_phi_rows, cfg, greeks, (t,), cfg.kind, workers)[0]
    sups, devs, fp_flags, count_flags, triangles, residuals = zip(*rows)
    sup_rows = np.vstack(sups)
    devs = np.asarray(devs)

    x_values = cfg.x_grid_for(t)
    per_term = tuple(
        tuple(_estimates_from_sups(sup_rows[:, q], t, x_values, cfg.p))
        for q in range(8))
    deviation_table = tuple(_estimates_from_sups(devs, t, x_values, cfg.p))

    fp_freq = float(np.mean(fp_flags))
    fp_bound = poisson_inverse_tail(t, t / math.log(t), greeks.gamma).value
    count_freq = float(np.mean(count_flags))

    eta_p = eta_moment(model, cfg.p)
    structure = []
    for x, est in zip(x_values, per_term[0]):
        rhs = count_freq + (2.0 * t + greeks.mu) / greeks.mu * eta_p / x ** cfg.p
        structure.append((float(x), est.p_hat, float(rhs)))
    return PhiDiagnostics(
        t=t, x_values=tuple(float(x) for x in x_values), per_term=per_term,
        deviation_table=deviation_table,
        term_sup_medians=tuple(float(np.median(sup_rows[:, q]))
                               for q in range(8)),
        passage_exceed_freq=fp_freq, passage_exceed_bound=fp_bound,
        count_exceed_freq=count_freq, structure_rows=tuple(structure),
        eta_pth_moment=float(eta_p),
        triangle_max_violation=float(max(triangles)),
        max_residual=float(max(residuals)))


# -- maxima scaling ---------------------------------------------------------


@dataclass(frozen=True)
class MaximaTrend:
    """Median normalized cycle-maximum against the cycle count."""

    n_values: tuple[int, ...]
    rows: tuple[MedianEstimate, ...]
    p: float
    passed: bool


def _maxima_ratios(model, greeks, cfg, t, streams) -> Iterator[float]:
    n = int(t)
    for rng in streams:
        yield float(model.sample_cycles(n, rng).eta.max()) \
            / float(n) ** (1.0 / cfg.p)


def maxima_scaling_experiment(cfg: ExperimentConfig,
                              workers: int = 1) -> MaximaTrend:
    """Is max eta over n cycles really o(n^{1/p})?  The normalized medians
    must trend down: each step stays within the previous interval's upper
    end, and the last interval sits strictly below the first."""
    n_values = [int(t) for t in cfg.t_grid]
    rows = [median_ci(np.asarray(ratios)) for ratios in _replicate(
        _maxima_ratios, cfg, None, n_values, cfg.kind, workers)]
    steps_ok = all(rows[i + 1].median <= rows[i].ci_high
                   for i in range(len(rows) - 1))
    ends_ok = rows[-1].ci_high < rows[0].ci_low
    return MaximaTrend(n_values=tuple(n_values), rows=tuple(rows), p=cfg.p,
                       passed=bool(steps_ok and ends_ok))


# -- certification ----------------------------------------------------------


@dataclass(frozen=True)
class CertRow:
    label: str
    lhs: float
    se: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class CertificationRecord:
    name: str
    rows: tuple[CertRow, ...]
    passed: bool
    details: dict[str, float]


def _row(label: str, lhs: float, bound: float) -> CertRow:
    """Row of an exact oracle: no standard error, so no slack."""
    return CertRow(label=label, lhs=float(lhs), se=0.0, bound=float(bound),
                   passed=lhs <= bound)


def _above_one(key: str, t: float) -> float:
    """A horizon that enters ``t / log t``; t <= 1 would divide by zero or
    turn the threshold negative, so it is a usage error raised first."""
    if not t > 1.0:
        raise ValueError(f"parameter --{key.replace('_', '-')} must exceed "
                         f"1 (it enters t / log t), got {t:g}")
    return t


def _whole(key: str, value) -> int:
    """A count parameter; a fractional value is a usage error, never
    truncated."""
    if value != int(value):
        raise ValueError(f"parameter --{key} must be a whole number, "
                         f"got {value:g}")
    return int(value)


def _certify_poisson_inverse(t_values=(64.0, 256.0, 1024.0)
                             ) -> CertificationRecord:
    """Exact Gamma-CDF oracle: P(unit-rate level-t passage time >= 2t)."""
    t_values = tuple(_above_one("t_values", t) for t in t_values)
    rows = []
    for t in t_values:
        bound = poisson_inverse_tail(t, t / math.log(t), 1.0)
        lhs = float(gammaincc(math.ceil(t), 2.0 * t))
        rows.append(_row(f"gamma-cdf t={t:g}", lhs, bound.value))
    return CertificationRecord("poisson-inverse", tuple(rows),
                               all(r.passed for r in rows), {})


def _poisson_sf(n: int, t: float) -> float:
    """P(N >= n) for N ~ Poisson(t), n > t: math.fsum of the pmf terms
    e^{-t} t^k / k!, k >= n.  The first term's logarithm is the fsum of
    log(t/j), j <= n, which keeps its error near 1e-15 relative where
    n log t - lgamma(n + 1) loses about 1e-13 at t = 200; later terms follow
    by the ratio t/k.  The terms fall from the first, so the sum stops once
    a term is below 1e-17 of it."""
    first = math.exp(math.fsum(math.log(t / j) for j in range(1, n + 1)) - t)
    terms, k = [first], n
    while terms[-1] > 1e-17 * first:
        k += 1
        terms.append(terms[-1] * t / k)
    return math.fsum(terms)


def _certify_renewal_count(t=20.0) -> CertificationRecord:
    """Two exact oracles for P(more than 2t renewals of unit exponentials by
    time t) = P(S_n <= t), S_n the sum of n = floor(2t) + 1 of them: the
    Poisson tail P(N(t) >= n), since S_n <= t exactly when the Poisson
    count N(t) reaches n, and the Gamma CDF gammainc(n, t)."""
    t = _above_one("t", t)
    count = int(math.floor(2.0 * t)) + 1
    bound = renewal_count_tail(t, t / math.log(t), 1.0,
                               lambda b: 1.0 / (1.0 + b))
    rows = (_row("exact-poisson-tail", _poisson_sf(count, t), bound.value),
            _row("exact-gamma-cdf", float(gammainc(count, t)), bound.value))
    return CertificationRecord(
        "renewal-count", rows, all(r.passed for r in rows),
        {"b_star": bound.constants_used["b_star"],
         "x_form": bound.constants_used["x_form"]})


def _run_tail(n: int, x: float) -> float:
    """P(max_j max_{k <= x} (Q_{j+k} - Q_j) >= x) for the walk Q of n fair
    +-1 steps, exactly.

    A window of k steps rises by at most k, and by k only when all its steps
    are +1; with k <= floor(x) it reaches x only when x is an integer and
    the window is x straight +1 steps.  So the event is a run of at least x
    consecutive +1 steps, impossible unless x is an integer in [1, n].  The
    sequences of m steps without such a run number c_m = 2^m for m < x,
    c_x = 2^x - 1 and c_m = 2 c_{m-1} - c_{m-x-1} beyond (a run-free
    sequence of m - 1 steps extends both ways, except when it ends in
    exactly x - 1 straight +1 steps after a -1 and a run-free prefix of
    m - x - 1 steps; Feller, vol. I, XIII.7).  The integer ratio
    (2^n - c_n) / 2^n is rounded once."""
    if x != math.floor(x) or not 1 <= x <= n:
        return 0.0
    r = int(x)
    counts = deque((2 ** m for m in range(r)), maxlen=r + 1)
    counts.append(2 ** r - 1)
    for _ in range(r + 1, n + 1):
        counts.append(2 * counts[-1] - counts[0])
    return (2 ** n - counts[-1]) / 2 ** n


def _certify_block_maximal(n=16, x=4.0, p=3.0, c=1.0) -> CertificationRecord:
    """Exact oracle: the +-1 walk's short-window maximum is a run of +1
    steps, counted by ``_run_tail``."""
    n = _whole("n", n)
    moments = TailMoments(n=n, p=p, abs_moment=1.0, variance=1.0)
    bound = block_maximal_tail(moments, x, c=c)
    rows = (_row(f"runs n={n} x={x:g}", _run_tail(n, x), bound.value),)
    return CertificationRecord(
        "block-maximal", rows, rows[0].passed,
        {"raw_bound": bound.constants_used["raw_value"]})


def _random_sum_tail(t: float, x: float) -> float:
    """P(max_{1<=k<=N+1} |Q_k| > x) for a standard Gaussian walk Q and an
    independent N ~ Poisson(t), exactly up to quadrature error.

    With e_k the probability that Q first leaves [-x, x] at step k, the
    tail is sum_k e_k P(N >= k - 1), a sum of positive terms (the form
    1 - P(stay) loses all relative accuracy once the tail is small).
    e_1 = 2 Phi(-x), and e_k = int f_{k-1}(y) (Phi(-x-y) + Phi(y-x)) dy,
    where f_k is the density of Q_k on the paths that stayed in [-x, x]:
    f_1 = phi and f_k(y) = int f_{k-1}(z) phi(y - z) dz over [-x, x].  The
    Nystrom scheme keeps f_k at max(32, ceil(8x)) Gauss-Legendre nodes of
    [-x, x], where the Gaussian kernel is smooth enough that doubling the
    nodes moves the result by under 1e-12 relative.  P(N >= k - 1) is
    gammainc(k - 1, t); the sum stops once a term is below 1e-17 of it, or
    once P(N >= k - 1), which bounds every later term's share, is 0."""
    nodes, weights = np.polynomial.legendre.leggauss(max(32, math.ceil(8 * x)))
    y, w = x * nodes, x * weights
    step = np.exp(-0.5 * (y[:, None] - y[None, :]) ** 2) \
        * (w / math.sqrt(2.0 * math.pi))
    leave = w * (ndtr(-x - y) + ndtr(y - x))
    density = np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
    terms = [2.0 * float(ndtr(-x))]
    total, k = terms[0], 2
    while True:
        reach = float(gammainc(k - 1, t))
        terms.append(float(leave @ density) * reach)
        total += terms[-1]
        if reach == 0.0 or terms[-1] < 1e-17 * total:
            return math.fsum(terms)
        density = step @ density
        k += 1


# 2048 quadrature nodes: a 32 MB kernel matrix
_RANDOM_SUM_MAX_X = 256.0


def _certify_random_sum(t=10.0, x=None) -> CertificationRecord:
    """Exact oracle for the running-maximum tail of a renewal-counted
    Gaussian sum (unit-exponential durations, so N(t) is Poisson), plus the
    exact pivot constant.  ``x=None`` means t / log t."""
    t = _above_one("t", t)
    if x is None:
        x = t / math.log(t)
    moments = TailMoments(n=1, p=3.0, abs_moment=2.0 * math.sqrt(2.0 / math.pi),
                          variance=1.0, laplace_at_1=0.5)
    bound = random_sum_nagaev_tail(t, x, moments)
    if not x <= _RANDOM_SUM_MAX_X:
        raise ValueError(f"parameter --x must be at most {_RANDOM_SUM_MAX_X:g}"
                         f" (the oracle's quadrature holds a (8x)^2 matrix), "
                         f"got {x:g}")
    m0 = random_sum_M0(lambda b: 1.0 / (1.0 + b))
    rows = (_row(f"exact t={t:g} x={x:g}", _random_sum_tail(t, x),
                 bound.value),
            CertRow(label="pivot-M0", lhs=float(m0), se=0.0, bound=3.0,
                    passed=m0 == 3))
    return CertificationRecord(
        "random-sum", rows, all(r.passed for r in rows),
        {"raw_bound": bound.constants_used["raw_value"],
         "series_sum": bound.constants_used["series_sum"]})


def _wiener_oscillation_tail(x: float) -> float:
    """P(sup_{s<=1} |W(s)| >= x) for a standard Wiener process W: Levy's
    reflection series 4 sum_{k>=1} (-1)^{k-1} Phi(-(2k-1)x) (Feller, vol.
    II; Borodin & Salminen), summed until a term no longer changes the sum."""
    total, sign, k = 0.0, 4.0, 1
    while (nxt := total + sign * float(ndtr((1 - 2 * k) * x))) != total:
        total, sign, k = nxt, -sign, k + 1
    return min(total, 1.0)


def _log_below(x: float, span: float) -> float:
    """log P(sup_{s<=span} |W(s)| < x), by Brownian scaling."""
    q = _wiener_oscillation_tail(x / math.sqrt(span)) if span else 0.0
    return math.log1p(-q) if q < 1.0 else -math.inf


def _certify_grid_increment(t_values=(1.0, 2.0, 3.0, 5.0, 10.0),
                            x_values=(2.6, 2.9, 3.2, 3.6, 4.0)
                            ) -> CertificationRecord:
    """Exact oracle for the within-unit Wiener oscillation sup against the
    union/reflection bound: the units of [0, t], the last one partial when
    t is not an integer, are independent, so P(sup_{u<=t} |B(u) -
    B(floor(u))| >= x) = 1 - (1 - q(x))^floor(t) (1 - q(x / sqrt(t -
    floor(t)))), with q the reflection-series tail.  The series never
    settles at x <= 0, so such an x is a usage error raised first."""
    for x in x_values:
        if not x > 0:
            raise ValueError(f"parameter --x-values must be positive, "
                             f"got {x:g}")
    rows = []
    for t in t_values:
        units = math.floor(t)
        for x in x_values:
            lhs = -math.expm1(units * _log_below(x, 1.0)
                              + _log_below(x, t - units))
            rows.append(_row(f"exact t={t:g} x={x:g}", lhs,
                             brownian_grid_increment_tail(t, x).value))
    return CertificationRecord("grid-increment", tuple(rows),
                               all(r.passed for r in rows), {})


def _certify_brownian_sup(t_values=(4.0, 16.0, 64.0, 256.0, 1024.0),
                          factors=(1.05, 1.5, 2.5, 4.0, 8.0)
                          ) -> CertificationRecord:
    """Exact oracle P(sup_{u<=t} |W(u)| >= x/2) = q(x / (2 sqrt t)), the
    reflection-series tail by Brownian scaling, below the envelope, at
    x = f t / log t for each factor f; a pair with x <= e is skipped."""
    t_values = tuple(_above_one("t_values", t) for t in t_values)
    rows = []
    for t in t_values:
        for f in factors:
            x = f * t / math.log(t)
            if x <= math.e:
                continue
            oracle = _wiener_oscillation_tail(x / (2.0 * math.sqrt(t)))
            bound = brownian_sup_tail(t, x, 1)
            rows.append(_row(f"exact t={t:g} f={f:g}", oracle, bound.value))
    return CertificationRecord("brownian-sup", tuple(rows),
                               all(r.passed for r in rows), {})


def _symmetric_binomial_sf(k: int, n: int) -> float:
    """P(Binomial(n, 1/2) > k): the exact rational, rounded once (integer
    true division is correctly rounded)."""
    j = max(k + 1, 0)
    term = math.comb(n, j)
    upper = 0
    while term:
        upper += term
        term = term * (n - j) // (j + 1)
        j += 1
    return upper / 2 ** n


def _certify_nagaev(n=100, x=50.0, p=3.0) -> CertificationRecord:
    """Exact oracles: symmetric binomial tail and a single normal term."""
    n = _whole("n", n)
    lhs_binom = 2.0 * _symmetric_binomial_sf(math.ceil((n + x) / 2.0) - 1, n)
    two_point = TailMoments(n=n, p=p, abs_moment=1.0, variance=1.0)
    bound_binom = nagaev_tail(two_point, x)
    normal = TailMoments(n=1, p=p,
                         abs_moment=2.0 * math.sqrt(2.0 / math.pi),
                         variance=1.0)
    lhs_normal = 2.0 * float(ndtr(-5.0))
    bound_normal = nagaev_tail(normal, 5.0)
    rows = (_row(f"binomial n={n} x={x:g}", lhs_binom, bound_binom.value),
            _row("normal n=1 x=5", lhs_normal, bound_normal.value))
    return CertificationRecord(
        "nagaev", rows, all(r.passed for r in rows),
        {"C1": bound_binom.constants_used["C1"],
         "C2": bound_binom.constants_used["C2"]})


# name: certifier; its keyword parameters, with their defaults, are the
# parameters of ``regenlab certify NAME``
CERTIFIERS: dict[str, Callable[..., CertificationRecord]] = {
    "poisson-inverse": _certify_poisson_inverse,
    "renewal-count": _certify_renewal_count,
    "block-maximal": _certify_block_maximal,
    "random-sum": _certify_random_sum,
    "grid-increment": _certify_grid_increment,
    "brownian-sup": _certify_brownian_sup,
    "nagaev": _certify_nagaev,
}


def certify_bound(name: str, params: dict | None = None) -> CertificationRecord:
    """Check one inequality against its exact oracle; PASS means every
    oracle left-hand side is at most its bound.  Parameters that leave no
    row to check, or a row whose oracle and bound both underflow to 0, are
    a usage error, never a vacuous PASS.  No oracle draws a random number
    or opens a process pool."""
    if name not in CERTIFIERS:
        raise KeyError(
            f"unknown bound {name!r}; registry: {sorted(CERTIFIERS)}")
    record = CERTIFIERS[name](**(params or {}))
    if not record.rows:
        raise ValueError(f"certification {name} has no row to check at "
                         f"these parameters")
    for row in record.rows:
        if row.lhs == row.bound == 0.0:
            raise ValueError(f"certification {name} row {row.label!r} "
                             f"compares 0 with 0 (both sides underflow), "
                             f"which checks nothing")
    return record


# -- embedding sanity check -------------------------------------------------


def _w_at_horizon(model, greeks, cfg, t, streams) -> Iterator[np.ndarray]:
    for _, w in sup_inputs(model, greeks, t, cfg.mode, streams):
        yield w.at(t)


def run_embedding_check(root_seed: int = 0, n_units: int = 100_000,
                        bundles: int = 200, t: float = 1000.0,
                        workers: int = 1) -> dict:
    """Two marginal checks of the constructive embedding.

    First, the per-unit jump counts drawn from the duration driver must be
    exactly Poisson — chi-square against the known rate.  Second, the
    assembled W must scale like a Wiener process: the sample covariance of
    W(t)/sqrt(t) over independent bundles must match the identity within 4
    standard errors entrywise.
    """
    from .config import build_config
    cfg = build_config(
        "phis", family="gamma-gaussian",
        model_params={"tau_shape": 2.0, "tau_scale": 1.0,
                      "beta": "0.3,-0.2", "kappa": "0.1,0.2",
                      "noise_cov": "1.0,0.3;0.3,0.8", "dim": 2},
        mode="shared-innovations", replications=bundles, t_grid=(t,),
        root_seed=root_seed)
    model = cfg.build_model()
    greeks = reference_greeks(model, cfg.p)

    gen = _aux_stream(root_seed, "embedding", offset=7).generator()
    increments = gen.standard_normal(n_units)
    counts = poisson_jump_counts(increments, greeks.lam)
    pvalue = poisson_gof_pvalue(counts, greeks.lam)

    w_rows = np.vstack(_replicate(_w_at_horizon, cfg, greeks, (t,),
                                  "embedding", workers)[0]) / math.sqrt(t)
    cov = np.cov(w_rows, rowvar=False, ddof=1)
    d = cov.shape[0]
    se = np.full((d, d), 1.0 / math.sqrt(bundles))
    np.fill_diagonal(se, math.sqrt(2.0 / (bundles - 1)))
    gap = np.abs(cov - np.eye(d))
    return {
        "gof_pvalue": float(pvalue),
        "count_mean": float(counts.mean()),
        "rate": greeks.lam,
        "covariance": cov,
        "max_se_multiples": float(np.max(gap / se)),
        "cov_ok": bool(np.all(gap <= 4.0 * se)),
        "gof_ok": bool(pvalue > 0.001),
    }
