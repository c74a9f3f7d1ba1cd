"""Closed-form tail inequalities used by the deviation analysis.

Every calculator returns a :class:`BoundResult` whose ``value`` is the
probability bound capped at 1, with the uncapped value and every constant
that entered the formula recorded in ``constants_used``.  The calculators
are exact transcriptions of the inequalities the analysis composes; the
certification harness checks each one against an independent exact oracle
(a CDF or series, an exact count, or a deterministic quadrature) —
domination is *verified*, never assumed.

Two regimes partition the (t, x) plane for t >= e: the *pair* region
``x <= t / log t`` (moderate deviations, Gaussian-dominated) and the
*large-deviation* region beyond it (polynomial tails take over).  Each
calculator declares which regime it serves and rejects the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

REGION_PAIR = "pair"
REGION_LARGE_DEVIATION = "large-deviation"

_B_SEARCH_MAX = 60.0
_SERIES_FLOOR = 1e-300
_SERIES_MAX_TERMS = 2_000_000


class RegionViolationError(ValueError):
    """Arguments fall outside the calculator's validity region."""


class NoFeasibleBError(ValueError):
    """The exponential-tilt constraint set is empty within the search bracket."""


class InfeasibleError(ValueError):
    """A constant the derivation requires does not exist for these inputs."""


@dataclass(frozen=True)
class BoundResult:
    """A probability bound: capped value, validity region, and audit trail."""

    value: float
    region: str | None
    constants_used: dict[str, float]


@dataclass(frozen=True)
class TailMoments:
    """Moment inputs of the Fuk-Nagaev machinery for sums of n i.i.d. terms.

    ``abs_moment`` is E|X|^p for a single summand and ``variance`` its
    variance; ``laplace_at_1`` is E exp(-tau) of the associated duration,
    needed only by the random-sum bound.
    """

    n: int
    p: float
    abs_moment: float
    variance: float
    laplace_at_1: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1 summands, got {self.n}")
        if not self.p > 2:
            raise ValueError(f"moment order must exceed 2, got {self.p}")
        if self.abs_moment < 0 or self.variance < 0:
            raise ValueError("moments must be nonnegative")


def _capped(raw: float, region: str | None,
            constants: dict[str, float]) -> BoundResult:
    constants = dict(constants)
    constants["raw_value"] = raw
    return BoundResult(value=min(raw, 1.0), region=region,
                       constants_used=constants)


def validity_region(t: float, x: float) -> str:
    """Classify (t, x): pair when x <= t/log t, large-deviation beyond.

    Defined for t >= e only (so log t >= 1 and the threshold is positive).
    """
    if t < math.e:
        raise RegionViolationError(
            f"regimes are defined for t >= e, got t={t:g}")
    return REGION_PAIR if x <= t / math.log(t) else REGION_LARGE_DEVIATION


def _require_region(t: float, x: float, wanted: str, what: str) -> None:
    actual = validity_region(t, x)
    if actual != wanted:
        raise RegionViolationError(
            f"{what} applies in the {wanted} region; "
            f"(t={t:g}, x={x:g}) lies in the {actual} region "
            f"(threshold t/log t = {t / math.log(t):g})")


# -- pair-region calculators ------------------------------------------------


def poisson_inverse_tail(t: float, x: float, gamma: float) -> BoundResult:
    """Bound P(first-passage level t/gamma is reached only after time 2t/mu).

    The wait for level ceil(t/gamma) is a sum of floor(t/gamma)+1 unit
    exponentials; a Chernoff bound at tilt log 2 gives the intermediate form
    ``exp(-t/gamma) * 2^(floor(t/gamma)+1)`` and the working form
    ``2 * (e/2)^(-x/gamma)``.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    _require_region(t, x, REGION_PAIR, "the first-passage tail bound")
    ratio = x / gamma
    raw = 2.0 * (math.e / 2.0) ** (-ratio)
    intermediate = math.exp(
        -t / gamma + (math.floor(t / gamma) + 1.0) * math.log(2.0))
    return _capped(raw, REGION_PAIR, {
        "gamma": gamma, "x_over_gamma": ratio,
        "intermediate_form": intermediate})


def renewal_count_tail(t: float, x: float, mu: float,
                       laplace_tau: Callable[[float], float]) -> BoundResult:
    """Bound P(renewal count by time t exceeds 2t/mu) by exponential tilting.

    Searches the tilt b > 0 minimizing ``exp(b t) * L(b)^floor(2t/mu)``
    subject to the feasibility constraint ``exp(b mu / 2) * L(b) < 1`` (which
    always admits small b for a nondegenerate duration; the error is purely
    defensive).  Returns that t-exponent form as the value and records the
    x-exponent variant ``(1/L(b)) * (exp(b mu/2) L(b))^(2x/mu)`` — both
    bound the same probability and certification checks each.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    _require_region(t, x, REGION_PAIR, "the renewal-count tail bound")
    count = math.floor(2.0 * t / mu)

    def feasible(b: float) -> bool:
        return b * mu / 2.0 + math.log(laplace_tau(b)) < 0.0

    hi = 1e-3
    while hi < _B_SEARCH_MAX and feasible(hi * 2.0):
        hi *= 2.0
    hi = min(hi, _B_SEARCH_MAX)
    if not feasible(hi):
        # shrink back inside the feasible set
        lo_probe = hi
        for _ in range(80):
            lo_probe /= 2.0
            if feasible(lo_probe):
                break
        else:
            raise NoFeasibleBError(
                "no tilt b > 0 satisfies exp(b mu/2) L(b) < 1 in the bracket")
        hi = lo_probe
    if hi <= 1e-8:
        # a bracket this small only arises from rounding noise in L(b)
        raise NoFeasibleBError(
            "the feasible tilt bracket collapsed below numerical resolution; "
            "exp(b mu/2) L(b) < 1 has no usable solution")

    def log_t_form(b: float) -> float:
        return b * t + count * math.log(laplace_tau(b))

    b_star = _golden_min(log_t_form, 1e-9, hi, 1e-10)
    lap = laplace_tau(b_star)
    raw = math.exp(log_t_form(b_star))
    log_x_form = -math.log(lap) \
        + (2.0 * x / mu) * (b_star * mu / 2.0 + math.log(lap))
    return _capped(raw, REGION_PAIR, {
        "b_star": b_star, "laplace_at_b": lap, "count": float(count),
        "t_form": raw, "x_form": math.exp(log_x_form)})


def _golden_min(func: Callable[[float], float], a: float, b: float,
                xatol: float) -> float:
    """The minimizer of a unimodal ``func`` on [a, b] by golden-section search
    (Kiefer 1953): each step keeps the part of the bracket that holds the
    lower of two interior points, until the bracket is narrower than
    ``xatol``."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = func(c), func(d)
    while b - a > xatol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = func(d)
    return c if fc <= fd else d


def brownian_grid_increment_tail(t: float, x: float) -> BoundResult:
    """Bound P(sup over u <= t of |B(u) - B(floor(u))| >= x) <= 4(t+1)e^{-x^2/2}.

    A union bound over the t+1 unit intervals and the reflection principle
    inside each.  Also covers the level-mismatch term through the pointwise
    bound |u/gamma - N(y(u))| <= 1.
    """
    if t < 1:
        raise ValueError(f"needs t >= 1, got {t}")
    if x <= 0:
        raise ValueError(f"needs x > 0, got {x}")
    raw = 4.0 * (t + 1.0) * math.exp(-x * x / 2.0)
    return _capped(raw, None, {"intervals": t + 1.0, "exponent": -x * x / 2.0})


def nagaev_tail(moments: TailMoments, x: float) -> BoundResult:
    """Fuk-Nagaev bound for the tail of a centered i.i.d. sum.

        P(|Q_n| >= x) <= C1 n E|X|^p x^{-p} + 2 exp(-C2 x^2 / (n Var X))

    with C1 = (1 + 2/p)^p and C2 = 2 e^{-p} (p+2)^{-2}.  The constants are a
    fixed admissible choice; certification checks domination, not
    optimality.
    """
    if x <= 0:
        raise ValueError(f"needs x > 0, got {x}")
    p = moments.p
    c1 = (1.0 + 2.0 / p) ** p
    c2 = 2.0 * math.exp(-p) / (p + 2.0) ** 2
    poly = c1 * moments.n * moments.abs_moment / x ** p
    if moments.variance > 0:
        gauss = 2.0 * math.exp(-c2 * x * x / (moments.n * moments.variance))
    else:
        gauss = 0.0
    return _capped(poly + gauss, None, {
        "C1": c1, "C2": c2, "polynomial_term": poly, "gaussian_term": gauss,
        "n": float(moments.n)})


def block_maximal_tail(moments: TailMoments, x: float,
                       c: float = 1.0) -> BoundResult:
    """Bound the maximal short-window increment of an i.i.d. sum.

    For windows of length at most x inside n steps,

        P(max_j max_{k <= x} (Q_{j+k} - Q_j) >= x)
            <= 3 (n/floor(x) + 1) max_{k <= x} Nagaev(k, x/9),

    chaining a block decomposition with the Levy-Ottaviani maximal
    inequality (factor 3, threshold x/3) and the Fuk-Nagaev bound at x/9.
    Valid for c n^{1/p} <= x <= n.
    """
    n = moments.n
    lo = max(1.0, c * n ** (1.0 / moments.p))
    if not lo <= x <= n:
        raise RegionViolationError(
            f"block-maximal bound needs {lo:g} <= x <= {n}, got x={x:g}")
    width = math.floor(x)
    worst = 0.0
    for k in range(1, int(width) + 1):
        worst = max(worst,
                    nagaev_tail(replace(moments, n=k), x / 9.0)
                    .constants_used["raw_value"])
    raw = 3.0 * (n / width + 1.0) * worst
    return _capped(raw, None, {
        "blocks": n / width + 1.0, "window": float(width),
        "worst_block_tail": worst, "c": c})


# -- large-deviation calculators --------------------------------------------


def random_sum_M0(laplace_tau: Callable[[float], float]) -> int:
    """Smallest integer M0 >= 1 with L(1)^{M0/2} < 1/e.

    Beyond M0 cycles per unit time, the duration Laplace transform at 1
    supplies at least a factor 1/e of decay per unit — the pivot between the
    maximal-inequality part and the geometric series part of the random-sum
    bound.
    """
    return _m0_from_value(laplace_tau(1.0))


def _m0_from_value(lap1: float) -> int:
    if not 0 < lap1 < 1:
        raise InfeasibleError(
            f"needs 0 < E exp(-tau) < 1, got {lap1!r} "
            "(degenerate-at-zero duration)")
    return int(math.floor(2.0 / (-math.log(lap1)))) + 1


def random_sum_nagaev_tail(t: float, x: float,
                           moments: TailMoments) -> BoundResult:
    """Tail of the running maximum of a sum with a renewal-counted length.

    Bounds P(max_{k <= m(t)+1} |Q_k| > x) in the large-deviation regime by
    splitting at M0 cycles per unit time: the first floor(M0 t)+1 partial
    sums go through the Levy-Ottaviani / Fuk-Nagaev chain at threshold x/3,
    and longer cycle counts contribute the geometric series

        x^{-p} sum_{M >= M0} ((M+2) t)^p E|X|^p e^t L(1)^{floor(M t)},

    summed to convergence (terms below 1e-300 truncated).  Requires
    ``laplace_at_1`` on the moments.
    """
    if t < math.e:
        raise RegionViolationError(
            f"the random-sum tail bound needs t >= e, got t={t:g}")
    if x < t / math.log(t):
        raise RegionViolationError(
            f"the random-sum tail bound needs x >= t/log t = "
            f"{t / math.log(t):g}, got x={x:g}")
    if moments.laplace_at_1 is None:
        raise ValueError("random-sum bound needs laplace_at_1 on TailMoments")
    m0 = _m0_from_value(moments.laplace_at_1)
    horizon = int(math.floor(m0 * t)) + 1
    head = nagaev_tail(replace(moments, n=horizon), x / 3.0)
    head_raw = 3.0 * head.constants_used["raw_value"]

    log_lap = math.log(moments.laplace_at_1)
    p = moments.p
    series = 0.0
    last = 0.0
    m = m0
    if moments.abs_moment > 0:      # else every term is 0: no series at all
        log_moment = math.log(moments.abs_moment)
        while m < m0 + _SERIES_MAX_TERMS:
            log_term = p * math.log((m + 2.0) * t) + t \
                + math.floor(m * t) * log_lap + log_moment
            last = math.exp(log_term) \
                if log_term > math.log(_SERIES_FLOOR) else 0.0
            if last <= _SERIES_FLOOR:
                break
            series += last
            m += 1
    raw = head_raw + series / x ** p
    return _capped(raw, REGION_LARGE_DEVIATION, {
        "M0": float(m0), "head_horizon": float(horizon),
        "head_term": head_raw, "series_sum": series,
        "series_terms": float(m - m0), "last_term": last})


def brownian_sup_tail(t: float, x: float, d: int) -> BoundResult:
    """Bound P(sup over u <= t of |W(u)| > x/2) <= 4 d exp(-x / (16 log x)).

    In the large-deviation regime x > t/log t the Gaussian tail
    4 d P(B(t) > x/2) is dominated by this t-free envelope; requires x > e
    so the logarithm exceeds 1.
    """
    if d < 1:
        raise ValueError(f"needs d >= 1, got {d}")
    if x <= math.e:
        raise RegionViolationError(
            f"the envelope needs x > e, got x={x:g}")
    _require_region(t, x, REGION_LARGE_DEVIATION, "the Wiener sup bound")
    exponent = -x / (16.0 * math.log(x))
    raw = 4.0 * d * math.exp(exponent)
    return _capped(raw, REGION_LARGE_DEVIATION, {
        "d": float(d), "exponent": exponent})


# -- exponential-to-power conversion ----------------------------------------


def exp_to_power(A: float, B: float, C: float, p: float) -> tuple[float, float]:
    """Dominate a shifted exponential tail by a * t * x^{-p}.

    For the tail A exp(-B (x - C log t)) (an exponential bound evaluated
    past a C log t shift), returns (c, a0) with c = C p such that

        A exp(-B (x - C log t)) <= a0 * t * x^{-p}
        for all t >= e and x >= c t^{1/p}.

    a0 is the exact supremum of the ratio over that region, found by
    calculus: for fixed t the ratio A exp(-B(x - C log t)) x^p / t peaks at
    x = p/B when that point is admissible and at the boundary x = c t^{1/p}
    otherwise; the switch happens at t_star = (B C)^{-p}, and the boundary
    profile decreases in t, so the supremum is attained at one of at most
    three corner candidates.
    """
    if min(A, B, C) <= 0:
        raise ValueError("A, B, C must all be positive")
    if not p > 2:
        raise ValueError(f"needs p > 2, got {p}")
    c = C * p
    t_star = (B * C) ** (-p)

    def interior(t: float) -> float:
        # ratio with x at the unconstrained peak p/B
        return A * (p / B) ** p * math.exp(-p) * t ** (B * C - 1.0)

    def boundary(t: float) -> float:
        # ratio with x on the admissibility boundary c t^{1/p}
        return A * c ** p * t ** (B * C) * math.exp(-B * c * t ** (1.0 / p))

    candidates = [boundary(max(math.e, t_star))]
    if t_star > math.e:
        candidates += [interior(math.e), interior(t_star)]
    return c, max(candidates)
