"""Statistical utilities: binomial and order-statistic intervals, log-log
regression with a bootstrap, and a Poisson goodness-of-fit test.

Everything here is deterministic given its inputs (the bootstrap takes an
explicit generator), so experiment reports stay bit-reproducible.

Every interval is at the fixed 95% level.  The median CI's binomial
quantile is exact integer arithmetic, and the Wilson interval's normal
quantile a constant, so the module imports no scipy: importing
``scipy.special`` costs about a quarter of a second, which every regenlab
process would pay at start-up.  The one scipy function is
``scipy.special.chdtrc``, the chi-square tail of the Poisson
goodness-of-fit test, imported inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_GOF_MIN_EXPECTED = 5.0
_WILSON_Z = 1.959963984540054      # ndtri(0.5 + 0.95 / 2), bit for bit
_HALF_ALPHA = (1.0 - 0.95) / 2.0   # each tail of a 95% interval


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Behaves correctly at the extremes: zero successes give a lower endpoint
    of exactly 0 (and symmetrically at ``trials`` successes), which matters
    for far-tail Monte Carlo estimates where zero hits are routine.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    z = _WILSON_Z
    n = float(trials)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n
                         + z * z / (4.0 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _binom_half_ppf(q: float, n: int) -> int:
    """Smallest k with P(Binomial(n, 1/2) <= k) >= q, for 0 < q < 1.

    Exact: the running sums of C(n, j) are compared with q 2^n, so no
    rounding decides the index.
    """
    target = Fraction(q) * 2 ** n
    k = 0
    term = total = 1   # C(n, 0)
    while total < target:
        term = term * (n - k) // (k + 1)   # C(n, k + 1)
        k += 1
        total += term
    return k


@dataclass(frozen=True)
class MedianEstimate:
    """Sample median with a distribution-free order-statistic interval."""

    median: float
    ci_low: float
    ci_high: float
    n: int


def median_ci(samples) -> MedianEstimate:
    """Median and a conservative nonparametric 95% CI from order statistics.

    The endpoints are the k-th and (n+1-k)-th order statistics with k chosen
    from the binomial(n, 1/2) quantile, guaranteeing at least the nominal
    coverage.  Tiny samples fall back to the full range.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n < 1:
        raise ValueError("need at least one sample")
    med = float(np.median(xs))
    if n < 8:
        return MedianEstimate(med, float(xs[0]), float(xs[-1]), n)
    k = _binom_half_ppf(_HALF_ALPHA, n)
    k = min(max(k, 1), n // 2)
    return MedianEstimate(med, float(xs[k - 1]), float(xs[n - k]), n)


def loglog_slope(t_values, y_values) -> tuple[float, float]:
    """OLS slope and intercept of log y against log t."""
    t_values = np.asarray(t_values, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    if t_values.size < 2:
        raise ValueError("need at least two points to fit a slope")
    if np.any(t_values <= 0) or np.any(y_values <= 0):
        raise ValueError("log-log fit needs strictly positive data")
    slope, intercept = np.polyfit(np.log(t_values), np.log(y_values), 1)
    return float(slope), float(intercept)


def bootstrap_slope_ci(t_values, samples_per_t, gen: np.random.Generator,
                       n_boot: int = 400) -> tuple[float, float]:
    """95% percentile bootstrap CI for the log-log slope of per-t medians.

    Resamples within each horizon independently (the replications are i.i.d.
    within a horizon and independent across horizons).  The indices are
    drawn resample by resample, one horizon after another; the medians and
    the slopes are then taken for all resamples at once.
    """
    t_values = np.asarray(t_values, dtype=float)
    groups = [np.asarray(s, dtype=float) for s in samples_per_t]
    if len(groups) != t_values.size:
        raise ValueError("one sample group per horizon required")
    # int32 tables: half the memory of the drawn int64 indices
    draws = [np.empty((n_boot, g.size), dtype=np.int32) for g in groups]
    for b in range(n_boot):
        for g, rows in zip(groups, draws):
            rows[b] = gen.integers(0, g.size, size=g.size)
    log_medians = np.log([np.median(g[rows], axis=1)
                          for g, rows in zip(groups, draws)])
    slopes = np.polyfit(np.log(t_values), log_medians, 1)[0]
    lo, hi = np.quantile(slopes, [_HALF_ALPHA, 1.0 - _HALF_ALPHA])
    return float(lo), float(hi)


def poisson_gof_pvalue(counts, rate: float) -> float:
    """Chi-square goodness-of-fit p-value of integer counts vs Poisson(rate).

    Bins are pooled from both ends until every expected count reaches 5; the
    rate is treated as known (no estimated-parameter correction), so the
    degrees of freedom are bins - 1.  The chi-square tail is scipy's
    ``chdtrc``, imported here, so that only the embedding check, its one
    caller, loads scipy for it.
    """
    from scipy.special import chdtrc
    counts = np.asarray(counts)
    if counts.size < 10:
        raise ValueError("need at least 10 observations")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    n = counts.size
    kmax = int(counts.max())
    # pmf out to the observed maximum, remainder mass folded into a tail bin
    pmf = [math.exp(-rate)]
    for k in range(1, kmax + 1):
        pmf.append(pmf[-1] * rate / k)
    pmf = np.array(pmf)
    expected = np.append(n * pmf, n * max(0.0, 1.0 - pmf.sum()))
    observed = np.append(np.bincount(counts, minlength=kmax + 1)
                         .astype(float), 0.0)
    # pool the left then the right tail until expected counts are adequate
    obs_bins: list[float] = []
    exp_bins: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= _GOF_MIN_EXPECTED:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 or not obs_bins:
        if obs_bins:
            obs_bins[-1] += acc_o
            exp_bins[-1] += acc_e
        else:
            obs_bins, exp_bins = [acc_o], [acc_e]
    if len(obs_bins) < 2:
        raise ValueError("too few distinct counts for a chi-square test")
    obs_arr = np.array(obs_bins)
    exp_arr = np.array(exp_bins)
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    return float(chdtrc(len(obs_bins) - 1, stat))
