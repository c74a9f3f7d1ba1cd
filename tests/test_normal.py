"""The numpy normal law against 40-digit tables, and what the couplings
need of it: monotone Phi, and Poisson counts equal to scipy's."""
import functools
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from regenlab._normal import erfcx, log_normal_sf, normal_cdf
from regenlab.coupling import poisson_jump_counts
from regenlab.models import ParetoCycleModel, reference_greeks
from regenlab.rng import RngStream

TABLES = Path(__file__).resolve().parent


@functools.lru_cache(maxsize=None)
def _table(name: str) -> tuple[np.ndarray, np.ndarray]:
    """The argument and the value columns of a table written by
    scripts/normal_reference.py."""
    rows = [line.split() for line in (TABLES / name).read_text().splitlines()
            if not line.startswith("#")]
    x, ref = np.array([[float.fromhex(v) for v in row] for row in rows]).T
    return x, ref


def _ulp(ours: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.abs(ours - ref) / np.spacing(ref)


def test_erfcx_against_the_reference_table():
    x, ref = _table("erfcx_reference.txt")
    assert x.min() == 0.0 and x.max() == 1e300
    assert _ulp(erfcx(x), ref).max() <= 2.0


def test_normal_cdf_against_the_reference_table():
    g, ref = _table("normal_cdf_reference.txt")
    assert g.min() == -40.0 and g.max() == 8.5
    assert _ulp(normal_cdf(g), ref).max() <= 2.0


def test_log_normal_sf_against_the_reference_table():
    # log Phi(-z) from its pieces, against the log of the rounded 40-digit
    # Phi, which is itself up to 2^-53 off, where Phi is normal
    g, ref = _table("normal_cdf_reference.txt")
    keep = (g < 0.0) & (ref >= np.finfo(float).tiny)
    log_ref = np.log(ref[keep])
    assert np.all(np.abs(log_normal_sf(-g[keep]) - log_ref)
                  <= 2.0 * np.spacing(-log_ref) + 2.0 ** -53)


def test_special_values():
    np.testing.assert_array_equal(
        erfcx(np.array([0.0, np.inf])), [1.0, 0.0])
    assert np.all(np.isnan(erfcx(np.array([np.nan, -1.0]))))
    # past about 1e300 the argument's rounding is no longer undone
    assert erfcx(1e301) == pytest.approx(1.0 / (1e301 * np.sqrt(np.pi)),
                                         rel=1e-15)
    np.testing.assert_array_equal(
        normal_cdf(np.array([-np.inf, -40.0, 0.0, 40.0, np.inf])),
        [0.0, 0.0, 0.5, 1.0, 1.0])
    assert np.isnan(normal_cdf(np.nan))
    assert normal_cdf(-5.0).shape == ()
    assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)


def test_normal_cdf_is_nondecreasing():
    # the Poisson counts are a search of Phi(g) in a CDF table: monotone
    # in g only if Phi is
    g = np.sort(8.0 * RngStream(13, 0).generator().standard_normal(1_000_000))
    assert np.all(np.diff(normal_cdf(g)) >= 0)


@pytest.mark.parametrize("rate", [0.5, 2.0, "pareto"])
def test_poisson_counts_equal_scipys_ppf(rate):
    if rate == "pareto":   # the embedding rate of the pareto-cycle default
        rate = reference_greeks(ParetoCycleModel(tail_index=3.5), 3.0).lam
        assert round(rate, 2) == 15.43
    g = RngStream(13, 1).generator().standard_normal(1_000_000)
    oracle = stats.poisson.ppf(ndtr(g), rate)
    np.testing.assert_array_equal(poisson_jump_counts(g, rate),
                                  oracle.astype(np.int64))
