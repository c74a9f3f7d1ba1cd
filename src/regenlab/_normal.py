"""The standard normal law in plain numpy: Phi and log Phi.

Every Gaussian-to-law coupling of the lab (the Gamma and Pareto duration
quantiles, the embedded Poisson counts) and the certifiers' oracles take
Phi from here.

All rest on the scaled tail K(z) = Phi(-z) exp(z^2/2) = erfcx(z/sqrt 2)/2
for z >= 0 (:func:`_scaled_tail`).  On [0, 12) it is the polynomial of z's
cell of width 1/16, degree 8 in the offset from the cell's left end;
beyond 12 it is the asymptotic
series (1/z) sum_n (-1)^n (2n-1)!! z^(-2n) / sqrt(2 pi) to n = 18, whose
first dropped term is below 1e-19 of the sum there (the approach of W. J.
Cody, Math. Comp. 23, 1969).  The coefficients are ``_normal_cells``,
fitted with mpmath at 40 digits by ``scripts/normal_reference.py``.

For g <= 0, Phi(g) = K(-g) exp(-g^2/2), with g^2 split exactly into
``sq + err`` (Dekker) so that the exponential loses no bit to rounding g^2;
above 0, Phi(g) = 1 - Phi(-g).  K is taken at -g itself, so no rounded
argument such as g/sqrt 2 enters.  Every element is computed from its own
value only, so any slice of an array gives the same bits.
"""

from __future__ import annotations

import numpy as np

from ._normal_cells import CELLS, TAIL

_PER_UNIT = 16.0   # cells per unit of z
_CELLS = np.array(CELLS).T.copy()   # one row per power, highest first
_CELLS.flags.writeable = False
_EDGE = _CELLS.shape[1] / _PER_UNIT   # the cells cover [0, 12)
_SPLIT = 134217729.0   # 2^27 + 1: Dekker's split of a double into halves
_CLIP = 40.0   # Phi(-40) is below the least subnormal


def _split(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = hi + lo exactly, each half with at most 26 significant bits."""
    hi = _SPLIT * g
    hi -= hi - g
    return hi, g - hi


def _scaled_tail(z: np.ndarray) -> np.ndarray:
    """K(z) = Phi(-z) exp(z^2/2) for z >= 0, elementwise: 0 at inf and NaN
    at NaN; a negative z is outside its domain."""
    with np.errstate(all="ignore"):   # the elements outside are redone
        s = z * _PER_UNIT
        whole = np.floor(s)
        cell = whole.astype(np.intp)   # clipped by the takes; NaN to 0 too
        s -= whole   # the offset from the cell's left end, in [0, 1)
        out = _CELLS[0].take(cell, mode="clip")
        for row in _CELLS[1:]:
            out *= s
            out += row.take(cell, mode="clip")
        far = np.flatnonzero(z >= _EDGE)   # a NaN stays NaN in its cell
        if far.size:
            big = z.take(far)
            v = 1.0 / (big * big)
            tail = np.full_like(v, TAIL[0])
            for c in TAIL[1:]:
                tail *= v
                tail += c
            out.put(far, tail / big)
    return out


def _pieces(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(K(z), sq, err)`` for z >= 0, z^2 split exactly into ``sq + err``
    (Dekker): log Phi(-z) = log K(z) - sq/2 - err/2."""
    hi, lo = _split(z)
    sq = z * z
    err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    return _scaled_tail(z), sq, err


def log_normal_pieces(g: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pieces ``(scaled, sq, err)`` of log Phi(g) for g <= 0:
    log Phi(g) = log(scaled) - sq/2 - err/2 with scaled = K(-g) and g^2
    split exactly into ``sq + err`` (Dekker)."""
    return _pieces(-g)


def _cdf_below(z: np.ndarray) -> np.ndarray:
    """Phi(-z) = K(z) e (1 - err/2), e = exp(-sq/2), for z >= 0, rounded
    once after K and e: their product is split exactly into p + dp
    (Dekker), and Phi(-z) = p + (dp - p err/2)."""
    scaled, sq, err = _pieces(z)
    e = np.exp(-0.5 * sq)
    p = scaled * e
    k_hi, k_lo = _split(scaled)
    e_hi, e_lo = _split(e)
    dp = ((k_hi * e_hi - p) + k_hi * e_lo + k_lo * e_hi) + k_lo * e_lo
    dp -= 0.5 * err * p
    p += dp
    return p


def normal_cdf_left(g: np.ndarray) -> np.ndarray:
    """Phi(g) for g <= 0."""
    return _cdf_below(-g)


def normal_cdf(g) -> np.ndarray:
    """Phi(g), elementwise: Phi(-|g|), taken from 1 above 0; |g| is
    clipped at 40, where Phi is 0 and 1, so that -inf and inf give 0 and
    1."""
    g = np.asarray(g, dtype=float)
    flat = g.ravel()
    low = np.abs(flat)
    np.minimum(low, _CLIP, out=low)   # keeps NaN
    low = _cdf_below(low)
    return np.where(flat > 0, 1.0 - low, low).reshape(g.shape)


def log_normal_sf(g: np.ndarray) -> np.ndarray:
    """log Phi(-g) = log(1 - Phi(g)) for g >= 0: log K(g) - sq/2 - err/2."""
    scaled, sq, err = _pieces(g)
    return np.log(scaled) - 0.5 * sq - 0.5 * err
