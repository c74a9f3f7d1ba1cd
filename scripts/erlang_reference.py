"""Reference tables of duration quantiles for the quantile accuracy tests.

For every integer Gamma shape k on the fast path of
``GammaGaussianModel.tau_from_gaussian`` and every g on a fixed grid in
[-8.5, 8.5], solves F_k(x) = Phi(g) for the unit-scale Gamma(k) quantile x
at 40 significant digits with mpmath.  It writes one row per g to
``tests/erlang_quantiles.txt``: g, then x for each shape, all as
``float.hex`` (x rounded to the nearest double).

On the same grid it writes the ``ParetoCycleModel.tau_from_gaussian``
quantile 1 + Phi(-g)^(-1/theta) at theta = 3.5, also at 40 digits, to
``tests/pareto_quantiles.txt``: one row of g and the quantile per g.

Run by hand, from the repository root, when the shapes or the grid change:

    python scripts/erlang_reference.py

mpmath (1.3.0 was used) is needed here only; the tests read the table and
never import it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

SHAPES = range(1, 9)          # the integer shapes of the fast path
G_GRID = np.linspace(-8.5, 8.5, 841)
PARETO_TAIL_INDEX = 3.5
DIGITS = 40
TESTS = Path(__file__).resolve().parent.parent / "tests"
OUT = TESTS / "erlang_quantiles.txt"
PARETO_OUT = TESTS / "pareto_quantiles.txt"


def _quantile(k: int, g: float) -> mp.mpf:
    """The Gamma(k, 1) quantile at Phi(g), solved on the smaller tail.

    Both tails are written without cancellation: for g <= 0 the lower tail
    F(x) = e^-x sum_{i>=0} x^(i+k)/(i+k)! (through ``gammainc``), above 0 the
    upper tail Q(x) = e^-x sum_{j<k} x^j/j!.  Newton's method runs on the log
    of the tail, whose derivative is known in closed form, from the
    small-x (lower) or large-x (upper) asymptote.
    """
    g = mp.mpf(g)
    fact = mp.factorial(k - 1)
    if g <= 0:
        target = mp.log(mp.ncdf(g))

        def log_tail(x):
            return mp.log(mp.gammainc(k, 0, x, regularized=True))

        def slope(x):   # d log F / dx = f(x) / F(x)
            return (x ** (k - 1) * mp.exp(-x) / fact
                    / mp.gammainc(k, 0, x, regularized=True))

        x = mp.exp((target + mp.log(mp.factorial(k))) / k)
    else:
        target = mp.log(mp.ncdf(-g))

        def log_tail(x):
            return -x + mp.log(mp.fsum(x ** j / mp.factorial(j)
                                       for j in range(k)))

        def slope(x):   # d log Q / dx = -f(x) / Q(x)
            return -(x ** (k - 1) / fact
                     / mp.fsum(x ** j / mp.factorial(j) for j in range(k)))

        x = max(-target, mp.mpf(k))
    tol = mp.mpf(10) ** (-DIGITS - 5)
    for _ in range(200):
        step = (log_tail(x) - target) / slope(x)
        # the log tails are concave, so a Newton step that would leave
        # (0, inf) is halved instead
        while x - step <= 0:
            step /= 2
        x -= step
        if abs(step) <= tol * x:
            return x
    raise RuntimeError(f"no convergence at k={k}, g={g!r}")


def main() -> int:
    mp.mp.dps = DIGITS + 20
    header = [
        "# Gamma(k, 1) quantiles at Phi(g), one line per g: g, then the",
        f"# quantile for each shape k in {SHAPES.start}..{SHAPES.stop - 1}"
        f", all as float.hex; solved at {DIGITS}",
        f"# digits with mpmath {mp.__version__} by"
        " scripts/erlang_reference.py, then rounded to the nearest double",
    ]
    rows = [" ".join([float(g).hex()]
                     + [float(_quantile(k, float(g))).hex() for k in SHAPES])
            for g in G_GRID]
    OUT.write_text("\n".join(header + rows) + "\n")
    print(f"wrote {len(rows)} rows of {len(SHAPES)} shapes to {OUT}")

    header = [
        "# Pareto-cycle duration quantiles 1 + Phi(-g)^(-1/theta) at theta ="
        f" {PARETO_TAIL_INDEX}, one line",
        "# per g: g, then the quantile, both as float.hex; computed at"
        f" {DIGITS} digits with",
        f"# mpmath {mp.__version__} by scripts/erlang_reference.py, then"
        " rounded to the nearest double",
    ]
    power = -1 / mp.mpf(PARETO_TAIL_INDEX)
    rows = [f"{float(g).hex()} "
            f"{float(1 + mp.ncdf(-mp.mpf(float(g))) ** power).hex()}"
            for g in G_GRID]
    PARETO_OUT.write_text("\n".join(header + rows) + "\n")
    print(f"wrote {len(rows)} rows to {PARETO_OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
