"""Coefficients of regenlab's normal law, and reference tables of erfcx and Phi.

``regenlab._normal`` evaluates the scaled normal tail

    K(z) = Phi(-z) exp(z^2/2) = erfcx(z/sqrt 2)/2,   z >= 0,

on [0, 12) by cells of width 1/16, one degree-8 polynomial per cell in the
offset from the cell's left end, and beyond 12 by its asymptotic series (the
approach of W. J. Cody, Math. Comp. 23, 1969).  This script fits each cell's
polynomial with ``mpmath.chebyfit`` at 40 digits and writes it, each
coefficient rounded to the nearest double, with the series' coefficients,
to ``src/regenlab/_normal_cells.py``.

It also writes two tables for the accuracy tests, each value computed at 40
digits and rounded to the nearest double, one ``float.hex`` pair per line:

* ``tests/erfcx_reference.txt``: x and erfcx(x) for x on a step-1/80 grid of
  [0, 30], at x = z/sqrt 2 for every cell edge z and the doubles on either
  side of it, and at large x up to 1e300;
* ``tests/normal_cdf_reference.txt``: g and Phi(g) for g on a step-1/40 grid
  of [-40, 8.5], at g = +-z for every cell edge z and the doubles on either
  side of it.

Run by hand, from the repository root, when the cells or the grids change:

    python scripts/normal_reference.py

Last it prints how far ``erfcx`` and ``normal_cdf`` of the freshly written
module are from each table, in ulp.  mpmath (1.3.0 was used) is needed here
only; the library reads the written coefficients and the tests read the
tables.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

PER_UNIT = 16         # cells per unit of z ...
EDGE = 12             # ... on [0, EDGE); the asymptotic series beyond
DEGREE = 8            # degree of each cell's polynomial
TAIL_TERMS = 19       # terms of the series, n = 0..18
DIGITS = 40
ROOT = Path(__file__).resolve().parent.parent
CELLS_OUT = ROOT / "src" / "regenlab" / "_normal_cells.py"
ERFCX_OUT = ROOT / "tests" / "erfcx_reference.txt"
PHI_OUT = ROOT / "tests" / "normal_cdf_reference.txt"


def _erfcx(x) -> mp.mpf:
    """erfcx(x) at the working precision; from x = 40 up by its asymptotic
    series, whose least term there is about e^-1600 (mpmath's erfc cannot
    take x = 1e300)."""
    x = mp.mpf(x)
    if x < 40:
        return mp.erfc(x) * mp.exp(x * x)
    v, term, terms = 1 / (2 * x * x), mp.mpf(1), []
    for n in range(1, 200):
        terms.append(term)
        term *= -(2 * n - 1) * v
        if abs(term) < mp.eps:
            break
    return mp.fsum(terms) / (x * mp.sqrt(mp.pi))


def _scaled_tail(z) -> mp.mpf:
    """K(z) = erfcx(z/sqrt 2)/2."""
    return _erfcx(mp.mpf(z) / mp.sqrt(2)) / 2


def _cells() -> list[list[float]]:
    """Per cell k, the coefficients (highest power first) of the polynomial
    in s = 16z - k, s in [0, 1], fitted to K((k + s)/16)."""
    out = []
    for k in range(EDGE * PER_UNIT):
        coef, err = mp.chebyfit(lambda s: _scaled_tail((k + s) / PER_UNIT),
                                [0, 1], DEGREE + 1, error=True)
        # within 1/8 ulp of the cell's least value, at its right end
        assert err < mp.mpf(2) ** -56 * _scaled_tail(mp.mpf(k + 1) / PER_UNIT), k
        out.append([float(c) for c in coef])
    return out


def _tail() -> list[float]:
    """The series z K(z) = sum_n (-1)^n (2n-1)!! v^n / sqrt(2 pi),
    v = 1/z^2, as Horner coefficients in v (highest power first)."""
    return [float((-1) ** n * mp.fac2(2 * n - 1) / mp.sqrt(2 * mp.pi))
            for n in reversed(range(TAIL_TERMS))]


def _write_cells(cells: list[list[float]], tail: list[float]) -> None:
    lines = [
        '"""Coefficients of the scaled normal tail in ``regenlab._normal``,',
        "written by scripts/normal_reference.py from 40-digit mpmath; do not",
        "edit by hand.",
        "",
        f"CELLS[k] is cell [k/{PER_UNIT}, (k+1)/{PER_UNIT}) of [0, {EDGE}): "
        f"the degree-{DEGREE} polynomial in",
        f"s = {PER_UNIT}z - k, highest power first.  TAIL holds z K(z) beyond "
        f"{EDGE} as a",
        "polynomial in v = 1/z^2, highest power first.",
        '"""',
        "",
        "CELLS = (",
    ]
    for coef in cells:
        for lo in range(0, len(coef), 4):
            lines.append(("    (" if lo == 0 else "     ")
                         + ", ".join(repr(c) for c in coef[lo:lo + 4])
                         + ("," if lo + 4 < len(coef) else "),"))
    lines.append(")")
    lines.append("")
    lines.append("TAIL = (")
    for lo in range(0, len(tail), 3):
        lines.append("    " + ", ".join(repr(c) for c in tail[lo:lo + 3]) + ",")
    lines.append(")")
    CELLS_OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(cells)} cells and {len(tail)} series terms to "
          f"{CELLS_OUT}")


def _with_neighbours(points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, -np.inf),
                           np.nextafter(points, np.inf)])


def _double(value: mp.mpf) -> float:
    """``value`` rounded once to the nearest double, subnormals included
    (``float`` would round a subnormal twice)."""
    tiny = mp.mpf(2) ** -1074
    if abs(value) < mp.mpf(2) ** -1022:
        return float(mp.nint(value / tiny) * tiny)
    return float(value)


def _table(path: Path, header: list[str], xs: np.ndarray, fn) -> None:
    rows = [f"{float(x).hex()} {_double(fn(x)).hex()}" for x in xs]
    path.write_text("\n".join(header + rows) + "\n")
    print(f"wrote {len(rows)} rows to {path}")


def main() -> int:
    mp.mp.dps = DIGITS + 20
    _write_cells(_cells(), _tail())

    edges = np.arange(EDGE * PER_UNIT + 1) / PER_UNIT   # in z
    large = [40.0, 100.0, 1e3, 1e4, 1e8, 1e20, 1e100, 1e300]
    xs = np.concatenate([np.linspace(0.0, 30.0, 30 * 80 + 1),
                         _with_neighbours(edges / np.sqrt(2.0)), large])
    xs = np.unique(xs[xs >= 0])
    provenance = (f"computed at {DIGITS} digits with mpmath {mp.__version__} "
                  "by scripts/normal_reference.py, then")
    _table(ERFCX_OUT, [
        "# erfcx(x) = exp(x^2) erfc(x), one line per x: x, then erfcx(x),"
        " both as float.hex;",
        f"# {provenance}",
        "# rounded to the nearest double",
    ], xs, _erfcx)

    gs = np.concatenate([np.linspace(-40.0, 8.5, 48 * 40 + 21),
                         _with_neighbours(-edges),
                         _with_neighbours(edges[edges <= 8.5]),
                         _with_neighbours([-1.0])])
    gs = np.unique(gs[(gs >= -40.0) & (gs <= 8.5)])
    _table(PHI_OUT, [
        "# Phi(g), the standard normal CDF, one line per g: g, then Phi(g),"
        " both as float.hex;",
        f"# {provenance}",
        "# rounded to the nearest double",
    ], gs, lambda g: mp.ncdf(mp.mpf(float(g))))

    sys.path.insert(0, str(ROOT / "src"))
    from regenlab._normal import erfcx, normal_cdf
    for name, fn, path in (("erfcx", erfcx, ERFCX_OUT),
                           ("normal_cdf", normal_cdf, PHI_OUT)):
        rows = [line.split() for line in path.read_text().splitlines()
                if not line.startswith("#")]
        x, ref = np.array([[float.fromhex(v) for v in row]
                           for row in rows]).T
        ulp = np.abs(fn(x) - ref) / np.spacing(ref)
        print(f"{name}: at most {ulp.max():g} ulp off {path.name}, "
              f"mean {ulp.mean():.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
