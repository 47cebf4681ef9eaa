"""Write tests/data/gamma_table.json: 40-digit reference values of the
regularized incomplete gamma pair Q(a, x), P(a, x) and of ln Gamma(a),
from mpmath alone, for tests/test_specfun.py::TestGammaTable.

The (a, x) grid crosses x = 1.1, where the power series give way to the
continued fraction and the igam series, and x = a. It covers a from
1e-4 to 20, a few shapes up to 1e3, and x up to 1e3, past the point
where Q underflows. Cells inside scipy's uniform asymptotic window
(20 < a < 200 with |x - a| < 0.3 a, a > 200 with |x - a| < 4.5 sqrt(a))
are left out. Each a and x is a float, taken at its exact binary value.
ln Gamma(a) is tabled on a from 5e-324 to 1e6.

Run from the repository root: python tests/make_gamma_table.py
It reproduces the committed file byte for byte.
"""

import json
import math
from pathlib import Path

import mpmath
import numpy as np

OUT = Path(__file__).resolve().parent / "data" / "gamma_table.json"
DIGITS = 40

SHAPES = sorted(set(
    [float(a) for a in np.geomspace(1e-4, 20.0, 25)]
    + [0.131, 0.45, 0.5, 0.55, 0.84, 1.0, 1.2, 1.5, 2.0, 2.5, 3.3, 7.5, 13.0, 20.0]
    + [40.0, 100.0, 170.0, 300.0, 1000.0]))
XS = [1e-300, 1e-10, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.05, 1.1,
      math.nextafter(1.1, 2.0),
      1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 20.0, 30.0, 50.0, 80.0, 120.0, 200.0,
      350.0, 600.0, 745.0, 800.0, 1000.0]
NEAR_A = (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0)


def in_window(a, x):
    r = abs(x - a) / a
    return (20.0 < a < 200.0 and r < 0.3) or (a > 200.0 and r < 4.5 / math.sqrt(a))


def cells():
    for a in SHAPES:
        for x in sorted(set(XS + [a * f for f in NEAR_A])):
            if not in_window(a, x):
                yield a, x


def text(v):
    return mpmath.nstr(v, DIGITS, min_fixed=1, max_fixed=0)


def main():
    with mpmath.workdps(DIGITS + 10):
        gamma = []
        for a, x in cells():
            ma, mx = mpmath.mpf(a), mpmath.mpf(x)
            q = mpmath.gammainc(ma, mx, mpmath.inf, regularized=True)
            p = mpmath.gammainc(ma, 0, mx, regularized=True)
            gamma.append([a, x, text(q), text(p)])
        log_gamma = []
        for a in sorted(set([5e-324, 1e-320, 1e-310, 2.2250738585072014e-308]
                            + [float(v) for v in np.geomspace(1e-300, 1e6, 160)]
                            + [0.5, 1.0, 1.4999999999999998, 1.5, 2.0, 2.5, 9.999999999999998,
                               10.0, 171.5])):
            log_gamma.append([a, text(mpmath.loggamma(mpmath.mpf(a)))])
    # one row a line
    rows = lambda table: ",\n".join(json.dumps(row) for row in table)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(f'{{"digits": {DIGITS},\n"gamma": [\n{rows(gamma)}\n],\n'
                   f'"log_gamma": [\n{rows(log_gamma)}\n]}}\n')


if __name__ == "__main__":
    main()
