"""Write tests/data/gamma_table.json: 40-digit reference values of the
regularized incomplete gamma pair Q(a, x), P(a, x), of ln Gamma(a), of
the digamma function and the gamma shape terms, and of the normal cdf
and quantile, from mpmath alone, for tests/test_specfun.py's
TestGammaTable and TestShapeTable and tests/test_gof.py's TestNormalTable.

The (a, x) grid crosses x = 1.1, where the power series give way to the
Taylor rows, the continued fraction and the igam series, and x = a. It
covers a from 1e-4 to 20, a few shapes up to 1e3, and x up to 1e3, past
the point where Q underflows. Below a = 9 it also holds each edge of
the Taylor rows, 1.1 * 1.2^(i - 1/2) for i = 1..12, the last the row
top, and the float below it, the last x of the row beneath. Cells
inside scipy's uniform asymptotic window (20 < a < 200 with
|x - a| < 0.3 a, a > 200 with |x - a| < 4.5 sqrt(a)) are left out.
Each a, x, p and y is a float, taken at its exact binary value.
ln Gamma(a) is tabled on a from 5e-324 to 1e6, and so are psi(a),
log a - psi(a) and a^2 psi'(a + 1), with 100 more shapes between 0.3
and 30, where the recurrences act. The normal quantile is tabled on p
from 1e-300 to 1 - 1e-16, the normal cdf on y from -38 to 9.

Each of the last five rows stores a ceiling on the worst error the
tests allow. Four are no looser than the worst error of what
scipy.special gives on the same rows (psi; np.log(a) - psi(a) below
a = 10 with the same asymptotic series above; a * (a * zeta(2, a + 1));
ndtr), the fifth is the standard library's AS 241 quantile's own:
- digamma: |error| / max(1, |psi|) <= 2.22e-16; scipy's worst 2.2204e-16
  (at a = 0.797), the package's 2.209e-16 (at a = 3.217);
- log_minus_digamma: relative, 2e-15; scipy's worst 7.8e-15 (at
  a = 8.5, where log a and psi(a) cancel), the package's 1.1e-15;
- sq_trigamma1, a^2 psi'(a + 1): relative, plus the smallest subnormal
  where the value underflows, 4.5e-16; scipy's worst 6.1e-16, the
  package's 3.6e-16;
- ndtri: relative, 0 at p = 1/2, 6e-16; the standard library's AS 241
  reaches 5.6e-16 in the tails (at p = 3.2e-82), where scipy's ndtri
  keeps 3.0e-16, and scipy's worst is 4.3e-16, at p = 0.15;
- ndtr: relative to max(1, y^2) Phi(y), floored at the smallest normal,
  as rounding y / sqrt(2) moves erfc(-y / sqrt(2)) by about y^2 ulp,
  3e-16; scipy's worst 7.9e-7, where its values below y = -37.5 lose
  their digits as subnormals, the package's 1.8e-16.
A value past the float range is tabled as text, and the tests ask for
the infinity of its sign.

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
# specfun._ROW_EDGES but the first, which lies below x = 1.1
ROW_EDGES = [1.1 * 1.2 ** (i - 0.5) for i in range(1, 13)]
ROW_XS = sorted(ROW_EDGES + [math.nextafter(e, 0.0) for e in ROW_EDGES])
LOG_GAMMA_SHAPES = sorted(set(
    [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308]
    + [float(v) for v in np.geomspace(1e-300, 1e6, 160)]
    + [0.5, 1.0, 1.4999999999999998, 1.5, 2.0, 2.5, 9.999999999999998, 10.0, 171.5]))
PSI_SHAPES = sorted(set(
    LOG_GAMMA_SHAPES + [float(v) for v in np.geomspace(1e-300, 1e6, 600)]
    + [float(v) for v in np.geomspace(0.3, 30.0, 100)] + [1.4616321449683622]))
NORMAL_PS = sorted(set(
    [float(v) for v in np.geomspace(1e-300, 0.5, 300)]
    + [1.0 - float(v) for v in np.geomspace(1e-16, 0.5, 150)]
    + [float(v) for v in np.linspace(0.01, 0.99, 99)]))
NORMAL_YS = [float(v) for v in np.linspace(-38.0, 9.0, 471)]
CEILINGS = {"digamma": 2.22e-16, "log_minus_digamma": 2e-15, "sq_trigamma1": 4.5e-16,
            "ndtri": 6e-16, "ndtr": 3e-16}


def in_window(a, x):
    r = abs(x - a) / a
    return (20.0 < a < 200.0 and r < 0.3) or (a > 200.0 and r < 4.5 / math.sqrt(a))


def cells():
    for a in SHAPES:
        rows = ROW_XS if a < 9.0 else []
        for x in sorted(set(XS + [a * f for f in NEAR_A] + rows)):
            if not in_window(a, x):
                yield a, x


def text(v):
    return mpmath.nstr(v, DIGITS, min_fixed=1, max_fixed=0)


def normal_quantile(p):
    """The root of log Phi(x) = log min(p, 1 - p), by mpmath's secant
    steps from the tail asymptote, at the caller's precision."""
    if p == 0.5:
        return mpmath.mpf(0)
    q = min(mpmath.mpf(p), 1 - mpmath.mpf(p))
    log_q = mpmath.log(q)
    x = mpmath.findroot(lambda t: mpmath.log(mpmath.ncdf(t)) - log_q, -mpmath.sqrt(-2 * log_q))
    return x if p < 0.5 else -x


def main():
    with mpmath.workdps(DIGITS + 10):
        gamma = []
        for a, x in cells():
            ma, mx = mpmath.mpf(a), mpmath.mpf(x)
            q = mpmath.gammainc(ma, mx, mpmath.inf, regularized=True)
            p = mpmath.gammainc(ma, 0, mx, regularized=True)
            gamma.append([a, x, text(q), text(p)])
        log_gamma = [[a, text(mpmath.loggamma(mpmath.mpf(a)))] for a in LOG_GAMMA_SHAPES]
        ndtri = [[p, text(normal_quantile(p))] for p in NORMAL_PS]
        ndtr = [[y, text(mpmath.ncdf(mpmath.mpf(y)))] for y in NORMAL_YS]
    # log a - psi(a) cancels to about 7 of its digits at a = 1e6
    with mpmath.workdps(DIGITS + 20):
        digamma, log_minus_digamma, sq_trigamma1 = [], [], []
        for a in PSI_SHAPES:
            ma = mpmath.mpf(a)
            psi = mpmath.digamma(ma)
            digamma.append([a, text(psi)])
            log_minus_digamma.append([a, text(mpmath.log(ma) - psi)])
            sq_trigamma1.append([a, text(ma * ma * mpmath.psi(1, ma + 1))])
    # one row a line
    rows = lambda table: ",\n".join(json.dumps(row) for row in table)
    tables = {"gamma": gamma, "log_gamma": log_gamma, "digamma": digamma,
              "log_minus_digamma": log_minus_digamma, "sq_trigamma1": sq_trigamma1,
              "ndtri": ndtri, "ndtr": ndtr}
    body = ",\n".join(f'"{name}": [\n{rows(table)}\n]' for name, table in tables.items())
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(f'{{"digits": {DIGITS},\n"ceilings": {json.dumps(CEILINGS)},\n{body}}}\n')


if __name__ == "__main__":
    main()
