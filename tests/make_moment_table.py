"""Write tests/data/moment_table.json: 40-digit reference values of the
exponential-base law's raw moments 1-4, its order-2 Renyi entropy and
its mgf at t = alpha lam / 2, from mpmath alone, for
tests/test_family.py's TestMomentTable.

The law is X = log1p(beta/T)/lam with T ~ Gamma(alpha, 1), so
E X^m = integral of (log1p(beta e^-s)/lam)^m e^(alpha s - e^s)/Gamma(alpha)
ds over the real line, s = ln T. mpmath.quad takes it in pieces, split
at the mode ln alpha of the s-density, at ln alpha - k/alpha for
k = 1 ... 400 (its head falls like e^(alpha s)), at ln alpha +- j/sqrt(alpha)
and a few units to the right, and at ln beta, where x(s) turns from
linear to exponentially small. Its tail falls like e^(-e^s), and the
integral stops where that is below e^-150 of the peak.
The order-2 entropy is -ln E h(X), and on the gamma scale
h(X) = f_T(T) lam T (1 + T/beta), so E h(X) = lam Gamma(2 alpha)
(1 + alpha/beta) / (Gamma(alpha)^2 4^alpha) in closed form. The mgf is
E (1 + beta/T)^r = beta^alpha Gamma(alpha - r) U(alpha - r, alpha + 1, beta)
/ Gamma(alpha) at r = t/lam = alpha/2 (DLMF 13.4.4, mpmath.hyperu).

The grid is alpha in {1e-3, 0.013, 0.131, 0.5, 1, 2, 10, 50, 200} x
beta in {1e-3, 0.179, 20, 1e3} x lam in {0.539, 3}. The stored ceilings
bound the library's relative error on every cell, the entropy's
relative to max(1, |entropy|); they were set from its worst errors,
with and without numpy's AVX-512 kernels, and may only be tightened:
- moments: 2e-15; the worst is 1.6e-15, m4 at (10, 1e-3, 0.539);
- renyi2: 1.5e-13; the worst is 7.8e-14 at (200, 1e3, 0.539) (1.26e-13
  before the family's one log-density replaced the exponential base's
  own), where GammaRatioDist.log_pdf itself is off by about that much,
  as its terms alpha ln beta and ln Gamma(alpha) are near 10^3 (an
  exact log density on the same nodes meets the table to 4e-16);
  elsewhere 3.2e-14;
- mgf: 2e-14; the worst is 1.6e-14 at (200, 1e3, 3).

Run from the repository root: python tests/make_moment_table.py
It reproduces the committed file byte for byte.
"""

import json
from pathlib import Path

import mpmath

OUT = Path(__file__).resolve().parent / "data" / "moment_table.json"
DIGITS = 40
ALPHAS = [1e-3, 0.013, 0.131, 0.5, 1.0, 2.0, 10.0, 50.0, 200.0]
BETAS = [1e-3, 0.179, 20.0, 1e3]
LAMS = [0.539, 3.0]
CEILINGS = {"moments": 2e-15, "renyi2": 1.5e-13, "mgf": 2e-14}


def text(v):
    return mpmath.nstr(v, DIGITS, min_fixed=1, max_fixed=0)


def split_points(a, b):
    """Where the s-integrand changes its character, in increasing order,
    up to ln(a + 150 + 30 sqrt(a)), past which it is below e^-150 of
    its peak and is left out."""
    mode = mpmath.log(a)
    top = mpmath.log(a + 150 + 30 * mpmath.sqrt(a))
    points = {mode, mpmath.log(b), mode + 2, mode + 4}
    points.update(mode - mpmath.mpf(k) / a for k in (2, 10, 40, 160, 400))
    if a >= 1:
        points.update(mode + mpmath.mpf(j) / mpmath.sqrt(a) for j in (-6, -2, 2, 6))
    return [-mpmath.inf] + sorted(v for v in points if v < top) + [top]


def raw_moments(a, b, lam):
    """E X^m for m = 1..4 by quadrature over s = ln T."""
    log_norm = mpmath.loggamma(a)
    points = split_points(a, b)
    out = []
    for m in (1, 2, 3, 4):
        def f(s, m=m):
            x = mpmath.log1p(b * mpmath.exp(-s)) / lam
            return x**m * mpmath.exp(a * s - mpmath.exp(s) - log_norm)

        out.append(mpmath.quad(f, points))
    return out


def renyi2(a, b, lam):
    log_eh = (mpmath.log(lam) + mpmath.loggamma(2 * a) + mpmath.log1p(a / b)
              - 2 * mpmath.loggamma(a) - a * mpmath.log(4))
    return -log_eh


def mgf_half(a, b):
    r = a / 2
    return (b**a * mpmath.gamma(a - r) * mpmath.hyperu(a - r, a + 1, b)
            / mpmath.gamma(a))


def main():
    rows = []
    with mpmath.workdps(DIGITS + 15):
        for a in ALPHAS:
            for b in BETAS:
                for lam in LAMS:
                    ma, mb, ml = (mpmath.mpf(v) for v in (a, b, lam))
                    values = raw_moments(ma, mb, ml) + [renyi2(ma, mb, ml), mgf_half(ma, mb)]
                    rows.append([a, b, lam] + [text(v) for v in values])
    body = ",\n".join(json.dumps(row) for row in rows)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(
        f'{{"digits": {DIGITS},\n"ceilings": {json.dumps(CEILINGS)},\n'
        f'"columns": ["alpha", "beta", "lam", "m1", "m2", "m3", "m4", "renyi2", '
        f'"mgf_half"],\n"cells": [\n{body}\n]}}\n')


if __name__ == "__main__":
    main()
