"""Gamma-function primitives: log-gamma, digamma, log a - psi(a) for the
gamma shape equation, the trigamma term of the fitted models' Hessians,
the regularized incomplete gamma pair and its inverses.

These are the innermost kernels of the package, on scipy.special with
one exception. Q(a, x), behind the family's cdf and reg_upper_gamma,
is _reg_upper_gamma_vec: on the inputs where scipy's gammaincc takes
its igamc_series branch (DiDonato & Morris, ACM TOMS 12, 1986; DLMF
8.7.3), that is 0 < x <= 1.1 and a <= 1.21, it evaluates the same
series in numpy. scipy recomputes the shape-only constants
ln Gamma(1+a) and ln Gamma(a) for every element there, about 1.5 us a
point at a < 1, ten times its cost elsewhere; here they are computed
once per call. Every other input, x = 0, inf and nan included, goes to
special.gammaincc unchanged, so each input has exactly one path and
the branch rule is scipy's own. ln Gamma(1+a) comes from a Taylor
series in zeta values, as in cephes, because special.gammaln(1 + a)
loses the digits of a small a that 1 + a rounds away.

The inverses are scipy's gammainccinv/gammaincinv, which implement
DiDonato & Morris (ACM TOMS 12, 1986) and keep relative accuracy in
both tails. The scalar forms validate their arguments and return
floats; the unvalidated elementwise forms serve the family's array
quantiles, which validate their arguments themselves.

A root below double range comes back as 0 or a subnormal number. The
callers that need such roots take them in log space instead (see
GammaRatioDist._x_of_levels).
"""

import math

import numpy as np
from scipy import special

__all__ = [
    "log_gamma",
    "digamma",
    "reg_upper_gamma",
    "reg_lower_gamma",
    "inv_reg_upper_gamma",
    "inv_reg_lower_gamma",
]


def log_gamma(a):
    """ln Gamma(a) for a > 0."""
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a > 0, got {a}")
    return float(special.gammaln(a))


def digamma(a):
    """d/da ln Gamma(a) for a > 0."""
    if not a > 0.0:
        raise ValueError(f"digamma requires a > 0, got {a}")
    return float(special.psi(a))


# B_2k / 2k, k = 1..7: the coefficients of a^-2k in log a - psi(a)
_LOG_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def _log_minus_digamma(a):
    """log a - psi(a) for a > 0, elementwise. From a = 10 on, where the
    two terms cancel, it is the asymptotic series 1/(2a) + sum_k B_2k /
    (2k a^2k) (DLMF 5.11.2) through k = 7, whose next term is below
    1e-15 of the sum there."""
    a = np.asarray(a, dtype=float)
    small = a < 10.0
    near = np.where(small, a, 1.0)
    far = np.where(small, 10.0, a)
    r = 1.0 / (far * far)
    tail = 0.0
    for c in reversed(_LOG_DIGAMMA_SERIES):
        tail = (tail + c) * r
    return np.where(small, np.log(near) - special.psi(near), 0.5 / far + tail)[()]


def _sq_trigamma(a):
    """a^2 psi'(a) for a > 0, elementwise, the trigamma term of a
    log-coordinate Hessian, as 1 + a^2 psi'(a + 1) (DLMF 5.15.5), which
    stays finite as a -> 0 where psi'(a) ~ 1/a^2 overflows. psi'(q) is
    the Hurwitz zeta function zeta(2, q). The product is taken as
    a * (a psi'(a + 1)), whose inner factor stays near 1, so it stays
    finite up to a ~ 1.8e308 where a * a would overflow."""
    a = np.asarray(a, dtype=float)
    return (1.0 + a * (a * special.zeta(2.0, a + 1.0)))[()]


def reg_upper_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a).

    Q(a, 0) = 1 and Q decreases to 0 as x grows; Q + P = 1 with
    reg_lower_gamma.
    """
    if not a > 0.0:
        raise ValueError(f"reg_upper_gamma requires a > 0, got {a}")
    if not x >= 0.0:
        raise ValueError(f"reg_upper_gamma requires x >= 0, got {x}")
    return float(_reg_upper_gamma_vec(a, x))


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) = 1 - Q(a, x)."""
    if not a > 0.0:
        raise ValueError(f"reg_lower_gamma requires a > 0, got {a}")
    if not x >= 0.0:
        raise ValueError(f"reg_lower_gamma requires x >= 0, got {x}")
    return float(special.gammainc(a, x))


def inv_reg_upper_gamma(a, p):
    """Solve Q(a, x) = p for x, with 0 < p <= 1; returns 0.0 when p == 1.

    Q(a, x) = Gamma(a, x)/Gamma(a) is the regularized upper incomplete
    gamma function.
    """
    if not a > 0.0:
        raise ValueError(f"inv_reg_upper_gamma requires a > 0, got {a}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"inv_reg_upper_gamma requires 0 < p <= 1, got {p}")
    return float(special.gammainccinv(a, p))


def inv_reg_lower_gamma(a, s):
    """Solve P(a, x) = s for x, with 0 <= s < 1; returns 0.0 when s == 0.

    P = 1 - Q is the regularized lower incomplete gamma function. Small
    s keeps relative accuracy, so upper-tail quantiles do too.
    """
    if not a > 0.0:
        raise ValueError(f"inv_reg_lower_gamma requires a > 0, got {a}")
    if not (0.0 <= s < 1.0):
        raise ValueError(f"inv_reg_lower_gamma requires 0 <= s < 1, got {s}")
    return float(special.gammaincinv(a, s))


_inv_reg_upper_gamma_vec = special.gammainccinv
_inv_reg_lower_gamma_vec = special.gammaincinv


# scipy's igamc_series branch needs x <= 1.1 and, above x = 0.5,
# 1.1 x >= a, so no x takes it once a > 1.21
_SERIES_MAX_A = 1.1 * 1.1
# sum_n (-x)^n / (n! (a + n)): at x = 1.1 term 24 is below 1e-23 of the sum
_SERIES_N = np.arange(1.0, 25.0)
_EULER = 0.5772156649015329
_MACHEP = 2.0 ** -53
# zeta(n) for n = 2..41, the Taylor coefficients of ln Gamma(1+t) times n
_ZETA = tuple(float(z) for z in special.zeta(np.arange(2.0, 42.0)))


def _lgam1p_taylor(t):
    """ln Gamma(1 + t) = -gamma t + sum_{n>=2} zeta(n) (-t)^n / n, |t| <= 1/2.

    Summed term by term to n = 41 with cephes' stopping rule, so the
    value matches the one scipy's gammaincc uses internally, truncation
    included: just inside |t| = 1/2 that costs up to 9e-14 relative.
    """
    res = -_EULER * t
    t_pow = -t
    for n, zeta_n in enumerate(_ZETA, start=2):
        t_pow *= -t
        term = zeta_n * t_pow / n
        res += term
        if abs(term) < _MACHEP * abs(res):
            break
    return res


def _lgam1p(a):
    """ln Gamma(1 + a) for 0 < a < 3/2, accurate to the last digits as a
    goes to 0, where special.gammaln(1 + a) loses the digits of a that
    1 + a rounds away."""
    if a <= 0.5:
        return _lgam1p_taylor(a)
    return math.log(a) + _lgam1p_taylor(a - 1.0)


def _reg_upper_gamma_vec(a, x):
    """Q(a, x) elementwise over an array x for one shape a > 0, unvalidated.

    Where scipy takes its igamc_series branch (0 < x <= 1.1, with
    -0.4/ln x >= a for x <= 0.5 and 1.1 x >= a above) this evaluates
    Q = -expm1(a ln x - ln Gamma(1+a)) - x^a/Gamma(a) sum_{n=1..24}
    (-x)^n/(n! (a+n)) with the shape constants computed once; all other
    x go to special.gammaincc. nan gives nan, as scipy does.
    """
    x = np.asarray(x, dtype=float)
    if not a <= _SERIES_MAX_A:
        return special.gammaincc(a, x)
    x1 = np.atleast_1d(x)
    # -0.4/ln x >= a  <=>  x >= exp(-0.4/a) for 0 < x < 1
    x_lo = max(math.exp(-0.4 / a), math.ulp(0.0))
    series = np.where(x1 <= 0.5, x1 >= x_lo, (x1 <= 1.1) & (1.1 * x1 >= a))
    if not series.any():
        return special.gammaincc(a, x)
    # x = 0 is scipy's immediate exit, so the series points cost it nothing
    out = special.gammaincc(a, np.where(series, 0.0, x1))
    xs = x1[series]
    neg_x = -xs
    term = np.ones_like(xs)
    total = np.zeros_like(xs)
    a_ln_x = a * np.log(xs)
    with np.errstate(under="ignore"):
        # summed in cephes' order, which keeps the result within a few
        # ulp of scipy's where the two terms of Q cancel
        for n, a_n in zip(_SERIES_N, a + _SERIES_N):
            term *= neg_x / n
            total += term / a_n
        out[series] = (
            -np.expm1(a_ln_x - _lgam1p(a))
            - np.exp(a_ln_x - special.gammaln(a)) * total
        )
    return out.reshape(x.shape)
