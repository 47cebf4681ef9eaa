"""Gamma-function primitives: log-gamma, digamma, log a - psi(a) for the
gamma shape equation, the trigamma term of the fitted models' Hessians,
the regularized incomplete gamma pair and its inverses.

These are the innermost kernels of the package, on scipy.special with
one exception. This is the only module that calls scipy's incomplete
gamma (gammainc and gammaincc): GammaRatioDist's cdf and sf, the m1
gamma model's cdf and sf, and reg_upper_gamma/reg_lower_gamma take Q
and P from _reg_upper_gamma_vec and _reg_lower_gamma_vec here, so a new
kernel for either is a change to this module alone.

Q(a, x) is _reg_upper_gamma_vec, which keeps scipy's gammaincc algorithm
(DiDonato & Morris, ACM TOMS 12, 1986) and its branch rule but
evaluates both of its power series, the ones it takes at 0 < x <= 1.1,
in numpy: igamc_series (DLMF 8.7.3, Q directly) and 1 - igam_series
(DLMF 8.7.1, Q = 1 - P). scipy recomputes the shape-only constants,
ln Gamma(a) among them, for every element there, at 4 to 6.5 us a
point on igamc_series and 80 to 130 ns on igam_series (on 1e5 points,
a 2-core x86 VM); here they are computed once per block of _MAP_BLOCK
(32,768) points, and the two take about 60 to 80 and 20 to 30 ns a
point. x > 1.1 (a continued fraction or an asymptotic series in scipy)
and x = 0, inf and nan go to special.gammaincc. A large call runs in
blocks whose temporaries stay in a core's L2 cache, as do the family's
sampler arithmetic and OEGammaDist.log_pdf. A point's route depends on
a and x alone, never on the size of its call or on its block, so a
scalar Q equals the array kernel's bit for bit.
ln Gamma(1+a) comes from a Taylor series in zeta values, as in cephes,
because special.gammaln(1 + a) loses the digits of a small a that
1 + a rounds away.

The inverses are scipy's gammainccinv/gammaincinv, which implement
DiDonato & Morris (ACM TOMS 12, 1986) and keep relative accuracy in
both tails. The scalar forms validate their arguments and return
floats; the unvalidated elementwise forms serve the family's array
quantiles, which validate their arguments themselves.

A root below double range comes back as 0 or a subnormal number. The
callers that need such roots take them in log space instead (see
GammaRatioDist._x_of_levels).

scipy.special is loaded on first use, through one handle: `special`
below, which family, expgamma, models and gof import from here. Its
import costs about half a second, and `import oddsgamma` and the
sample command never need it. The handle imports the module at its
first attribute lookup and keeps each name it has looked up, so a
later lookup is an instance attribute. fit's `optimize` is the same
kind of handle on scipy.optimize, which no command loads.
"""

import importlib
import math

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "reg_upper_gamma",
    "reg_lower_gamma",
    "inv_reg_upper_gamma",
    "inv_reg_lower_gamma",
]


class _Deferred:
    """A module imported at the first attribute lookup; each name looked
    up is kept on the handle, where it can also be patched."""

    def __init__(self, module_name):
        self._module_name = module_name

    def __getattr__(self, name):
        value = getattr(importlib.import_module(self._module_name), name)
        setattr(self, name, value)
        return value


special = _Deferred("scipy.special")


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
    """log a - psi(a) for a > 0, elementwise, a numpy scalar for a
    scalar. From a = 10 on, where the two terms cancel, it is the
    asymptotic series 1/(2a) + sum_k B_2k / (2k a^2k) (DLMF 5.11.2)
    through k = 7, whose next term is below 1e-15 of the sum there."""
    a = np.asarray(a, dtype=float)[()]
    small = a < 10.0
    # a 0-d small by truthiness: .all() on a numpy scalar costs about 2.5 us
    if small.all() if small.ndim else small:  # false for nan
        return np.log(a) - special.psi(a)
    near = np.where(small, a, 1.0)
    far = np.where(small, 10.0, a)
    r = 1.0 / (far * far)
    tail = 0.0
    for c in reversed(_LOG_DIGAMMA_SERIES):
        tail = (tail + c) * r
    return np.where(small, np.log(near) - special.psi(near), 0.5 / far + tail)[()]


def _sq_trigamma(a):
    """a^2 psi'(a) for a > 0, elementwise, a numpy scalar for a scalar:
    the trigamma term of a log-coordinate Hessian, as 1 + a^2 psi'(a + 1)
    (DLMF 5.15.5), which stays finite as a -> 0 where psi'(a) ~ 1/a^2
    overflows. psi'(q) is the Hurwitz zeta function zeta(2, q). The
    product is taken as a * (a psi'(a + 1)), whose inner factor stays
    near 1, so it stays finite up to a ~ 1.8e308 where a * a would
    overflow."""
    a = np.asarray(a, dtype=float)[()]
    return 1.0 + a * (a * special.zeta(2.0, a + 1.0))


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
    return float(_reg_lower_gamma_vec(a, x))


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


def _reg_lower_gamma_vec(a, x):
    """reg_lower_gamma elementwise, unvalidated."""
    return special.gammainc(a, x)


def _inv_reg_upper_gamma_vec(a, p):
    """inv_reg_upper_gamma elementwise, unvalidated."""
    return special.gammainccinv(a, p)


def _inv_reg_lower_gamma_vec(a, s):
    """inv_reg_lower_gamma elementwise, unvalidated."""
    return special.gammaincinv(a, s)


# scipy's gammaincc takes one of its two power series at 0 < x <= 1.1
# and a continued fraction or an asymptotic series above
_SERIES_MAX_X = 1.1
# points per block of a large pointwise map: a block's float64
# temporaries stay in a core's L2 cache
_MAP_BLOCK = 32_768
# igamc_series needs 1.1 x >= a above x = 0.5, so no x takes it past this
_IGAMC_MAX_A = _SERIES_MAX_X * _SERIES_MAX_X
_EULER = 0.5772156649015329
_MACHEP = 2.0 ** -53
# zeta(n) for n = 2..41, the Taylor coefficients of ln Gamma(1+t) times n,
# each correctly rounded (special.zeta's values, and 40-digit mpmath's)
_ZETA = (
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381,
    1.03692775514337, 1.0173430619844492, 1.008349277381923,
    1.0040773561979444, 1.0020083928260821, 1.000994575127818,
    1.0004941886041194, 1.000246086553308, 1.0001227133475785,
    1.0000612481350588, 1.000030588236307, 1.0000152822594086,
    1.0000076371976379, 1.000003817293265, 1.0000019082127165,
    1.0000009539620338, 1.0000004769329869, 1.0000002384505027,
    1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334,
    1.0000000018626598, 1.0000000009313275, 1.0000000004656628,
    1.000000000232831, 1.0000000001164155, 1.0000000000582077,
    1.0000000000291038, 1.000000000014552, 1.000000000007276,
    1.000000000003638, 1.000000000001819, 1.0000000000009095,
    1.0000000000004547,
)


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

    Each 0 < x <= 1.1 takes the power series scipy's gammaincc takes
    there, by scipy's rule, evaluated in numpy: _igamc_series where
    x >= exp(-0.4/a) for x <= 0.5 and 1.1 x >= a above (only at
    a <= 1.21), _igam_complement elsewhere. Every other x, 0, inf and
    nan included, goes to special.gammaincc. The points run in blocks
    of _MAP_BLOCK, which stay in cache: each block is classified once
    and each of its routes gathers and scatters its points through one
    index array. The route is a function of (a, x) alone, so a point's
    value does not depend on the call or the block that carries it.
    nan gives nan, as scipy does.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape)
    # -0.4/ln x >= a  <=>  x >= exp(-0.4/a) for 0 < x < 1; up to
    # a = 0.55 every x in (0.5, 1.1] has 1.1 x >= a
    x_lo = max(math.exp(-0.4 / a), math.ulp(0.0))
    wide = a > 0.5 * _SERIES_MAX_X
    # the largest x that takes igam_series
    x_top = min(a / _SERIES_MAX_X, _SERIES_MAX_X) if wide else x_lo
    # no route overflows, as 0 <= Q <= 1; only the test 1.1 x >= a
    # below does, for an x past max/1.1, which is not near
    with np.errstate(under="ignore", over="ignore"):
        for start in range(0, flat.size, _MAP_BLOCK):
            xb = flat[start:start + _MAP_BLOCK]
            ob = out[start:start + _MAP_BLOCK]
            near = (xb > 0.0) & (xb <= _SERIES_MAX_X)
            _route(ob, xb, ~near, lambda v: special.gammaincc(a, v))
            if a <= _IGAMC_MAX_A:
                igamc = xb >= x_lo
                igamc &= near
                if wide:
                    # above x = 0.5, 1.1 x >= a implies x >= x_lo
                    igamc &= (xb <= 0.5) | (xb * _SERIES_MAX_X >= a)
                _route(ob, xb, igamc, lambda v: _igamc_series(a, v))
                # igamc lies inside near; the rest of near takes igam_series
                near ^= igamc
            _route(ob, xb, near, lambda v: _igam_complement(a, v, x_top))
    return out.reshape(x.shape)


def _route(out, x, mask, kernel):
    """out[i] = kernel(x[i]) where mask, through one index array."""
    idx = np.flatnonzero(mask)
    if idx.size:
        out.put(idx, kernel(x.take(idx)))


def _igamc_series(a, x):
    """Q(a, x) = -expm1(a ln x - ln Gamma(1+a)) - x^a/Gamma(a)
    sum_{n>=1} (-x)^n/(n! (a+n)) (DLMF 8.7.3), scipy's igamc_series,
    for a <= 1.21 and 0 < x <= 1.1, overwriting x; one call takes one
    block of _reg_upper_gamma_vec's points. Every x sums the
    terms that cephes' stopping rule takes at x = 1.1, in cephes' order,
    which keeps the result within a few ulp of scipy's where the two
    terms of Q cancel, and makes it a function of a and x alone.
    """
    fac, term, top_sum, n_max = 1.0, 1.0, 0.0, 0
    while abs(term) > _MACHEP * abs(top_sum):
        n_max += 1
        fac *= -_SERIES_MAX_X / n_max
        term = fac / (a + n_max)
        top_sum += term
    neg_x = np.negative(x)
    term = np.ones_like(x)
    total = np.zeros_like(x)
    step = np.empty_like(x)
    for n in range(1, n_max + 1):
        np.divide(neg_x, n, out=step)
        term *= step
        np.divide(term, a + n, out=step)
        total += step
    np.log(x, out=x)
    x *= a
    lead = np.subtract(x, _lgam1p(a), out=neg_x)
    np.expm1(lead, out=lead)
    x -= special.gammaln(a)
    np.exp(x, out=x)
    x *= total
    x += lead
    return np.negative(x, out=x)


def _igam_complement(a, x, x_top):
    """Q(a, x) = 1 - P(a, x), P = x^a e^-x/Gamma(a) sum_{n>=0}
    x^n/(a (a+1)...(a+n)) (DLMF 8.7.1), scipy's 1 - igam_series, for
    0 < x <= x_top <= 1.1 where P is below about 0.7, overwriting x.
    The sum is taken by Horner, its coefficients built once per call (one
    block), up to the term that falls below 2^-53 at x_top.
    """
    coef, term = [1.0 / a], 1.0
    while term > _MACHEP:
        r = a + len(coef)
        coef.append(coef[-1] / r)
        term *= x_top / r
    total = np.full_like(x, coef[-1])
    for c in reversed(coef[:-1]):
        total *= x
        total += c
    # formed as cephes forms it: ln Gamma(a + 1) = ln Gamma(a) + ln a
    # would cost digits at small a, and _lgam1p its own truncation
    log_p = np.log(x)
    log_p *= a
    log_p -= x
    log_p -= special.gammaln(a)
    np.exp(log_p, out=x)
    x *= total
    return np.subtract(1.0, x, out=x)
