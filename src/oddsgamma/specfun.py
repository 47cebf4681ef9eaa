"""Gamma-function primitives: log-gamma over scalars and arrays, digamma,
log a - psi(a) for the gamma shape equation, the trigamma term of the
fitted models' Hessians, the regularized incomplete gamma pair and its
inverses.

These are the innermost kernels of the package. ln Gamma, digamma, the
shape terms and the incomplete gamma pair outside scipy's uniform
asymptotic window are the package's own; only the inverses, that window
and x > 1.1 above a = 170 are scipy.special's. This is the only module
that calls scipy.special: GammaRatioDist's cdf and sf, the m1 gamma
model's cdf and sf, and reg_upper_gamma/reg_lower_gamma take Q and P
from _reg_upper_gamma_vec and _reg_lower_gamma_vec here, both one
kernel, _reg_gamma.

ln Gamma(a) (log_gamma, _log_gamma, and _log_gamma_vec over an array,
with the same bits) is the zeta series of ln Gamma(2 + t) (DLMF 5.7.3)
below a = 10, through Gamma(a) = Gamma(1 + a)/a below 3/2 and the
recurrence above, and Stirling's series (DLMF 5.11.1) from 10 on:
within 4e-16 max(1, |ln Gamma(a)|) of 40-digit mpmath on [5e-324, 1e6],
where scipy's gammaln overflows below about 1e-308. digamma(a) takes
the same steps with the series' derivative and the asymptotic series
DLMF 5.11.2, within 2.5e-16 max(1, |psi(a)|) there, as scipy's psi is.
The shape equation's log a - psi(a) and the Hessians' a^2 psi'(a) share
one shift of a to 10 or more (_shape_terms), within 2.1e-15 and 4e-16
relative; a scalar runs in Python floats with the array path's
operations and logs. tests/make_gamma_table.py tables each against
mpmath, with its ceiling.

Q(a, x) and P(a, x) follow scipy's branch rule (DiDonato & Morris, ACM
TOMS 12, 1986), route by route (see _reg_gamma):
- 0 < x <= 1.1: scipy's two power series, igamc_series (DLMF 8.7.3, Q
  directly) and igam_series (DLMF 8.7.1, P directly), in numpy. scipy
  recomputes the shape-only constants for every element there, at 4 to
  6.5 us a point on igamc_series (on 1e5 points, a 2-core x86 VM); here
  they are computed once per shape.
- x > 1.1 with x >= a: x^a e^-x/Gamma(a) times F(x) = e^x x^-a Gamma(a, x),
  the value of Legendre's continued fraction (DLMF 8.9.2). Up to
  x = 1.1 * 1.2^11.5, about 8.95, F is a Taylor row of 20 orders about
  the nearest of 12 anchors 1.1 * 1.2^i, built per shape at its first
  use; above, the fraction itself, by backward recurrence over a term
  count fixed by (a, x). P takes the igam series instead up to x = 8,
  where that needs fewer terms.
- 1.1 < x < a: the igam series, summed forward.
- x^a e^-x/Gamma(a), the prefactor of the last two, is a product of
  powers and exponentials that rounds no exponent of size a ln x or x,
  so Q and P stay within 4e-15 of 40-digit mpmath where scipy, which
  rounds that exponent, is off by up to 1.4e-14.
- scipy's uniform asymptotic window (20 < a < 200 with |x - a| < 0.3 a;
  Temme's expansion) and every x > 1.1 above a = 170, where Gamma(a)
  overflows, stay with special.gammaincc and special.gammainc.
- x = 0, inf and nan are exact.
A large call runs in blocks of _MAP_BLOCK (32,768) points, whose
temporaries stay in a core's L2 cache, as do those of
GammaRatioDist.log_pdf and of the sampler's logs and odds-to-x map
(family._log_gamma_variates). A point's route and term count depend on
a and x alone, never on the size of its call or on its block, so a
scalar Q or P equals the array kernel's bit for bit.

The inverses are scipy's gammainccinv/gammaincinv, which implement
DiDonato & Morris (ACM TOMS 12, 1986) and keep relative accuracy in
both tails. Their only callers are GammaRatioDist.quantile and
quantile_sf: a scalar level takes the scalar forms, which validate
their arguments, a finite shape a > 0 among them, and return floats,
and an array of levels the unvalidated elementwise forms, the family
having validated the levels itself. A root below double range comes
back as 0 or a subnormal number, and the family takes the odds of such
a level in log space instead (see GammaRatioDist._x_of_levels).

scipy.special is loaded on first use, through one handle: `special`
below. Its import costs about half a second, and `import oddsgamma`,
the sample, compare, moments, fit and gof commands and the curves
command of m1, m2 and m6 need it only for an m1 shape above 20 with a
point in scipy's window. The handle
imports the module at its first attribute lookup and keeps each name it
has looked up, so a later lookup is an instance attribute. fit's
`optimize` is the same kind of handle on scipy.optimize, which no
command loads.
"""

import bisect
import functools
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
    """ln Gamma(a) for a > 0, in house: see _log_gamma."""
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a > 0, got {a}")
    return _log_gamma(float(a))


def digamma(a):
    """psi(a) = d/da ln Gamma(a) for a > 0, in house: see _digamma."""
    if not a > 0.0:
        raise ValueError(f"digamma requires a > 0, got {a}")
    return _digamma(float(a))


def _sq_trigamma(a):
    """a^2 psi'(a) for a > 0, elementwise, a numpy scalar for a scalar:
    the trigamma term of a log-coordinate Hessian, as 1 + a^2 psi'(a + 1)
    (DLMF 5.15.5), which stays finite as a -> 0 where psi'(a) ~ 1/a^2
    overflows (see _shape_terms)."""
    if np.ndim(a) == 0:
        return np.float64(1.0 + _shape_floats(float(a))[1])
    return 1.0 + _shape_terms(a)[1]


def _check_shape(name, a):
    if not 0.0 < a < math.inf:
        raise ValueError(f"{name} requires a > 0 and finite, got {a}")


def reg_upper_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a).

    Q(a, 0) = 1 and Q decreases to 0 as x grows; Q + P = 1 with
    reg_lower_gamma.
    """
    _check_shape("reg_upper_gamma", a)
    if not x >= 0.0:
        raise ValueError(f"reg_upper_gamma requires x >= 0, got {x}")
    return float(_reg_upper_gamma_vec(a, x))


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) = 1 - Q(a, x)."""
    _check_shape("reg_lower_gamma", a)
    if not x >= 0.0:
        raise ValueError(f"reg_lower_gamma requires x >= 0, got {x}")
    return float(_reg_lower_gamma_vec(a, x))


def inv_reg_upper_gamma(a, p):
    """Solve Q(a, x) = p for x, with 0 < p <= 1; returns 0.0 when p == 1.

    Q(a, x) = Gamma(a, x)/Gamma(a) is the regularized upper incomplete
    gamma function.
    """
    _check_shape("inv_reg_upper_gamma", a)
    if not (0.0 < p <= 1.0):
        raise ValueError(f"inv_reg_upper_gamma requires 0 < p <= 1, got {p}")
    return float(special.gammainccinv(a, p))


def inv_reg_lower_gamma(a, s):
    """Solve P(a, x) = s for x, with 0 <= s < 1; returns 0.0 when s == 0.

    P = 1 - Q is the regularized lower incomplete gamma function. Small
    s keeps relative accuracy, so upper-tail quantiles do too.
    """
    _check_shape("inv_reg_lower_gamma", a)
    if not (0.0 <= s < 1.0):
        raise ValueError(f"inv_reg_lower_gamma requires 0 <= s < 1, got {s}")
    return float(special.gammaincinv(a, s))


def _reg_upper_gamma_vec(a, x):
    """reg_upper_gamma elementwise, unvalidated."""
    return _reg_gamma(a, x, True)


def _reg_lower_gamma_vec(a, x):
    """reg_lower_gamma elementwise, unvalidated."""
    return _reg_gamma(a, x, False)


def _inv_reg_upper_gamma_vec(a, p):
    """inv_reg_upper_gamma elementwise, unvalidated."""
    return special.gammainccinv(a, p)


def _inv_reg_lower_gamma_vec(a, s):
    """inv_reg_lower_gamma elementwise, unvalidated."""
    return special.gammaincinv(a, s)


# scipy's gammaincc takes one of its two power series at 0 < x <= 1.1
# and a continued fraction or the igam series above
_SERIES_MAX_X = 1.1
# points per block of a large pointwise map: a block's float64
# temporaries stay in a core's L2 cache
_MAP_BLOCK = 32_768
# igamc_series needs 1.1 x >= a above x = 0.5, so no x takes it past this
_IGAMC_MAX_A = _SERIES_MAX_X * _SERIES_MAX_X
# scipy's uniform asymptotic window (Temme's expansion) starts above here
_WINDOW_MIN_A = 20.0
# P takes the igam series up to here even where x >= a: its terms, up to
# about 45, cost less than the continued fraction's and no complement
_P_SERIES_MAX_X = 8.0
# the x > 1.1 routes serve shapes up to here, where Gamma(a), a float up
# to a = 171.6, gives _prefactor its form
_FAR_MAX_A = 170.0
# j and 2j + 1 for j = 255..1: no continued fraction takes more terms
_CF_J = np.arange(255.0, 0.0, -1.0)
_CF_2J1 = 2.0 * _CF_J + 1.0
# the continued fraction and the Taylor rows run in Python floats up to
# this many points, where that costs less than their numpy loops' fixed
# cost of 3 calls a term
_CF_LOOP_MAX = 64
# Q's Taylor rows (_taylor): row i is centred on 1.1 * 1.2^i and serves x
# from _ROW_EDGES[i] up to, not including, _ROW_EDGES[i + 1]; past the
# top edge, about 8.95, the continued fraction takes x
_ROW_ANCHORS = tuple(_SERIES_MAX_X * 1.2 ** i for i in range(12))
_ROW_EDGES = tuple(_SERIES_MAX_X * 1.2 ** (i - 0.5) for i in range(13))
_ROW_TOP = _ROW_EDGES[-1]
_ROW_ANCHOR_ARRAY = np.array(_ROW_ANCHORS)
# _row_index's buckets: a float's exponent and first 7 bits of mantissa,
# 1/128 of an octave from x = 1 to 16, so that no bucket holds two edges;
# each keeps the row of its lowest x and the edge inside it, or inf
_ROW_KEY_SHIFT = 45
_ROW_KEY_BASE = int(np.float64(1.0).view(np.int64)) >> _ROW_KEY_SHIFT
# the lowest x of each bucket, and of the one past the last
_ROW_BUCKETS = ((np.arange(4 * 128 + 1) + _ROW_KEY_BASE) << _ROW_KEY_SHIFT).view(np.float64)
_ROW_OF_KEY = np.searchsorted(_ROW_EDGES, _ROW_BUCKETS[:-1], side="right") - 1
_ROW_EDGE_OF_KEY = np.array(_ROW_EDGES + (math.inf,))[_ROW_OF_KEY + 1]
_ROW_EDGE_OF_KEY[_ROW_EDGE_OF_KEY >= _ROW_BUCKETS[1:]] = math.inf
# orders 0..19 of each row: at |x - x_i| <= 0.0955 x_i, a row's ends, the
# orders left out move F by at most an ulp for every shape a row serves
_ROW_TERMS = 20
# the igam series sums its terms as a (terms, points) array up to this
# many points; at a = 0.131 that takes about half the loop's time
# at 72 points, about as long near 256, and 2 to 6 times as long from 1,024
_ACCUMULATE_MAX = 256
_EULER = 0.5772156649015329
_HALF_LOG_2PI = 0.9189385332046728
_MACHEP = 2.0 ** -53
# zeta(n) for n = 2..31, each correctly rounded (special.zeta's values,
# and 40-digit mpmath's)
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
)
# (zeta(n) - 1)/n for n = 2..31, the coefficients of (-t)^n in
# ln Gamma(2 + t); at |t| <= 1/2 the n-th term falls like 4^-n
_LGAM2P = tuple((z - 1.0) / n for n, z in enumerate(_ZETA, start=2))
# their even- and odd-order pairs, highest first: _lgam2p sums the two
# halves by Horner in t^2, which takes half as many numpy calls over an
# array as one sum in t
_LGAM2P_PAIRS = tuple(zip(_LGAM2P[-2::-2], _LGAM2P[::-2]))
_LGAM2P_COLUMNS = np.array(_LGAM2P_PAIRS)[:, :, None]
# B_2k / (2k (2k - 1)), k = 1..8: Stirling's series for ln Gamma(a)
# (DLMF 5.11.1); at a = 10 the next term is below 2e-18
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _lgam2p(t):
    """ln Gamma(2 + t) = (1 - gamma) t + sum_{n>=2} (zeta(n) - 1) (-t)^n / n
    for |t| <= 1/2 (DLMF 5.7.3 with ln(1 + t) moved to the left), whose
    terms fall like (t/2)^n, so 30 of them are complete to rounding,
    where those of the zeta series of ln Gamma(1 + t) fall like t^n."""
    u = -t
    v = u * u
    even = odd = 0.0
    for c_even, c_odd in _LGAM2P_PAIRS:
        even = even * v + c_even
        odd = odd * v + c_odd
    return (1.0 - _EULER) * t + (even + u * odd) * t * t


def _lgam1p(a):
    """ln Gamma(1 + a) for 0 < a < 3/2, accurate to the last digits as a
    goes to 0, where ln Gamma(1 + a) taken at the float 1 + a loses the
    digits of a that 1 + a rounds away. scipy's igamc_series takes it
    from the zeta-series of ln Gamma(1 + t) cut at 40 terms, which costs
    up to 9e-14 relative just inside |t| = 1/2, and up to 3e-14 in Q."""
    if a <= 0.5:
        return _lgam2p(a) - math.log1p(a)
    return _lgam2p(a - 1.0)


def _gamma_shift(a):
    """(t, m) with Gamma(a) = Gamma(2 + t) m and |t| <= 1/2, for 1.5 <= a:
    m is the product of a - 1, ..., 2 + t, each difference exact."""
    m = 1.0
    while a >= 2.5:
        a -= 1.0
        m *= a
    return a - 2.0, m


def _stirling_tail(a):
    """ln Gamma(a) - (a - 1/2) ln a + a - ln(2 pi)/2 for a >= 10."""
    r = 1.0 / (a * a)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * r + c
    return s / a


def _log_gamma(a):
    """ln Gamma(a) for a > 0, a float, unvalidated: _lgam2p below a = 10,
    through Gamma(a) = Gamma(1 + a)/a and Gamma(1 + a) = Gamma(2 + a)/(1 + a)
    below 3/2 and the recurrence above, and Stirling's series from 10 on.
    Within 4e-16 max(1, |ln Gamma(a)|) of 40-digit mpmath on
    [5e-324, 1e6], subnormal shapes included. Its logs are numpy's, so
    _log_gamma_vec, which takes the same steps, has its bits."""
    if a < 0.5:
        return _lgam2p(a) - float(np.log1p(a)) - float(np.log(a))
    if a < 1.5:
        return _lgam2p(a - 1.0) - float(np.log(a))
    if a < 10.0:
        t, m = _gamma_shift(a)
        return _lgam2p(t) + float(np.log(m))
    if a == math.inf:
        return a
    return (a - 0.5) * float(np.log(a)) - a + _HALF_LOG_2PI + _stirling_tail(a)


def _log_gamma_vec(a):
    """_log_gamma elementwise over an array of a > 0, a numpy scalar for
    a scalar. Each point takes _log_gamma's steps in their order, so it
    has their bits: the points below 10 share _lgam2p's two Horner sums,
    the rest Stirling's series."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return np.float64(_log_gamma(float(a)))
    flat = a.ravel()
    out = np.empty(flat.shape)
    low = flat < 10.0
    _route(out, flat, low, _log_gamma_low)
    _route(out, flat, ~low, _log_gamma_high)  # nan and inf too
    return out.reshape(a.shape)


def _log_gamma_low(a):
    """_log_gamma at 0 < a < 10 over an array."""
    near = a < 1.5
    tiny = a < 0.5
    # _gamma_shift: the factors a - 1, ..., a - j >= 1.5 of m, exact, and
    # t = a - j - 2; the profile scan's shapes need none
    t = a - np.where(near, np.where(tiny, 0.0, 1.0), 2.0)
    m = 1.0
    if np.maximum.reduce(a) >= 2.5:
        factors = a - _GAMMA_SHIFT_ROWS
        shifted = factors >= 1.5
        m = np.multiply.accumulate(np.where(shifted, factors, 1.0), axis=0)[-1]
        t -= np.add.reduce(shifted, axis=0, dtype=float)
    u = -t
    v = u * u
    halves = np.zeros((2, a.size))
    for c in _LGAM2P_COLUMNS:
        halves *= v
        halves += c
    h = halves[0] + u * halves[1]
    h *= t
    h *= t
    lg = (1.0 - _EULER) * t
    lg += h
    np.subtract(lg, np.log1p(a), out=lg, where=tiny)
    # - ln a below 3/2, + ln m above, as lg - (-ln m)
    log_term = np.log(np.where(near, a, m))
    np.negative(log_term, out=log_term, where=~near)
    lg -= log_term
    return lg


def _log_gamma_high(a):
    """_log_gamma from a = 10 on, and at inf and nan, over an array."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = 1.0 / (a * a)
        tail = np.zeros_like(a)
        for c in reversed(_STIRLING):
            tail *= r
            tail += c
        tail /= a
        lg = (a - 0.5) * np.log(a) - a + _HALF_LOG_2PI + tail
    return np.where(a == math.inf, a, lg)


def _inv_gamma(a):
    """1/Gamma(a) for 0 < a <= 171, by the forms of _log_gamma with one
    exp of |ln Gamma(2 + t)| <= 0.3: a few ulp up to a = 20, and one
    rounding more for each further factor of the recurrence; finite at
    subnormal a."""
    if a < 0.5:
        return a * (1.0 + a) * math.exp(-_lgam2p(a))
    if a < 1.5:
        return a * math.exp(-_lgam2p(a - 1.0))
    t, m = _gamma_shift(a)
    return math.exp(-_lgam2p(t)) / m


# zeta(n) - 1 for n = 2..31, the coefficients of -(-t)^(n-1) in psi(2 + t)
_PSI2P = tuple(z - 1.0 for z in _ZETA)
# B_2k, k = 1..9: b psi'(b) = 1 + 1/(2b) + sum_k B_2k b^-2k (DLMF 5.15.8)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
                    43867 / 798)
# B_2k / 2k: log b - psi(b) = 1/(2b) + sum_k B_2k / (2k b^2k) (DLMF 5.11.2);
# from b = 10 on the next term of either series is below 1e-17 of its sum
_LOG_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
                       -3617 / 8160, 43867 / 14364)
# the rows j = 1..8 of _log_gamma_low's factors a - j: a < 10 takes at
# most 8 steps of the recurrence down to t = a - j - 2 < 1/2
_GAMMA_SHIFT_ROWS = np.arange(1.0, 9.0)[:, None]
# the shape terms shift a to a + n >= 10, n <= 10, before the series
_SHIFT_TO = 10.0
_SHIFTS = tuple(float(k) for k in range(9, -1, -1))
# rows k = 9..0 of _shape_terms' table a + k, in the order they are summed
_SHIFT_ROWS = np.array(_SHIFTS)[:, None]
# below this n/a overflows; there 1/a, in the sum, outweighs log1p(n/a)
_NO_OVERFLOW_A = 16.0 / float(np.finfo(float).max)
# the coefficient pairs of both series below the highest order, highest
# first, for _shape_floats, and all of them as columns for _shape_terms
_SHAPE_PAIRS = tuple(zip(_LOG_DIGAMMA_SERIES[-2::-1], _TRIGAMMA_SERIES[-2::-1]))
_SHAPE_SERIES = np.array([_LOG_DIGAMMA_SERIES[::-1], _TRIGAMMA_SERIES[::-1]]).T[:, :, None]


def _psi2p(t):
    """psi(2 + t) = 1 - gamma + t sum_{n>=2} (zeta(n) - 1) (-t)^(n-2) for
    |t| <= 1/2, the derivative of _lgam2p's series."""
    u = -t
    h = 0.0
    for c in reversed(_PSI2P):
        h = h * u + c
    return (1.0 - _EULER) + h * t


def _digamma(a):
    """psi(a) for a > 0, a float, unvalidated, by _log_gamma's steps:
    _psi2p below a = 10, through psi(a) = psi(a + 1) - 1/a below 3/2 and
    the recurrence psi(a) = psi(a - 1) + 1/(a - 1) above, whose terms are
    all positive there, and the asymptotic series (DLMF 5.11.2) from 10
    on. -inf at subnormal a, where -1/a overflows."""
    if a < 0.5:
        return _psi2p(a) - 1.0 / (1.0 + a) - 1.0 / a
    if a < 1.5:
        return _psi2p(a - 1.0) - 1.0 / a
    if a < 10.0:
        s = 0.0
        while a >= 2.5:
            a -= 1.0
            s += 1.0 / a
        return _psi2p(a - 2.0) + s
    if a == math.inf:
        return a
    r = 1.0 / (a * a)
    h = 0.0
    for c in reversed(_LOG_DIGAMMA_SERIES):
        h = h * r + c
    return math.log(a) - (0.5 / a + r * h)


def _shape_terms(a):
    """(log a - psi(a), a^2 psi'(a + 1)) for a > 0, elementwise, numpy
    scalars for a scalar: the two shape terms of a Minka step, from one
    shift. Below 10, a moves to b = a + n >= 10 by the recurrences
    psi(a) = psi(b) - sum_{k<n} 1/(a + k) and
    psi'(a + 1) = psi'(b) + sum_{0<k<n} 1/(a + k)^2, and
    log a - psi(a) = (log b - psi(b)) + sum_{k<n} 1/(a + k) - log1p(n/a),
    whose terms cancel about ten times less than log a and psi(a) do
    near a = 8; psi'(b) and log b - psi(b) are the asymptotic series
    (DLMF 5.15.8, 5.11.2). From 10 on, n = 0 and
    a^2 psi'(a + 1) = a^2 psi'(a) - 1 = a - 1/2 + a^2 sum_k B_2k a^-2k-1.
    The reciprocals are a (10, points) table, summed from k = 9 down with
    zeros where a + k >= 10; a scalar runs in Python floats through
    _shape_floats, whose operations and log1p are the table's, so it
    equals its entry in an array bit for bit."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return tuple(np.float64(v) for v in _shape_floats(float(a)))
    flat = a.ravel()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        table = flat + _SHIFT_ROWS
        shift = table < _SHIFT_TO
        n = np.add.reduce(shift, axis=0, dtype=float)
        # 1/(a + k) where a + k < 10, else 0
        np.divide(shift, table, out=table)
        recip = np.add.accumulate(table, axis=0)[-1]
        table *= table
        recip_sq = np.add.accumulate(table[:-1], axis=0)[-1]
        ib = 1.0 / (flat + n)
        r = ib * ib
        # both series by one Horner sum, a row each
        h = np.empty((2, flat.size))
        h[:] = _SHAPE_SERIES[0]
        for c in _SHAPE_SERIES[1:]:
            h *= r
            h += c
        log_minus = recip - np.log1p(n / np.maximum(flat, _NO_OVERFLOW_A))
        log_minus += 0.5 * ib + r * h[0]
        q = ib * h[1]
        trig = np.where(flat < _SHIFT_TO,
                        flat * (flat * (recip_sq + ib * (1.0 + ib * (0.5 + q)))),
                        (flat - 0.5) + q)
    return log_minus.reshape(a.shape), trig.reshape(a.shape)


def _shape_floats(a):
    """_shape_terms at a float a, in Python floats."""
    recip = recip_sq = n = log1p = 0.0
    if a < _SHIFT_TO:
        # the table's rows: k = n - 1, ..., 0 with a + k < 10
        first = 0
        while not a + _SHIFTS[first] < _SHIFT_TO:
            first += 1
        n = 10.0 - first
        for k in _SHIFTS[first:-1]:
            v = 1.0 / (a + k)
            recip += v
            recip_sq += v * v
        recip += 1.0 / a
        log1p = float(np.log1p(n / max(a, _NO_OVERFLOW_A)))
    ib = 1.0 / (a + n)
    r = ib * ib
    h0, h1 = _LOG_DIGAMMA_SERIES[-1], _TRIGAMMA_SERIES[-1]
    for c0, c1 in _SHAPE_PAIRS:
        h0 = h0 * r + c0
        h1 = h1 * r + c1
    log_minus = (recip - log1p) + (0.5 * ib + r * h0)
    q = ib * h1
    if a < _SHIFT_TO:
        return log_minus, a * (a * (recip_sq + ib * (1.0 + ib * (0.5 + q))))
    return log_minus, (a - 0.5) + q


def _igam_terms(a, x_top):
    """The igam series' term count: 1 + the n at which x^n/((a+1)...(a+n))
    falls below 2^-53 at x = x_top."""
    n, term = 1, 1.0
    while term > _MACHEP:
        term *= x_top / (a + n)
        n += 1
    return n


class _Shape:
    """The constants that Q(a, .) and P(a, .) take for one shape a, each
    computed at its first use, the Taylor rows of _taylor one row at a
    time; _shape keeps those of the last few shapes, as a fit's
    goodness-of-fit and the curves command call the pair several times
    at one shape."""

    def __init__(self, a):
        self.a = a
        self.log_gamma = _log_gamma(a)
        # -0.4/ln x >= a  <=>  x >= exp(-0.4/a) for 0 < x < 1; up to
        # a = 0.55 every x in (0.5, 1.1] has 1.1 x >= a
        self.x_lo = max(math.exp(-0.4 / a), math.ulp(0.0))
        self.wide = a > 0.5 * _SERIES_MAX_X
        # an x > 1.1 with |x - a|/a below this goes to scipy: its window
        # 20 < a < 200, |x - a| < 0.3 a, and every x above a = 170
        if a > _FAR_MAX_A:
            self.window = math.inf
        else:
            self.window = 0.3 if a > _WINDOW_MIN_A else 0.0
        self._cf = ([], [])
        self._rows = [None] * len(_ROW_ANCHORS)

    @functools.cached_property
    def igamc_coefs(self):
        """_igamc_series' coefficients (-1)^n/(n! (a + n)), highest first,
        for n = 1 up to the term at which cephes' stopping rule ends the
        sum at x = 1.1, summed for every x."""
        a = self.a
        fac, term, top_sum, n, inv_fac, coef = 1.0, 1.0, 0.0, 0, 1.0, []
        while abs(term) > _MACHEP * abs(top_sum):
            n += 1
            fac *= -_SERIES_MAX_X / n
            term = fac / (a + n)
            top_sum += term
            inv_fac /= -n
            coef.append(inv_fac / (a + n))
        return coef[::-1]

    @functools.cached_property
    def lgam1p(self):
        return _lgam1p(self.a)

    @functools.cached_property
    def upper_coefs(self):
        """_igam_near's coefficients, to the largest x <= 1.1 that takes
        the igam series for Q."""
        a = self.a
        x_top = min(a / _SERIES_MAX_X, _SERIES_MAX_X) if self.wide else self.x_lo
        coef = [1.0 / a]
        for n in range(1, _igam_terms(a, x_top)):
            coef.append(coef[-1] / (a + n))
        return coef

    @functools.cached_property
    def near_terms(self):
        """_igam_p's term count for P at x <= 1.1."""
        return _igam_terms(self.a, _SERIES_MAX_X)

    @functools.cached_property
    def far_top(self):
        """The largest x > 1.1 below a outside the window."""
        return 0.7 * self.a if self.window else self.a

    @functools.cached_property
    def q_far_terms(self):
        """_igam_p's term count for Q above x = 1.1: where the terms fall
        below 2^-53 at far_top."""
        return _igam_terms(self.a, self.far_top)

    @functools.cached_property
    def p_far_terms(self):
        """The same for P, which takes the series up to x = 8 as well."""
        return _igam_terms(self.a, max(_P_SERIES_MAX_X, self.far_top))

    @functools.cached_property
    def inv_gamma(self):
        return _inv_gamma(self.a)

    @functools.cached_property
    def inv_gamma1(self):
        """1/Gamma(1 + a), which stays near 1 at subnormal a, where 1/a
        overflows."""
        a = self.a
        return (1.0 + a) * math.exp(-_lgam2p(a)) if a < 0.5 else self.inv_gamma / a

    def cf_coefs(self, n):
        """([j (a - j)], [2j + 1 - a]) for j = n..1: the elements of
        Legendre's continued fraction, last first, as two lists, which
        cost less to build than one list of pairs; a count m takes the
        last m of each."""
        c, d = self._cf
        if len(c) < n:
            new = slice(_CF_J.size - n, _CF_J.size - len(c))
            j = _CF_J[new]
            c[:0] = (j * (self.a - j)).tolist()
            d[:0] = (_CF_2J1[new] - self.a).tolist()
        return c[-n:], d[-n:]

    def row(self, i):
        """Row i of _taylor, orders 19 down to 0, as a list, built at its
        first use (_taylor_row)."""
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = _taylor_row(self, _ROW_ANCHORS[i])
        return row

    def row_table(self, idx):
        """The rows that the array idx names as the columns of one table,
        highest order first; the other columns are 0."""
        table = np.zeros((_ROW_TERMS, len(_ROW_ANCHORS)))
        for i in np.bincount(idx).nonzero()[0].tolist():
            table[:, i] = self.row(i)
        return table


_shape = functools.lru_cache(maxsize=16)(_Shape)


def _reg_gamma(a, x, upper):
    """Q(a, x) = Gamma(a, x)/Gamma(a) where upper, else P(a, x) = 1 - Q,
    elementwise over an array x for one shape a > 0, unvalidated. Each
    route gives Q or P without cancellation, and the other as 1 minus it
    where that is at least about 0.3.

    The routes follow scipy's gammaincc and gammainc (DiDonato & Morris,
    ACM TOMS 12, 1986) and their branch rule:
    - 0 < x <= 1.1: P by the igam series (_igam_p); Q by _igamc_series
      where x >= exp(-0.4/a) for x <= 0.5 and 1.1 x >= a above (only at
      a <= 1.21), else 1 - P with P by scipy's form of the igam series
      (_igam_near);
    - x > 1.1 with x >= a, except for P up to x = 8: Q by Legendre's
      continued fraction (DLMF 8.9.2), its value taken from a Taylor row
      below _ROW_TOP, about 8.95 (_taylor), from the fraction above
      (_legendre);
    - 1.1 < x < a, and for P x <= 8: P by the igam series (_igam_p,
      DLMF 8.7.1);
    - scipy's uniform asymptotic window (20 < a <= 170 with
      |x - a| < 0.3 a, by scipy's own rule), and every x > 1.1 at
      a > 170, where Gamma(a) overflows: special.gammaincc or
      special.gammainc;
    - x = 0, inf and nan: exact, Q = 1, 0 and nan; x < 0 gives nan.
    Each route's term count is a function of (a, x) alone, and so is the
    route, never the size of the call or the block that carries a point:
    a scalar equals its entry in an array bit for bit. The points run
    in blocks of _MAP_BLOCK, which stay in cache: each block is
    classified once and each of its routes gathers and scatters its
    points through one index array; the Taylor rows' and the fraction's
    points of all blocks run together.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape)
    k = _shape(a)
    cf = []
    # no route overflows, as 0 <= Q, P <= 1; only the test 1.1 x >= a
    # below does, for an x past max/1.1, which is not near
    with np.errstate(under="ignore", over="ignore"):
        for start in range(0, flat.size, _MAP_BLOCK):
            block = slice(start, start + _MAP_BLOCK)
            cf.append(start + _gamma_block(k, flat[block], out[block], upper))
        # the continued fraction's points of every block run together, as
        # Taylor rows below the row top and the fraction above, each a few
        # numpy calls a term however few points there are
        cf = np.concatenate([np.empty(0, np.intp), *cf])
        if cf.size:
            below = flat.take(cf) < _ROW_TOP
            for kernel, idx in ((_taylor, cf[below]), (_legendre, cf[~below])):
                for start in range(0, idx.size, _MAP_BLOCK):
                    part = idx[start:start + _MAP_BLOCK]
                    out[part] = kernel(k, flat.take(part), upper)
    return out.reshape(x.shape)


def _gamma_block(k, x, out, upper):
    """One block of _reg_gamma: out takes every point of x but those of
    the continued fraction's route, whose indices it returns."""
    a = k.a
    near = (x > 0.0) & (x <= _SERIES_MAX_X)
    far = (x > _SERIES_MAX_X) & (x < math.inf)
    _route(out, x, ~(near | far), lambda v: _exact(v, upper))
    if not upper:
        _route(out, x, near, lambda v: _igam_p(k, v, k.near_terms))
    else:
        if a <= _IGAMC_MAX_A:
            igamc = x >= k.x_lo
            igamc &= near
            if k.wide:
                # above x = 0.5, 1.1 x >= a implies x >= x_lo
                igamc &= (x <= 0.5) | (x * _SERIES_MAX_X >= a)
            _route(out, x, igamc, lambda v: _igamc_series(k, v))
            # igamc lies inside near; the rest of near takes igam_series
            near ^= igamc
        _route(out, x, near, lambda v: _complement(_igam_near(k, v)))
    if k.window:
        scipy_far = np.abs(x - a) / a < k.window
        scipy_far &= far
        gamma = special.gammaincc if upper else special.gammainc
        _route(out, x, scipy_far, lambda v: gamma(a, v))
        far ^= scipy_far
    cf = x >= a
    if not upper:
        cf &= x > _P_SERIES_MAX_X
    cf &= far
    far ^= cf
    _route(out, x, far,
           lambda v: _igam_p(k, v, k.q_far_terms if upper else k.p_far_terms, upper))
    return cf.nonzero()[0]


def _route(out, x, mask, kernel):
    """out[i] = kernel(x[i]) where mask, through one index array."""
    idx = mask.nonzero()[0]
    if idx.size:
        out[idx] = kernel(x.take(idx))


def _complement(v):
    """1 - v, in place."""
    return np.subtract(1.0, v, out=v)


def _exact(x, upper):
    """Q or P at x = 0, inf and nan, and nan below 0."""
    q = np.where(x == 0.0, 1.0, np.where(x == math.inf, 0.0, math.nan))
    return q if upper else _complement(q)


def _igamc_series(k, x):
    """Q(a, x) = -expm1(a ln x - ln Gamma(1+a)) - x^a/Gamma(a)
    sum_{n>=1} (-x)^n/(n! (a+n)) (DLMF 8.7.3), scipy's igamc_series,
    for a <= 1.21 and 0 < x <= 1.1, overwriting x. The sum is taken by
    Horner over coefficients built once per shape, to the terms that
    cephes' stopping rule takes at x = 1.1, for every x, so the result is
    a function of a and x alone. ln Gamma(1+a) and 1/Gamma(a) are taken
    to a few ulp, where scipy loses up to 3e-14 of Q to them.
    """
    coef = k.igamc_coefs
    total = np.multiply(x, coef[0])
    for c in coef[1:]:
        total += c
        total *= x
    np.log(x, out=x)
    x *= k.a
    lead = np.subtract(x, k.lgam1p)
    np.expm1(lead, out=lead)
    # x^a/Gamma(a) with |a ln x| <= 0.4 at x <= 0.5 and <= 0.12 above
    np.exp(x, out=x)
    x *= k.inv_gamma
    x *= total
    x += lead
    return np.negative(x, out=x)


def _igam_near(k, x):
    """P(a, x) = x^a e^-x/Gamma(a) sum_{n>=0} x^n/(a (a+1)...(a+n))
    (DLMF 8.7.1), scipy's igam_series, for Q's igam route at 0 < x <= 1.1,
    where P is below about 0.7, overwriting x. The sum is taken by Horner
    over coefficients built once per shape, and the prefactor as cephes
    forms it, exp(a ln x - x - ln Gamma(a)): of the cdf's routes this one
    takes the most points at small shapes, where it costs less than
    _igam_p's forward sum and _prefactor's powers.
    """
    coef = k.upper_coefs
    total = np.multiply(x, coef[-1])
    for c in reversed(coef[1:-1]):
        total += c
        total *= x
    total += coef[0]
    log_p = np.log(x)
    log_p *= k.a
    log_p -= x
    log_p -= k.log_gamma
    np.exp(log_p, out=x)
    x *= total
    return x


def _prefactor(k, x, lower):
    """x^a e^-x g for x > 0, with g = 1/Gamma(a + 1) where lower, else
    1/Gamma(a). Up to a = 170 it is f (f g) with f = x^(a/2) e^(-x/2):
    unlike exp(a ln x - x - ln Gamma(a)) it rounds no exponent of size
    a ln x or x, and no factor overflows; it is within a few ulp at
    a <= 20, where g is. Past x = 1490, where e^(-x/2) is 0, x^(a/2) is
    taken at 2048 and stays finite. Above a = 170, where g underflows
    and only P at x <= 1.1 comes here, it is that exp."""
    if k.a > _FAR_MAX_A:
        d = np.log(x)
        d *= k.a
        d -= x
        d -= k.log_gamma + math.log(k.a)
        return np.exp(d, out=d)
    d = np.power(np.minimum(x, 2048.0), 0.5 * k.a)
    d *= np.exp(-0.5 * x)
    f = d * (k.inv_gamma1 if lower else k.inv_gamma)
    d *= f
    return d


def _cf_terms(k, x):
    """The continued fraction's term count at each x >= a, x > 1.1
    outside the window: the ceiling of 8 + 36.6/sqrt(x) + 88.8/x
    + 22.2 (a/x) min(1, a/20). It exceeds by six terms or more the count
    past which no depth up to 400 moves the value by half an ulp, on
    6,760 points with a from 1e-4 to 170 and x from the route's edge to
    1e3 times it; that count is jagged, up to 111 at x = 1.1 (median
    87), 39 at x = 3 to 5 and 8 above x = 30, and near x = a it rises
    with a, to about 25 at the window's edge. On 30,000 more such points
    one value lies an ulp from the depth-400 one, the rest within half
    an ulp. No count reaches 255, the most a byte holds."""
    s = 1.0 / np.sqrt(x)
    n = 88.8 * s
    n += 36.6
    n *= s
    n += 8.0 + 22.2 * k.a * min(1.0, k.a / _WINDOW_MIN_A) / x
    return np.ceil(n).astype(np.intp)


def _cf_count(k, x):
    """_cf_terms at one float x > 1.1, by its operations in Python floats:
    the depth of _legendre's small calls and of each Taylor row's F at
    its anchor (_taylor_row)."""
    s = 1.0 / math.sqrt(x)
    return math.ceil((88.8 * s + 36.6) * s + (8.0 + 22.2 * k.a * min(1.0, k.a / _WINDOW_MIN_A) / x))


def _legendre(k, x, upper):
    """Q(a, x) = x^a e^-x/Gamma(a) / (x + 1 - a - 1 (1 - a)/(x + 3 - a -
    2 (2 - a)/(x + 5 - a - ...))), Legendre's continued fraction (DLMF
    8.9.2, in its even contraction), for x >= a from the Taylor rows'
    top _ROW_TOP up, or P = 1 - Q where not upper. The fraction is
    summed from its tail, by backward recurrence, over a term count
    fixed by (a, x) (_cf_terms).
    The points run sorted by count, so that each step of the recurrence
    works on the slice of the points that have reached it; up to
    _CF_LOOP_MAX points it runs in Python floats, whose additions and
    divisions are numpy's on each point in the same order, so the bits
    are the array loop's."""
    d0 = 1.0 - k.a
    frac = np.empty_like(x)
    if x.size <= _CF_LOOP_MAX:
        xs = x.tolist()
        terms = [_cf_count(k, xi) for xi in xs]
        cs, ds = k.cf_coefs(max(terms))
        for i, (xi, n) in enumerate(zip(xs, terms)):
            t = 0.0
            for c, d in zip(cs[-n:], ds[-n:]):
                t = c / (xi + d + t)
            frac[i] = 1.0 / (xi + d0 + t)
    else:
        terms = _cf_terms(k, x)
        coefs = zip(*k.cf_coefs(int(terms.max())))
        # a stable sort of one byte a point is a radix sort
        order = np.argsort(terms.astype(np.uint8), kind="stable")
        xs = x[order]
        # the points from first[j] on have a count of max(terms) - j or more
        first = np.searchsorted(terms[order], np.arange(terms.max(), 0, -1))
        t = np.zeros_like(xs)
        den = np.empty_like(xs)
        for m, (c, d) in zip(first.tolist(), coefs):
            np.add(xs[m:], d, out=den[m:])
            den[m:] += t[m:]
            np.divide(c, den[m:], out=t[m:])
        np.add(xs, d0, out=den)
        den += t
        frac[order] = np.divide(1.0, den, out=den)
    q = _prefactor(k, x, False)
    q *= frac
    return q if upper else _complement(q)


def _row_index(x):
    """The row of _taylor that each x in (1.1, _ROW_TOP) takes, the one
    bisect finds in _ROW_EDGES: its bucket's row, plus one at or past the
    edge inside the bucket, read off x's bits."""
    key = x.view(np.int64) >> _ROW_KEY_SHIFT
    key -= _ROW_KEY_BASE
    i = _ROW_OF_KEY.take(key)
    i += x >= _ROW_EDGE_OF_KEY.take(key)
    return i


def _taylor(k, x, upper):
    """Q(a, x) = x^a e^-x/Gamma(a) F(x), or P = 1 - Q where not upper,
    for x >= a with 1.1 < x < _ROW_TOP: the continued fraction's route
    below the row top. F(x) = e^x x^-a Gamma(a, x), the fraction's value,
    is summed by Horner in h = x - x_i over its Taylor row at the anchor
    x_i whose interval holds x (_taylor_row), about 20 multiply-adds a
    point where the fraction takes 40 to 120 steps; h is exact, as
    x/x_i lies within 0.9 and 1.1. The array loop gathers each order's
    coefficients by the points' row index. Up to _CF_LOOP_MAX points it
    runs in Python floats, with bisect on the edges for the row and
    numpy's multiplies and adds in their order, so the bits are the array
    loop's."""
    # before the row sum, so that its temporaries and the sum's are never
    # live together: a lower peak for a large call
    q = _prefactor(k, x, False)
    if x.size <= _CF_LOOP_MAX:
        f = np.empty_like(x)
        for n, xn in enumerate(x.tolist()):
            i = bisect.bisect_right(_ROW_EDGES, xn) - 1
            row = k.row(i)
            h = xn - _ROW_ANCHORS[i]
            t = row[0]
            for c in row[1:]:
                t = t * h + c
            f[n] = t
    else:
        i = _row_index(x)
        table = k.row_table(i)
        h = x - _ROW_ANCHOR_ARRAY.take(i)
        f = table[0].take(i)
        for c in table[1:]:
            f *= h
            f += c.take(i)
    q *= f
    return q if upper else _complement(q)


def _taylor_row(k, x0):
    """F(x) = e^x x^-a Gamma(a, x)'s Taylor coefficients at x0, orders 19
    down to 0. f_0 = F(x0) is the continued fraction over its count
    (_cf_count), and as x F' = (x - a) F - 1 (DLMF 8.8.13), the orders
    follow one recurrence, f_(n+1) = ((x0 - a - n) f_n + f_(n-1)
    - [n = 0]) / (x0 (n + 1)). On 22 shapes from 1e-4 to 8.9, F from the
    rows is within 4.1e-16 of 40-digit mpmath, and the fraction's own
    within 4.3e-16."""
    a = k.a
    t = 0.0
    for c, d in zip(*k.cf_coefs(_cf_count(k, x0))):
        t = c / (x0 + d + t)
    prev = 1.0 / (x0 + 1.0 - a + t)
    f_n = ((x0 - a) * prev - 1.0) / x0
    f = [f_n, prev]
    for n in range(1, _ROW_TERMS - 1):
        prev, f_n = f_n, ((x0 - a - n) * f_n + prev) / (x0 * (n + 1))
        f.insert(0, f_n)
    return f


def _igam_p(k, x, terms, upper=False):
    """P(a, x) = x^a e^-x/Gamma(a + 1) sum_{n>=0} x^n/((a+1)...(a+n))
    (DLMF 8.7.1), or Q = 1 - P where upper: for P at x <= 8 and for
    1.1 < x < a outside the window. The sum runs forward, as scipy's
    igam_series runs it, over a term count fixed by a and the route;
    its terms, unlike Horner's coefficients, do not underflow at large
    a. Up to _ACCUMULATE_MAX points the terms and their sum are
    accumulated down a (terms, points) array, each sequential along it,
    so each point meets the loop's operations in the loop's order: the
    same bits, at less than the loop's cost on small calls, where the
    loop's fixed cost per numpy call dominates."""
    if x.size <= _ACCUMULATE_MAX:
        steps = np.empty((terms, x.size))
        steps[0] = 1.0
        np.divide(x, k.a + np.arange(1.0, terms)[:, None], out=steps[1:])
        np.multiply.accumulate(steps[1:], axis=0, out=steps[1:])
        total = np.add.accumulate(steps, axis=0)[-1]
    else:
        term = np.ones_like(x)
        total = np.ones_like(x)
        step = np.empty_like(x)
        for n in range(1, terms):
            np.divide(x, k.a + n, out=step)
            term *= step
            total += term
    total *= _prefactor(k, x, True)
    return _complement(total) if upper else total
