"""The (1-G)/G gamma family over an arbitrary base distribution.

A GammaRatioDist feeds the survival odds w(x) = (1 - G1(x))/G1(x) of a
base distribution through the upper tail of a Gamma(alpha, rate beta):
H(x) = Q(alpha, beta * w(x)). Closed forms cover cdf/sf/pdf/hazard/quantile
and exact sampling. Expectations (moments, mgf, cf, entropy) are
computed by a tanh-sinh rule on the gamma scale, with divergence
detection: T = beta * w(X) is Gamma(alpha, 1), and a closed-form map of
(0, 1) onto T with its density as node weights replaces the quantile
map, so no expectation inverts the incomplete gamma. The family's
double-series expansions in tau functionals are formal: their
evaluators sum no shell and return the verdict of the first shell whose
j = 0 column is not integrable, and quadrature gives the values. The
mgf and cf series, sums over orders m of
t^m/m! times the order-m moment expansion, are formal at every
parameter: their order-0 component needs tau(0, 0, -(alpha + 1)), the
integral of u^-(alpha+1) over (0, 1), which diverges for every base and
every alpha > 0.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .base import BaseDistribution
from .errors import DivergenceError, NumericalError
from .quadrature import tanh_sinh, tanh_sinh_levels
from .specfun import (
    _MAP_BLOCK,
    _inv_reg_lower_gamma_vec,
    _inv_reg_upper_gamma_vec,
    _reg_lower_gamma_vec,
    _reg_upper_gamma_vec,
    _stirling_tail,
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    log_gamma,
)

__all__ = ["GammaRatioDist", "SeriesControl", "SeriesResult"]

# perfbench/tracing.py patches this name; nothing in the library calls it
windowed_quad = None

_TINY = np.finfo(float).tiny
# exp(v) rounds to 0 for every v <= -750, below log(2^-1075) = -745.13
_EXP_ZERO = -750.0
# the cap of the j = 0 rule's tau calls, which start at m + 1 columns for
# x^m and double, and of the shells it scans
_TAU_BLOCK = 256
# shell-over-shell growth factor that fires a series' divergence flag
_DIVERGENCE_RATIO = 10.0


@dataclass(frozen=True)
class SeriesControl:
    """Truncation and honesty knobs for the summed series evaluators,
    OEGammaDist.moment_series and cdf_series; the family's tau series
    (GammaRatioDist.moment_series, renyi_series, mgf_series and
    cf_series) sum no shell and read no field.

    k_max and j_max are term counts, integers >= 1: shells
    k = 0..k_max-1 with inner terms j = 0..j_max-1 are eligible.
    tail_tol, in (0, 1), is the relative size at which trailing terms
    count as negligible; at 1 or more a shell as large as the sum
    would pass as a converged tail.
    """

    k_max: int = 60
    j_max: int = 200
    tail_tol: float = 1e-10

    def __post_init__(self):
        for name in ("k_max", "j_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be at least 1 and an integer, got {value!r}")
        if not (isinstance(self.tail_tol, numbers.Real) and 0.0 < self.tail_tol < 1.0):
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol!r}")


DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a series evaluation.

    For the summed series, OEGammaDist.moment_series and cdf_series,
    value is the partial sum reached (nan when a term could not be
    evaluated at all), and terms_used is (k, j): k the number of shells
    summed into value, and j the most inner terms any one shell reached,
    the term that aborted a shell included. A family tau series sums no
    shell: its value is nan, and it reports (k, 1) for the shell k whose
    j = 0 column ended it (see GammaRatioDist._tau_series).
    converged is True only when the last retained shell fell below
    tail_tol relative to the partial sum and no divergence flag fired.
    diagnostic explains any failure, and is empty exactly when converged
    is True.
    """

    value: float
    terms_used: tuple
    converged: bool
    diagnostic: str = ""


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _restore(arr, scalar):
    return float(arr) if scalar else arr


def _probabilities(q, who, name):
    """(q, is scalar): q as a float or a float array with entries in (0, 1)."""
    scalar = np.ndim(q) == 0
    if scalar:
        q = float(q)
        bad = [] if 0.0 < q < 1.0 else [q]
    else:
        q = np.asarray(q, dtype=float)
        bad = q[~((q > 0.0) & (q < 1.0))]
    if len(bad):
        raise ValueError(f"{who} requires 0 < {name} < 1, got {bad[0]}")
    return q, scalar


def _hazard(log_pdf, sf):
    """The hazard exp(log_pdf - ln sf) where sf >= the least normal
    number, nan elsewhere: a subnormal sf has lost digits and sf = 0 has
    none. Below the support log_pdf = -inf and sf = 1 give 0, so no
    support test is needed. GammaRatioDist.hazard and the CLI's curves
    both take it."""
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        return np.where(sf >= _TINY, np.exp(log_pdf - np.log(sf)), np.nan)


def _log_sf_of_log_odds(log_w):
    """ln(w/(1 + w)) = -softplus(-ln w) = min(ln w, 0) - log1p(e^-|ln w|)
    from an array ln w: -np.logaddexp(0, -ln w), which forms it one
    element at a time, in vectorised pieces and one new array."""
    log_sf = np.abs(log_w)
    np.negative(log_sf, out=log_sf)
    np.exp(log_sf, out=log_sf)
    np.log1p(log_sf, out=log_sf)
    return np.subtract(np.minimum(log_w, 0.0), log_sf, out=log_sf)


def _log_gamma_variates(rng, alpha, n, log_rate, f):
    """f(ln T) for n draws T = G/rate, G ~ Gamma(alpha, 1), from a numpy
    Generator, one _MAP_BLOCK block at a time: a block's ln T is formed
    in place and overwritten with f of it, so that f runs in cache; the
    draws' buffer is returned.

    The draws are numpy's standard_gamma, all n made before the first
    block. Shapes below 1 are boosted through Gamma(alpha+1) times an
    independent uniform to the power 1/alpha, added in log space,
    ln G = ln G(alpha+1) + ln(U)/alpha, because U^(1/alpha) underflows
    for a sizeable share of draws once alpha is small; the uniforms are
    drawn first.
    """
    if alpha >= 1.0:
        uniforms, draws = None, rng.standard_gamma(alpha, n)
    else:
        uniforms = rng.random(n)
        draws = rng.standard_gamma(alpha + 1.0, n)
    for start in range(0, n, _MAP_BLOCK):
        block = slice(start, start + _MAP_BLOCK)
        log_t = np.log(draws[block], out=draws[block])
        if uniforms is not None:
            with np.errstate(divide="ignore"):
                log_boost = np.log(uniforms[block], out=uniforms[block])
            log_boost /= alpha
            log_t += log_boost
        log_t -= log_rate
        draws[block] = f(log_t)
    return draws


def _sum_shells(inner, ctrl):
    """Drive the outer k-sum of a double series.

    inner(k) -> (shell value, j terms used, inner tail met, note);
    a non-empty note aborts the evaluation (a term was not evaluable).
    """
    total = 0.0
    j_widest = 0
    k_used = 0
    inner_all_ok = True
    prev_mag = None
    converged = False
    for k in range(ctrl.k_max):
        val, j_used, inner_ok, note = inner(k)
        j_widest = max(j_widest, j_used)
        if note:
            return SeriesResult(math.nan, (k, j_widest), False, note)
        total += val
        k_used = k + 1
        inner_all_ok = inner_all_ok and inner_ok
        mag = abs(val)
        if not math.isfinite(mag):
            return SeriesResult(
                total, (k_used, j_widest), False,
                f"shell k={k} is not finite; the expansion overflowed",
            )
        scale = max(abs(total), _TINY)
        if (
            prev_mag is not None
            and prev_mag > ctrl.tail_tol * scale
            and mag > _DIVERGENCE_RATIO * prev_mag
        ):
            return SeriesResult(
                total, (k_used, j_widest), False,
                f"shell k={k} grew {mag / prev_mag:.3g}x over shell k={k - 1}; "
                "the expansion is formal at these parameters",
            )
        if k >= 1 and mag <= ctrl.tail_tol * scale:
            converged = True
            break
        prev_mag = mag
    if not converged:
        return SeriesResult(
            total, (k_used, j_widest), False,
            f"k_max={ctrl.k_max} shells consumed before the tail criterion was met",
        )
    if not inner_all_ok:
        return SeriesResult(
            total, (k_used, j_widest), False,
            f"an inner sum hit j_max={ctrl.j_max} before its tail criterion",
        )
    return SeriesResult(total, (k_used, j_widest), True, "")


def _truncate_inner(terms, ctrl):
    """Partial-sum an inner term array with the two-small-terms stop.

    Returns (partial, count, satisfied). The stop asks for two
    consecutive terms at or below tail_tol relative to the running sum.
    A sum past double range comes back inf or nan, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        csum = np.cumsum(terms)
    mags = np.abs(terms)
    scale = np.maximum(np.abs(csum), _TINY)
    small = mags <= ctrl.tail_tol * scale
    if terms.size > 1:
        both = small[:-1] & small[1:]
        hits = np.nonzero(both)[0]
        if hits.size:
            stop = int(hits[0]) + 1  # keep both qualifying terms
            return csum[stop].item(), stop + 1, True
    return csum[-1].item(), int(terms.size), False


def _signed_binomial(k, log_pref, s, n):
    """(-1)^(k+j) e^{log_pref} C(s, j) for j = 0..n-1: the coefficient of
    a shell's inner terms, C(s, j) the running product of (s - j + 1)/j;
    inf or nan entries where e^{log_pref} overflows."""
    sign_k = -1.0 if k % 2 else 1.0
    j = np.arange(float(n))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        binom = np.cumprod(np.concatenate(([1.0], (s - (j[1:] - 1.0)) / j[1:])))
        return sign_k * float(np.exp(log_pref)) * (-1.0) ** j * binom


def _tau_note(k, m, eta, r, err):
    """The note that ends a tau series at shell k's nan j = 0 column,
    whose quadrature verdict is err: not integrable where that is a
    DivergenceError, else not resolved."""
    term = f"term (k={k}, j=0) needs tau(m={m}, eta={eta:.6g}, r={r:.6g}), "
    if isinstance(err, DivergenceError):
        return term + ("which is not integrable; the printed expansion is formal "
                       "at these parameters")
    return term + f"which could not be resolved ({err}); the series stops there"


@functools.cache
def _level_logit(level):
    """(v, ln u, ln v, z) at the nodes tanh_sinh's level adds, the head
    nodes u = s and then the tail nodes 1 - u = s, with v = 1 - u and
    z = ln(u/v), each formed from s without a cancellation."""
    s = tanh_sinh_levels(level)
    log_s, log_c = np.log(s), np.log1p(-s)
    log_u, log_v = np.concatenate((log_s, log_c)), np.concatenate((log_c, log_s))
    out = np.concatenate((1.0 - s, s)), log_u, log_v, log_u - log_v
    for a in out:
        a.flags.writeable = False
    return out


def _gamma_scale(alpha, level):
    """(ln T, ln weight) at the nodes of _level_logit(level): T = T(u) a
    closed-form monotone map of (0, 1) onto (0, inf) and weight the
    Gamma(alpha, 1) density times dT/du, so that E g(T) is the integral
    of g(T(u)) weight(u) du over (0, 1).

    T = u^(1/alpha) (C + a ln(1 + e^q)), q = (z - z0)/b and z = ln(u/v),
    v = 1 - u, with C = Gamma(1 + alpha)^(1/alpha). As u -> 0 it is the
    gamma law's own head, (u Gamma(1 + alpha))^(1/alpha), where the
    weight tends to 1, and as v -> 0 it grows like (a/b) ln(1/v), as the
    gamma law's tail does. Below alpha = 10, a = b = 1 and z0 = -ln alpha;
    from 10 on the second term carries the bulk, a Gamma(alpha, 1) law
    that is nearly normal: b = sqrt(alpha), slope a/b = 0.6 sqrt(alpha)
    and T(1/2) = alpha - 1/3, its median. The map is one analytic
    function of z across u = 1/2, so the head and tail halves form one
    trapezoid rule. The weight is formed in logs, with alpha ln T =
    ln u + alpha ln(C + a ln(1 + e^q)) taken apart and its constant
    free of cancellation: alpha ln C against ln Gamma(1 + alpha) below
    alpha = 10, and Stirling's series for ln Gamma(alpha) above.
    """
    v, log_u, log_v, z = _level_logit(level)
    a, b, z0, c, const = _scale_constants(alpha)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        y = np.logaddexp(0.0, (z - z0) / b)
        e = a * y + c
        log_t = log_u / alpha + np.log(e)
        # dlnT/dz; -expm1(-y) = e^q/(1 + e^q)
        slope = v / alpha - (a / b) * np.expm1(-y) / e
        if alpha < 10.0:
            log_weight = alpha * np.log1p(y / c) - np.exp(log_t)
        else:
            d = (a * y + (c - alpha)) / alpha
            log_weight = alpha * (np.log1p(d) - d) - e * np.expm1(log_u / alpha)
        log_weight += np.log(slope) - log_v + const
    return log_t, log_weight


@functools.lru_cache(maxsize=64)
def _scale_constants(alpha):
    """(a, b, z0, C, const) of _gamma_scale's map and weight at alpha,
    const the weight's constant: alpha ln C - ln Gamma(alpha) below
    alpha = 10, where a = 1, through ln Gamma(1 + alpha) - ln alpha, and
    alpha ln alpha - alpha - ln Gamma(alpha) from 10 on, by Stirling's
    series."""
    c = math.exp(log_gamma(1.0 + alpha) / alpha)
    if alpha < 10.0:
        const = alpha * math.log(c) - log_gamma(1.0 + alpha) + math.log(alpha)
        return 1.0, 1.0, -math.log(alpha), c, const
    b = math.sqrt(alpha)
    a = 0.6 * alpha
    z0 = -b * math.log(math.expm1((alpha - 1.0 / 3.0 - c * 0.5 ** (1.0 / alpha)) / a))
    const = 0.5 * math.log(alpha / (2.0 * math.pi)) - _stirling_tail(alpha)
    return a, b, z0, c, const


def _validate_renyi_order(eta, who):
    """eta as a float; ValueError unless eta is finite, eta > 0 and eta != 1."""
    eta = float(eta)
    if not eta > 0.0 or eta == 1.0:
        raise ValueError(f"{who} requires eta > 0, eta != 1, got {eta}")
    if eta == math.inf:
        raise ValueError(f"{who} requires a finite eta, got eta = {eta}")
    return eta


def _validate_t(t, who):
    """t as a float; ValueError unless it is finite."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"{who} requires a finite t, got t = {t}")
    return t


def _validate_order(m, who):
    if isinstance(m, float) and not m.is_integer():
        raise ValueError(f"{who} requires integer order, got {m}")
    m = int(m)
    if m < 0:
        raise ValueError(f"{who} requires order >= 0, got {m}")
    return m


def _set_positive_param(dist, name):
    """Store dist.name as a float; ValueError unless it is a finite real > 0."""
    v = getattr(dist, name)
    if not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a positive finite number, got {v!r}")
    v = float(v)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be a positive finite number, got {v}")
    object.__setattr__(dist, name, v)


@dataclass(frozen=True)
class GammaRatioDist:
    """Gamma(alpha, rate beta) pushed through the survival odds of base.

    alpha and beta are finite reals > 0 (numpy scalars included), stored
    as Python floats. Raw moments from moment_quadrature are memoised per
    instance, so the central and standardized moments reuse them. So are
    the quadrature nodes, the gamma-scale abscissae and weights of the
    expectations and the abscissae of the base's own quantile map, so on
    one instance every expectation maps its nodes, and every tau
    functional maps through the base, once per level; and the base's
    logs at the latter, which the tau functionals share.
    """

    alpha: float
    beta: float
    base: BaseDistribution
    _raw_moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _abscissae: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _base_abscissae: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _base_logs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("alpha", "beta"):
            _set_positive_param(self, name)

    @property
    def support(self):
        return self.base.support

    # ---------------- pointwise maps ----------------

    def odds(self, x):
        """Survival odds w(x) = (1 - G1(x))/G1(x), the base's own map.

        +inf where G1(x) = 0; the cdf, sf and log-density consume that as
        the limiting case, callers should too. nan gives nan.
        """
        x_arr, scalar = _as_float_array(x)
        return _restore(np.asarray(self.base.odds(x_arr), dtype=float), scalar)

    def cdf(self, x):
        """H(x) = Q(alpha, beta * w(x)); 0 below the support, 1 at its top.

        Q is specfun's one upper incomplete gamma; nan gives nan. Each
        point's value depends on x alone, not on the other points of
        the call.
        """
        x_arr, scalar = _as_float_array(x)
        w = np.asarray(self.odds(x_arr), dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            w *= self.beta
            val = _reg_upper_gamma_vec(self.alpha, w)
        return _restore(val, scalar)

    def log_pdf(self, x):
        """Log density assembled term by term, never forming the density.

        h = beta^alpha/Gamma(alpha) g1 S1^(alpha-1)/G1^(alpha+1) e^(-beta w)
        and 1/G1 = 1 + w, so
        ln h = ln g1 + (alpha-1) ln S1 + (alpha+1) log1p(w) - beta w
             + alpha ln beta - ln Gamma(alpha),
        with ln S1 the base's log_sf, which stays finite where sf
        underflows when the base supplies its own. Only where beta w
        overflows are ln G1 = ln cdf and beta w = beta sf / cdf formed
        from the base's maps, and the density is 0 where cdf is 0. -inf outside
        the support, and at alpha < 1 where ln S1 = -inf (past the
        numeric top of the support); nan gives nan. The points run in
        blocks of _MAP_BLOCK, whose temporaries stay in cache, and a
        point's value depends on x alone.
        """
        x_arr, scalar = _as_float_array(x)
        flat = x_arr.ravel()
        out = np.empty(flat.shape)
        const = self._log_norm()
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            for start in range(0, flat.size, _MAP_BLOCK):
                block = slice(start, start + _MAP_BLOCK)
                self._log_pdf_block(const, flat[block], out[block])
        return _restore(out.reshape(x_arr.shape), scalar)

    def _log_norm(self):
        """The density's normalising constant, alpha ln beta - ln Gamma(alpha)."""
        return self.alpha * math.log(self.beta) - log_gamma(self.alpha)

    def _log_pdf_block(self, const, x, out):
        """log_pdf of a 1-d block x into out, with const = _log_norm().
        The odds array, the base's own new array, becomes the block's
        scratch."""
        base, a = self.base, self.alpha
        w = np.asarray(base.odds(x), dtype=float)
        np.log1p(w, out=out)
        out *= a + 1.0
        w *= self.beta
        out -= w
        over = w == np.inf
        if over.any():
            c = np.asarray(base.cdf(x[over]), dtype=float)
            s = np.asarray(base.sf(x[over]), dtype=float)
            out[over] = np.where(c > 0.0, -(a + 1.0) * np.log(c) - self.beta * s / c, -np.inf)
        if a != 1.0:
            # skipped at alpha=1 where it is 0 * ln S1, possibly 0 * -inf
            np.multiply(base.log_sf(x), a - 1.0, out=w)
            out += w
        out += base.log_pdf(x)
        out += const
        if a < 1.0:
            # past the numeric top of the support ln S1 = -inf, and
            # (alpha-1) ln S1 = +inf would flip the limit to +inf
            out[w == np.inf] = -np.inf
        lo, hi = base.support
        out[(x <= lo) | (x >= hi)] = -np.inf

    def pdf(self, x):
        x_arr, scalar = _as_float_array(x)
        with np.errstate(over="ignore", under="ignore"):
            val = np.exp(self.log_pdf(x_arr))
        return _restore(val, scalar)

    def sf(self, x):
        """Survival 1 - H(x) = P(alpha, beta * w(x)), which keeps its digits
        where cdf rounds to 1; 1 below the support, 0 at its top."""
        x_arr, scalar = _as_float_array(x)
        w = np.asarray(self.odds(x_arr), dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            val = _reg_lower_gamma_vec(self.alpha, self.beta * w)
        return _restore(val, scalar)

    def hazard(self, x):
        """h(x) / (1 - H(x)) by _hazard from log_pdf and sf: 0 below the
        support, nan where sf is not a normal number (at and past the
        top of the support, and where sf has lost digits) and for nan."""
        x_arr, scalar = _as_float_array(x)
        return _restore(_hazard(self.log_pdf(x_arr), self.sf(x_arr)), scalar)

    # ---------------- inverses and sampling ----------------

    def _x_of_log_odds(self, log_w):
        """x with odds w(x) = e^log_w, an array: the base's log_isf at
        ln sf = ln(w/(1 + w)) = -softplus(-ln w). Every draw, quadrature
        node and quantile is mapped back to the base scale here."""
        return np.asarray(self.base.log_isf(_log_sf_of_log_odds(log_w)), dtype=float)

    def quantile(self, p):
        """Inverse cdf; |cdf(quantile(p)) - p| <= 1e-9 on (0, 1).

        p may be an array (a scalar gives a float). p <= 1/2 inverts the
        upper regularized gamma; p > 1/2 inverts the lower one on
        s = 1 - p, which keeps relative accuracy where Q is flat.
        """
        p, scalar = _probabilities(p, "quantile", "p")
        return self._x_of_levels(p <= 0.5, p, 1.0 - p, scalar)

    def quantile_sf(self, s):
        """x with 1 - cdf(x) = s; the tail-accurate companion of quantile."""
        s, scalar = _probabilities(s, "quantile_sf", "s")
        return self._x_of_levels(s > 0.5, 1.0 - s, s, scalar)

    def _x_of_levels(self, upper, p, s, scalar):
        """x with cdf(x) = p and 1 - cdf(x) = s, through beta * w(x) = g.

        g solves Q(alpha, g) = p where upper holds, P(alpha, g) = s
        elsewhere. Odds g/beta below double range are taken from the
        level instead: P(alpha, g) = g^alpha/Gamma(alpha+1) (1 + O(g))
        gives ln g = (ln s + ln Gamma(alpha+1))/alpha to O(g).
        A scalar level takes the same steps in floats, without the array
        path's dozen numpy calls on one-element arrays: the scalar
        inverse, then logs and exps by numpy's ufuncs on a scalar, which
        give an array entry's bits, and the base's log_isf at a 0-d ln
        sf; it gives a float.
        """
        if scalar:
            g = (inv_reg_upper_gamma(self.alpha, p) if upper
                 else inv_reg_lower_gamma(self.alpha, s))
            w = g / self.beta
            log_w = self._log_odds_of_level(s) if w < _TINY else np.log(w)
            log_sf = min(log_w, 0.0) - np.log1p(np.exp(-abs(log_w)))
            return float(self.base.log_isf(log_sf))
        g = np.empty(p.shape)
        if upper.any():
            g[upper] = _inv_reg_upper_gamma_vec(self.alpha, p[upper])
        if not upper.all():
            g[~upper] = _inv_reg_lower_gamma_vec(self.alpha, s[~upper])
        w = g / self.beta
        log_w = np.log(np.maximum(w, _TINY))
        deep = w < _TINY
        if deep.any():
            log_w[deep] = self._log_odds_of_level(s[deep])
        return self._x_of_log_odds(log_w)

    def _log_odds_of_level(self, s):
        """ln(g/beta) with P(alpha, g) = s, to O(g), for odds below double range."""
        with np.errstate(divide="ignore"):
            log_g = (np.log(s) + log_gamma(self.alpha + 1.0)) / self.alpha
        return log_g - math.log(self.beta)

    def sample(self, n, rng=None):
        """n independent draws, exact in law: X = w^{-1}(T), T ~ Gamma.

        rng is a numpy Generator, a seed or None. T with shape alpha and
        rate beta has P(T >= w(x)) = Q(alpha, beta w(x)) = H(x), so
        mapping T back through the odds inverts the construction without
        any quantile iteration. T is drawn in log space and mapped through
        the base's log_isf at ln sf = -softplus(-ln T), one block of
        _MAP_BLOCK draws at a time, in the draws' own buffer
        (_log_gamma_variates); a draw's value does not depend on its block.
        """
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"sample size must be an integer >= 0, got {n!r}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return _log_gamma_variates(rng, self.alpha, n, math.log(self.beta), self._x_of_log_odds)

    # ---------------- quadrature expectations ----------------

    def _inside(self, x):
        """x, nan where it has left the open support."""
        lo, hi = self.support
        return np.where((x > lo) & (x < hi), x, np.nan)

    def _nodes(self, level):
        """(head, tail, head weights, tail weights) of the tanh-sinh nodes
        that level adds, on the gamma scale: T = beta w(X) is
        Gamma(alpha, 1) for any base, so E f(X) = E f(x(T)) with
        x(T) = _x_of_log_odds(ln T - ln beta). The abscissae are x(T(u))
        at u = s on the head and at 1 - u = s on the tail,
        s = tanh_sinh_levels(level), for the closed-form map T(u) of
        _gamma_scale, and the weights are its gamma density times dT/du;
        no gamma inverse is called. A node is nan where x has left the
        open support or its weight is below the normal range, where it
        adds nothing but a 0 * inf. Memoised per instance."""
        memo = self._abscissae
        if level not in memo:
            log_t, log_weight = _gamma_scale(self.alpha, level)
            with np.errstate(over="ignore", under="ignore"):
                weight = np.exp(log_weight)
            x = self._inside(self._x_of_log_odds(log_t - math.log(self.beta)))
            x[~(weight >= _TINY)] = np.nan
            n = x.size // 2
            memo[level] = (x[:n], x[n:], weight[:n], weight[n:])
        return memo[level]

    def _base_nodes(self, level):
        """(head, tail) abscissae of the tanh-sinh nodes that level adds
        on the base's own quantile map, u = G1(x): base.quantile(s) and
        base.isf(s) for s = tanh_sinh_levels(level), nan where the map
        has left the open support, with no weights; memoised per
        instance in a dict of its own."""
        memo = self._base_abscissae
        if level not in memo:
            s = tanh_sinh_levels(level)
            memo[level] = (self._inside(self.base.quantile(s)), self._inside(self.base.isf(s)))
        return memo[level]

    def _expect(self, f, what, per_component=False):
        """E f(X) = integral of f(x(T(u))) weight(u) du over (0, 1), by
        quadrature.tanh_sinh on the gamma-scale nodes of _nodes, split at
        u = 1/2.

        A non-integrable expectation raises DivergenceError, and one the
        nodes cannot resolve NumericalError, each naming what. f may be
        vector valued, one column per component, and the result is then
        an array; with per_component nothing is raised and the result is
        (value, errors), errors[i] the exception component i would
        raise, or None.
        """
        value, errors = tanh_sinh(f, self._nodes)
        if per_component:
            return value, errors
        err = next((e for e in errors if e is not None), None)
        if err is not None:
            raise type(err)(f"{what}: {err}")
        return value

    def tau(self, m, eta, r, errors_out=None):
        """Integral of x^m g1(x)^eta G1(x)^r dG1 over the support.

        The building block of the family's moment expansions. Evaluated
        in u = G1(x) by quadrature.tanh_sinh over the base's own quantile
        map, to 1e-13 of the integral of its magnitude, relative, per
        entry of r. The integrand is formed in logs, exp(r ln G1 +
        eta ln g1 + m ln|x|) times sign(x)^m, because G1^r alone
        overflows at outer nodes where the product is finite. Every tau
        run on an instance meets the same nodes at a level, so ln G1,
        ln g1 and ln|x| there are memoised per instance and level, next
        to the base's abscissae: the base is evaluated once per level,
        and each run forms only its outer product with r, its addends
        and one exp, one row per entry of r. r may be a
        1-D array: one vector-valued quadrature then gives the integral
        for every entry, nan where it is not integrable or the nodes
        cannot resolve it; errors_out (a list, extended in place), when
        given, then receives each entry's verdict: None, or the
        DivergenceError or NumericalError that made it nan. An empty r
        gives an empty array, and no verdict. For a scalar r a
        non-integrable tau raises DivergenceError naming (m, eta, r), and
        an unresolved one NumericalError. A non-finite eta or entry of r,
        or an r of two or more dimensions, raises ValueError.
        """
        m = _validate_order(m, "tau")
        eta = float(eta)
        if not math.isfinite(eta):
            raise ValueError(f"tau requires a finite eta, got eta = {eta}")
        if np.ndim(r) > 1:
            raise ValueError(f"tau requires a scalar or 1-D r, got shape {np.shape(r)}")
        r_vec = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.isfinite(r_vec).all():
            bad = float(r_vec[~np.isfinite(r_vec)][0])
            raise ValueError(f"tau requires a finite r, got r = {bad}")
        if not r_vec.size:
            return np.empty(0)
        base = self.base
        signed = m % 2 == 1 and base.support[0] < 0.0

        levels = itertools.count()

        def integrand(x):
            # tanh_sinh calls it once per level, from level 0 on, at
            # nodes that depend on the level and the base alone, with
            # numpy's floating-point warnings off
            logs = self._base_logs.setdefault(next(levels), {})
            if "cdf" not in logs:
                logs["cdf"] = np.log(base.cdf(x))
            val = np.multiply.outer(r_vec, logs["cdf"])
            if eta != 0.0:
                if "pdf" not in logs:
                    logs["pdf"] = np.asarray(base.log_pdf(x), dtype=float)
                val += eta * logs["pdf"]
            if m:
                if "abs" not in logs:
                    logs["abs"] = np.log(np.abs(x))
                val += m * logs["abs"]
            # exp is 0 at and below _EXP_ZERO, where numpy's exp is slow:
            # those entries skip it and are set to 0
            np.exp(val, out=val, where=val > _EXP_ZERO)
            np.maximum(val, 0.0, out=val)
            if signed:
                val *= np.sign(x)
            return val.T

        value, errors = tanh_sinh(integrand, self._base_nodes)
        if np.ndim(r) == 0:
            what = f"tau(m={m}, eta={eta:.6g}, r={float(r):.6g})"
            if isinstance(errors[0], DivergenceError):
                raise DivergenceError(f"{what} is not integrable: {errors[0]}")
            if errors[0] is not None:
                raise NumericalError(f"{what} could not be resolved: {errors[0]}")
            return float(value[0])
        if errors_out is not None:
            errors_out.extend(errors)
        failed = [i for i, e in enumerate(errors) if e is not None]
        if failed:
            value[failed] = np.nan
        return value

    def moment_quadrature(self, m):
        """Raw moment E X^m by quadrature; the authoritative path.

        A miss integrates every order from min(m, 1) to max(m, 4) in one
        vector-valued pass and memoises each order that converged; a
        divergent order is not memoised, so it raises DivergenceError
        every time (NumericalError where the nodes cannot resolve it).
        """
        return self._raw_moment(_validate_order(m, "moment_quadrature"))

    def _raw_moment(self, m, top=0):
        # a miss integrates orders min(m, 1)..max(m, top, 4) in one pass
        memo = self._raw_moments
        if m not in memo:
            orders = range(min(m, 1), max(m, top, 4) + 1)
            powers = np.array(orders, dtype=float)
            values, errors = self._expect(
                lambda x: x[:, None] ** powers, "raw moments", per_component=True
            )
            for k, value, err in zip(orders, values, errors):
                if err is None:
                    memo.setdefault(k, float(value))
            if m not in memo:
                err = errors[m - orders[0]]
                if isinstance(err, DivergenceError):
                    raise DivergenceError(f"moment of order {m} does not exist: {err}")
                raise NumericalError(f"moment of order {m}: {err}")
        return memo[m]

    def central_moment_quadrature(self, m):
        """Central moment via binomial recombination of quadrature raw moments.

        The zeroth raw moment is 1 by normalization and is substituted
        exactly, which makes the m = 1 result vanish identically. One
        pass integrates orders 1..m; the lowest divergent one raises.
        """
        m = _validate_order(m, "central_moment_quadrature")
        if m == 0:
            return 1.0
        mus = [1.0] + [self._raw_moment(i, top=m) for i in range(1, m + 1)]
        return math.fsum(math.comb(m, r) * (-mus[1]) ** r * mus[m - r] for r in range(m + 1))

    def general_coefficient(self, m):
        """Standardized moment mu'_m / (mu'_2)^(m/2); 3 is skewness, 4 kurtosis."""
        m = _validate_order(m, "general_coefficient")
        central = self.central_moment_quadrature(m)  # fills orders 1..m first
        var = self.central_moment_quadrature(2)
        if not var > 0.0:
            raise NumericalError(
                f"general_coefficient: degenerate distribution, variance {var:.3g}"
            )
        return central / var ** (0.5 * m)

    def _check_mgf_domain(self, t):
        rate = self.base.tail_rate
        if rate is not None and t >= self.alpha * rate:
            raise DivergenceError(
                f"mgf undefined for t >= alpha * tail_rate = {self.alpha * rate:.6g}, "
                f"got t = {t:.6g}"
            )

    def mgf(self, t):
        """E e^{tX} by quadrature; mgf(0) = 1 exactly.

        When the base advertises an exponential tail rate the domain
        t < alpha * tail_rate is enforced analytically; otherwise the
        quadrature's divergence verdict decides. Close below that rate
        the integrand's tail is nearly non-integrable, and the
        quadrature raises NumericalError rather than return a truncated
        sum.
        """
        t = _validate_t(t, "mgf")
        if t == 0.0:
            return 1.0
        self._check_mgf_domain(t)

        def f(x):
            with np.errstate(over="ignore", under="ignore"):
                return np.exp(t * x)

        return self._expect(f, f"mgf({t:.6g})")

    def cf(self, t):
        """Characteristic function as the pair (E cos tX, E sin tX)."""
        t = _validate_t(t, "cf")
        if t == 0.0:
            return (1.0, 0.0)

        def f(x):
            tx = t * x
            return np.stack((np.cos(tx), np.sin(tx)), axis=-1)

        re, im = self._expect(f, f"cf({t:.6g})")
        return (float(re), float(im))

    def renyi_entropy(self, eta):
        """Entropy of order eta: log(integral of h^eta) / (1 - eta).

        With L = ln h(X) and p = eta - 1 the integral is E e^{pL}, taken
        on the gamma scale as e^c (1 + E expm1(pL - c)), c the value of
        pL at the node u = 1/2. The entropy is then
        -(c + log1p(E expm1(pL - c)))/p, in which nothing cancels as
        eta -> 1, where e^{pL} rounds to 1 at every node, nor where the
        integral is far from 1. eta must be positive and different from
        1 (the Shannon limit is out of scope).
        """
        eta = _validate_renyi_order(eta, "renyi_entropy")
        p = eta - 1.0
        # level 0's first head node is u = 1/2
        c = p * float(self.log_pdf(self._nodes(0)[0][:1])[0])
        c = c if math.isfinite(c) else 0.0
        const = self._log_norm()

        def f(x):
            # tanh_sinh passes a 1-D float array and runs f with numpy's
            # warnings off, so log_pdf's checks and blocks are not needed
            out = np.empty(x.shape)
            self._log_pdf_block(const, x, out)
            out *= p
            out -= c
            return np.expm1(out, out=out)

        try:
            mean = self._expect(f, f"renyi_entropy(eta={eta:.6g})")
        except DivergenceError as exc:
            raise DivergenceError(
                f"renyi entropy undefined for eta={eta:.6g}: "
                "the integral of h^eta diverges"
            ) from exc
        if not mean > -1.0:
            raise NumericalError(
                f"renyi_entropy(eta={eta:.6g}): integral evaluated to "
                f"{1.0 + mean:.3g} times e^{c:.6g}"
            )
        return -(c + math.log1p(mean)) / p

    # ---------------- formal series evaluators ----------------

    def _tau_series(self, m, eta, c):
        """The verdict of the formal double sum behind moment_series
        and renyi_series, whose shell k has terms in tau(m, eta,
        (j - k) - c); no shell is summed. Column j = 0 of shell k,
        tau(m, eta, -k - c), the shell's most singular (r grows with j),
        is ruled on over shells k < _TAU_BLOCK up to the first nan one,
        in tau calls of m + 1, 2(m + 1), 4(m + 1), ... columns. On the
        exponential base it goes like x^(m - k - alpha - 1) at the head,
        so the first call, shells 0..m, holds the first formal shell
        max(0, ceil(m - alpha)) of every moment series there; a column's
        value and verdict do not depend on the others in its call. Where
        shell k's is nan the result is its note, a nan value and
        terms_used (k, 1); where none below the cap is, as on a base
        whose head decays faster than any power, a nan value, terms_used
        (_TAU_BLOCK, 1) and a note that the expansion is not summed.
        """
        k, n = 0, min(m + 1, _TAU_BLOCK)
        while k < _TAU_BLOCK:
            r = -np.arange(float(k), min(k + n, _TAU_BLOCK)) - c
            errors = []
            bad = np.flatnonzero(np.isnan(self.tau(m, eta, r, errors_out=errors)))
            if bad.size:
                i, k = bad[0], k + int(bad[0])
                return SeriesResult(math.nan, (k, 1), False,
                                    _tau_note(k, m, eta, r[i], errors[i]))
            k, n = k + n, min(2 * n, _TAU_BLOCK)
        return SeriesResult(
            math.nan, (_TAU_BLOCK, 1), False,
            f"no shell k < {_TAU_BLOCK} has a non-integrable j = 0 column "
            f"tau(m={m}, eta={eta:.6g}, r=-k-{c:.6g}); the family's expansion is "
            "not summed, and the quadrature path gives the value",
        )

    def moment_series(self, m, ctrl=None):
        """The verdict of the formal double-sum expansion of the raw
        moment of order m, whose shell k's column j takes tau at
        r = (j - k) - (alpha + 1): _tau_series' nan value and note of the
        first shell whose j = 0 column fails. moment_quadrature gives
        the value; ctrl, kept for OEGammaDist's signature, is not read.
        """
        m = _validate_order(m, "moment_series")
        return self._tau_series(m, 0.0, self.alpha + 1.0)

    def central_moment_series(self, m, ctrl=None):
        """Binomial recombination of series raw moments (all-series path).

        The zeroth raw moment is 1 by normalization and is substituted
        exactly, as in central_moment_quadrature; its own series is
        formal at every parameter. Convergence requires the raw-moment
        series of every order 1..m to have converged. Where the
        recombination cannot be formed in double range (raw moments of
        inf and -inf, or a power of the mean past it), the value is nan
        and the result is not converged.
        """
        m = _validate_order(m, "central_moment_series")
        ctrl = ctrl or DEFAULT_CONTROL
        parts = [self.moment_series(i, ctrl) for i in range(1, m + 1)]
        mus = [1.0] + [p.value for p in parts]
        mu = mus[1] if m else 0.0
        try:
            value = math.fsum(math.comb(m, r) * (-mu) ** r * mus[m - r] for r in range(m + 1))
        except (OverflowError, ValueError):  # inf - inf, or a term past double range
            value = math.nan
        used = tuple(max((p.terms_used[i] for p in parts), default=0) for i in (0, 1))
        bad = next((i for i, p in enumerate(parts, 1) if not p.converged), None)
        if bad is not None:
            return SeriesResult(
                value, used, False,
                f"the order-{bad} raw-moment series did not converge: "
                f"{parts[bad - 1].diagnostic}",
            )
        if math.isnan(value):
            return SeriesResult(
                value, used, False, "the recombination of the raw moments left double range"
            )
        return SeriesResult(value, used, True, "")

    def mgf_series(self, t, ctrl=None):
        """Formal triple-sum mgf: sum over orders m of t^m/m! times the
        moment expansion. Formal at every parameter for every law,
        OEGammaDist included: the order-0 component's (k = 0, j = 0)
        term needs tau(0, 0, -(alpha + 1)), the integral of
        u^-(alpha+1) over (0, 1), which diverges for every base and
        every alpha > 0, so the result is that component's failure,
        with a nan value."""
        t = _validate_t(t, "mgf_series")
        self._check_mgf_domain(t)
        return self._exp_series()

    def cf_series(self, t, ctrl=None):
        """Formal triple-sum characteristic function, formal at every
        parameter for every law, OEGammaDist included, for the reason
        mgf_series gives: the order-0 component fails, and the value
        is nan."""
        _validate_t(t, "cf_series")
        return self._exp_series()

    def _exp_series(self):
        """The order-0 verdict that ends every order sum of the mgf/cf:
        the tau expansion's, for every law, OEGammaDist included."""
        part = self._tau_series(0, 0.0, self.alpha + 1.0)
        return SeriesResult(
            math.nan, part.terms_used, False, f"order-0 component failed: {part.diagnostic}"
        )

    def renyi_series(self, eta, ctrl=None):
        """The verdict of the formal tau expansion of the order-eta
        entropy, whose shell k's column j takes tau(0, eta - 1,
        (j - k) - eta (alpha + 1)), as moment_series gives its own.
        renyi_entropy gives the value; ctrl is not read.
        """
        eta = _validate_renyi_order(eta, "renyi_series")
        return self._tau_series(0, eta - 1.0, eta * (self.alpha + 1.0))

    def cdf_series(self, x, ctrl=None):
        """Formal power-in-G1 expansion of the cdf; diagnostic path only.

        Term-by-term integration of the density expansion fixes H only
        up to its integration constant: at the upper support end every
        k-shell's inner sum telescopes to B(-s-1, s+1) = 0, so where the
        expansion converges it sums to cdf(x) - 1, not cdf(x). The value
        is reported as summed; callers compare against cdf(x) - 1.

        Refuses integer alpha, where the coefficient 1/(j - alpha - k)
        hits a pole; the Q-based cdf is always the production route.
        x is one point: an array, even of one entry, raises ValueError.
        """
        if float(self.alpha).is_integer():
            raise ValueError(
                "cdf_series is undefined at integer alpha (pole at j = alpha + k); "
                "use cdf"
            )
        if np.ndim(x) != 0:
            raise ValueError(f"cdf_series requires a scalar x, got shape {np.shape(x)}")
        ctrl = ctrl or DEFAULT_CONTROL
        a, b = self.alpha, self.beta
        g = float(self.base.cdf(x))
        if not 0.0 < g < 1.0:
            raise ValueError(
                f"cdf_series requires x strictly inside the support, got G1 = {g}"
            )
        ln_g = math.log(g)
        j = np.arange(float(ctrl.j_max))

        def inner(k):
            log_pref = (a + k) * math.log(b) - log_gamma(k + 1.0) - log_gamma(a)
            coef = _signed_binomial(k, log_pref, a + k - 1.0, ctrl.j_max)
            expo = j - a - k
            with np.errstate(over="ignore", invalid="ignore"):
                terms = coef / expo * np.exp(expo * ln_g)
            return *_truncate_inner(terms, ctrl), None

        return _sum_shells(inner, ctrl)
