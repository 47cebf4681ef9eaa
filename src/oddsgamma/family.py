"""The (1-G)/G gamma family over an arbitrary base distribution.

A GammaRatioDist feeds the survival odds w(x) = (1 - G1(x))/G1(x) of a
base distribution through the upper tail of a Gamma(alpha, rate beta):
H(x) = Q(alpha, beta * w(x)). Closed forms cover cdf/sf/pdf/hazard/quantile
and exact sampling; expectations (moments, mgf, cf, entropy) are
computed by a tanh-sinh rule on the quantile map, whose nodes are
inverted once per distribution, with divergence detection. The family's
double-series expansions are exposed as formal evaluators that report
their own convergence honestly; quadrature is authoritative whenever
the two disagree. The mgf and cf series, sums over orders m of
t^m/m! times the order-m moment expansion, are formal at every
parameter: their order-0 component needs tau(0, 0, -(alpha + 1)), the
integral of u^-(alpha+1) over (0, 1), which diverges for every base and
every alpha > 0.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .base import BaseDistribution
from .errors import DivergenceError, NumericalError
from .quadrature import tanh_sinh, tanh_sinh_levels
from .specfun import (
    _inv_reg_lower_gamma_vec,
    _inv_reg_upper_gamma_vec,
    _reg_lower_gamma_vec,
    _reg_upper_gamma_vec,
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    log_gamma,
    special,
)

__all__ = ["GammaRatioDist", "SeriesControl", "SeriesResult"]

# perfbench/tracing.py patches this name; nothing in the library calls it
windowed_quad = None

_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)
# exp(v) rounds to 0 for every v <= -750, below log(2^-1075) = -745.13
_EXP_ZERO = -750.0
# inner terms j per tau quadrature; deeper shells go in j-ordered blocks
_TAU_BLOCK = 256
# shell-over-shell growth factor that fires a series' divergence flag
_DIVERGENCE_RATIO = 10.0


@dataclass(frozen=True)
class SeriesControl:
    """Truncation and honesty knobs for the formal series evaluators.

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
    """Outcome of a truncated series evaluation.

    value is the partial sum reached (complex for the characteristic
    function; nan when a term could not be evaluated at all). converged
    is True only when the last retained shell fell below tail_tol
    relative to the partial sum and no divergence flag fired. diagnostic
    explains any failure; a converged result may still carry a note when
    an independent cross-check disagrees with the summed value.
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


def _keep_nan(x, out):
    """out with nan wherever x is nan, whatever the base made of it."""
    return np.where(np.isnan(x), np.nan, out)


def _log_sf_of_log_odds(log_w):
    """ln(w/(1 + w)) = -softplus(-ln w) = min(ln w, 0) - log1p(e^-|ln w|)
    from an array ln w: -np.logaddexp(0, -ln w), which forms it one
    element at a time, in vectorised pieces and one new array."""
    log_sf = np.abs(log_w)
    np.negative(log_sf, out=log_sf)
    np.exp(log_sf, out=log_sf)
    np.log1p(log_sf, out=log_sf)
    return np.subtract(np.minimum(log_w, 0.0), log_sf, out=log_sf)


def _log_gamma_variates(rng, alpha, n):
    """Logs of n Gamma(alpha, 1) draws from a numpy Generator.

    Squeeze-rejection sampler (Marsaglia-Tsang, ACM TOMS 26, 2000):
    d = a - 1/3, c = 1/sqrt(9d), accept d*(1+c*z)^3 when ln u < z^2/2
    + d - d*v + d*ln v. Their squeeze u < 1 - 0.0331 z^4 is tested
    first and the two logs are taken only for the candidates it leaves
    (8.3% of them). The squeeze lies inside the acceptance region for
    every d >= 2/3, by at least 5e-4 in u away from z = 0, where both
    bounds tend to 1 and only a u within the log test's own rounding
    (about 1e-16 d) of 1 could tell them apart. So it accepts only
    candidates the log test accepts too; the normals and uniforms are
    drawn in the same order and the accepted values are the same d*v,
    so the draws are those of the log test alone. Shapes below 1
    are boosted through Gamma(alpha+1) times an independent uniform to
    the power 1/alpha, added in log space, ln G = ln G(alpha+1) +
    ln(U)/alpha, because U^(1/alpha) underflows for a sizeable share of
    draws once alpha is small.
    """
    if n == 0:
        return np.empty(0)
    log_boost = None
    a = alpha
    if alpha < 1.0:
        log_boost = rng.random(n)
        with np.errstate(divide="ignore"):
            np.log(log_boost, out=log_boost)
        log_boost /= alpha
        a = alpha + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    # each step below is the plain expression's, bit for bit, done in
    # place: new arrays cost page faults on the scale of the arithmetic
    out = todo = None
    m = n
    while m:
        z = rng.standard_normal(m)
        v = c * z
        v += 1.0
        v **= 3
        u = rng.random(m)
        squeeze = z * z
        squeeze *= squeeze
        squeeze *= -0.0331
        squeeze += 1.0
        accept = u < squeeze
        rest = np.flatnonzero(~accept)
        z_rest, v_rest = z[rest], v[rest]
        with np.errstate(divide="ignore", invalid="ignore"):
            accept[rest] = (v_rest > 0.0) & (
                np.log(u[rest]) < 0.5 * z_rest * z_rest + d - d * v_rest + d * np.log(v_rest)
            )
        v *= d
        if out is None:
            # the first pass fills every slot; those it rejected are redrawn
            out = v
            todo = np.flatnonzero(~accept)
        else:
            out[todo[accept]] = v[accept]
            todo = todo[~accept]
        m = todo.size
    np.log(out, out=out)
    if log_boost is not None:
        out += log_boost
    return out


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

    Returns (partial, count, satisfied). Works for real or complex
    terms; the stop asks for two consecutive terms at or below
    tail_tol relative to the running sum.
    """
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


def _tau_note(k, j, m, eta, r, err):
    """The note that aborts a series at its first nan tau, whose
    quadrature verdict is err: not integrable where that is a
    DivergenceError, else not resolved."""
    term = f"term (k={k}, j={j}) needs tau(m={m}, eta={eta:.6g}, r={r:.6g}), "
    if isinstance(err, DivergenceError):
        return term + ("which is not integrable; the printed expansion is formal "
                       "at these parameters")
    return term + f"which could not be resolved ({err}); the series stops there"


def _tau_table(ctrl, c):
    """(r, tau, verdicts, done): the tau columns of one series
    evaluation at the integer offsets o = j - k in [1 - k_max, j_max),
    index o + k_max - 1, at r = float(o) - c. _tau_inner fills a column's
    value and done flag the first time a shell asks for it, and its
    verdict, the error that made it nan, where it is nan."""
    r = np.arange(1.0 - ctrl.k_max, ctrl.j_max) - c
    return r, np.empty(r.size), [None] * r.size, np.zeros(r.size, dtype=bool)


def _validate_renyi_order(eta, who):
    """eta as a float; ValueError unless eta > 0 and eta != 1."""
    eta = float(eta)
    if not eta > 0.0 or eta == 1.0:
        raise ValueError(f"{who} requires eta > 0, eta != 1, got {eta}")
    return eta


def _validate_t(t, who):
    """t as a float; ValueError unless it is finite."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"{who} requires a finite t, got t = {t}")
    return t


def _renyi_result(raw, eta):
    """The order-eta entropy log(S)/(1 - eta) of a summed series raw;
    nan, not converged, where S is not a positive finite number."""
    if not math.isfinite(raw.value) or raw.value <= 0.0:
        diag = raw.diagnostic or (
            f"summed value {raw.value:.6g} is not a positive finite number, "
            "so it has no logarithm"
        )
        return SeriesResult(math.nan, raw.terms_used, False, diag)
    value = math.log(raw.value) / (1.0 - eta)
    return SeriesResult(value, raw.terms_used, raw.converged, raw.diagnostic)


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
    the abscissae of the quadrature nodes, on the quantile map and on the
    base's own, so on one instance every expectation inverts the gamma,
    and every tau functional maps through the base, once per level; and
    the base's logs at the latter, which the tau functionals share.
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
        """Survival odds w(x) = (1 - G1(x))/G1(x) of the base.

        Evaluated as sf/cdf so neither tail loses precision to the
        subtraction 1 - G1. Returns +inf where G1(x) = 0; the cdf/pdf
        consume that as the limiting case, callers should too. nan gives nan.
        """
        x_arr, scalar = _as_float_array(x)
        c = np.asarray(self.base.cdf(x_arr), dtype=float)
        s = np.asarray(self.base.sf(x_arr), dtype=float)
        w = np.where(c > 0.0, s / np.maximum(c, _TINY), np.inf)
        return _restore(_keep_nan(x_arr, w), scalar)

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

        ln h = ln g1 - 2 ln G1 + alpha ln beta - ln Gamma(alpha)
             + (alpha - 1) ln w - beta w, with G1 clamped away from 0 so
        the support edges land on the correct -inf limit. ln w takes the
        base's log_sf when it has one, so it stays finite where sf
        underflows.
        """
        x_arr, scalar = _as_float_array(x)
        base = self.base
        lo, hi = base.support
        with np.errstate(
            divide="ignore", over="ignore", under="ignore", invalid="ignore"
        ):
            c = np.maximum(np.asarray(base.cdf(x_arr), dtype=float), _TINY)
            s = np.asarray(base.sf(x_arr), dtype=float)
            ln_s = np.asarray(
                np.log(s) if base.log_sf is None else base.log_sf(x_arr), dtype=float
            )
            ln_c = np.log(c)
            out = (
                np.asarray(base.log_pdf(x_arr), dtype=float)
                - 2.0 * ln_c
                + self.alpha * math.log(self.beta)
                - log_gamma(self.alpha)
                - self.beta * (s / c)
            )
            if self.alpha != 1.0:
                # skipped at alpha=1 where it is 0 * ln w, possibly 0 * inf
                out = out + (self.alpha - 1.0) * (ln_s - ln_c)
                if self.alpha < 1.0:
                    # past the numeric top of the support ln sf is -inf
                    # and (alpha-1) ln w would flip the limit to +inf
                    out = np.where(ln_s > -np.inf, out, -np.inf)
            inside = (x_arr > lo) & (x_arr < hi)
            out = np.where(inside, out, -np.inf)
        return _restore(_keep_nan(x_arr, out), scalar)

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
        """h(x) / (1 - H(x)) with the survival taken from sf."""
        x_arr, scalar = _as_float_array(x)
        lo, hi = self.base.support
        if not np.all((x_arr > lo) & (x_arr < hi)):
            raise ValueError("hazard requires x strictly inside the support")
        surv = self.sf(x_arr)
        if np.any(surv < 1e-300):
            raise NumericalError(
                "hazard overflow: 1 - cdf fell below 1e-300 "
                f"(smallest survival {np.min(surv):.3g})"
            )
        with np.errstate(over="ignore", under="ignore"):
            val = np.exp(self.log_pdf(x_arr)) / surv
        return _restore(val, scalar)

    # ---------------- inverses and sampling ----------------

    def _x_from_w(self, w, log_w=None):
        """Map an array of odds values back to the base scale on the
        accurate side.

        Where log_w, the log of the odds (given only for a base with a
        log_isf), lies below double range, x comes from log space:
        sf = w/(1 + w), so ln sf = -softplus(-ln w).
        """
        out = np.empty(w.shape)
        big = w > 1.0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            if big.any():
                out[big] = self.base.quantile(1.0 / (1.0 + w[big]))
            small = ~big
            if small.any():
                out[small] = self.base.isf(w[small] / (1.0 + w[small]))
        if log_w is not None:
            deep = log_w < _LOG_TINY
            if deep.any():
                out[deep] = self.base.log_isf(_log_sf_of_log_odds(log_w[deep]))
        return out

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
        elsewhere; a scalar goes to the scalar inverses and gives a float.
        Odds g/beta below double range are taken in log space when the
        base has a log_isf: P(alpha, g) = g^alpha/Gamma(alpha+1) (1 +
        O(g)) gives ln g = (ln s + ln Gamma(alpha+1))/alpha to O(g).
        """
        base = self.base
        if scalar:
            g = inv_reg_upper_gamma(self.alpha, p) if upper else inv_reg_lower_gamma(self.alpha, s)
            w = g / self.beta
            if w < _TINY and base.log_isf is not None:
                log_w = self._log_odds_of_level(s)
                if log_w < _LOG_TINY:
                    return float(base.log_isf(_log_sf_of_log_odds(np.array([log_w])))[0])
            # the array path's arithmetic on one float, without its masks
            with np.errstate(divide="ignore", over="ignore", under="ignore"):
                return float(base.quantile(1.0 / (1.0 + w)) if w > 1.0 else base.isf(w / (1.0 + w)))
        g = np.empty(p.shape)
        if upper.any():
            g[upper] = _inv_reg_upper_gamma_vec(self.alpha, p[upper])
        if not upper.all():
            g[~upper] = _inv_reg_lower_gamma_vec(self.alpha, s[~upper])
        w = g / self.beta
        log_w = None
        if base.log_isf is not None and (w < _TINY).any():
            log_w = self._log_odds_of_level(s)
        return self._x_from_w(w, log_w)

    def _log_odds_of_level(self, s):
        """ln(g/beta) with P(alpha, g) = s, to O(g), for odds below double range."""
        with np.errstate(divide="ignore"):
            log_g = (np.log(s) + special.gammaln(self.alpha + 1.0)) / self.alpha
        return log_g - math.log(self.beta)

    def sample(self, n, rng=None):
        """n independent draws, exact in law: X = w^{-1}(T), T ~ Gamma.

        rng is a numpy Generator, a seed or None. T with shape alpha and
        rate beta has P(T >= w(x)) = Q(alpha, beta w(x)) = H(x), so
        mapping T back through the odds inverts the construction without
        any quantile iteration. T is drawn in log space and mapped through
        the base's log_isf at ln sf = -softplus(-ln T), or, for a base
        without one, through the odds inverse with T floored at tiny.
        """
        n = int(n)
        if n < 0:
            raise ValueError(f"sample size must be >= 0, got {n}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        log_t = _log_gamma_variates(rng, self.alpha, n)
        log_t -= math.log(self.beta)
        if self.base.log_isf is not None:
            return np.asarray(self.base.log_isf(_log_sf_of_log_odds(log_t)), dtype=float)
        with np.errstate(under="ignore"):
            return self._x_from_w(np.maximum(np.exp(log_t), _TINY))

    # ---------------- quadrature expectations ----------------

    def _inside(self, x):
        """x, nan where it has left the open support."""
        lo, hi = self.support
        return np.where((x > lo) & (x < hi), x, np.nan)

    def _nodes(self, level):
        """(head, tail) abscissae of the tanh-sinh nodes that level adds:
        quantile(s) and quantile_sf(s) for s = tanh_sinh_levels(level),
        nan where the map has left the open support. Memoised per
        instance, so each level's gamma inverse runs once."""
        memo = self._abscissae
        if level not in memo:
            s = tanh_sinh_levels(level)
            memo[level] = (self._inside(self.quantile(s)), self._inside(self.quantile_sf(s)))
        return memo[level]

    def _base_nodes(self, level):
        """The same on the base's own quantile map, u = G1(x):
        base.quantile(s) and base.isf(s), memoised per instance in a
        dict of its own."""
        memo = self._base_abscissae
        if level not in memo:
            s = tanh_sinh_levels(level)
            memo[level] = (self._inside(self.base.quantile(s)), self._inside(self.base.isf(s)))
        return memo[level]

    def _expect(self, f, what, per_component=False):
        """E f(X) = integral of f(quantile(u)) du over (0, 1), by
        quadrature.tanh_sinh split at the median: the head maps its
        nodes through quantile(u), the tail through quantile_sf(1 - u).

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
        DivergenceError or NumericalError that made it nan. For a scalar
        r a non-integrable tau raises DivergenceError naming (m, eta, r),
        and an unresolved one NumericalError.
        """
        m = _validate_order(m, "tau")
        eta = float(eta)
        r_vec = np.atleast_1d(np.asarray(r, dtype=float))
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

        The integral is E h^{eta-1}(X), computed in probability space.
        eta must be positive and different from 1 (the Shannon limit is
        out of scope).
        """
        eta = _validate_renyi_order(eta, "renyi_entropy")
        p = eta - 1.0

        def f(x):
            with np.errstate(over="ignore", under="ignore"):
                return np.exp(p * self.log_pdf(x))

        try:
            integral = self._expect(f, f"renyi_entropy(eta={eta:.6g})")
        except DivergenceError as exc:
            raise DivergenceError(
                f"renyi entropy undefined for eta={eta:.6g}: "
                "the integral of h^eta diverges"
            ) from exc
        if not integral > 0.0:
            raise NumericalError(
                f"renyi_entropy(eta={eta:.6g}): integral evaluated to {integral:.3g}"
            )
        return math.log(integral) / (1.0 - eta)

    # ---------------- formal series evaluators ----------------

    def _tau_inner(self, k, ctrl, m, eta, log_pref, s_binom, table):
        """One k-shell of a tau-based double sum.

        Terms are (-1)^(k+j) exp(log_pref) C(s_binom, j) times column j,
        the table's column at offset j - k (see _tau_table), truncated by
        _truncate_inner. A block of j asks tau, in one call, only for the
        offsets the table lacks, and reads its values back by slicing.
        The first j whose tau is nan aborts the whole evaluation via the
        note channel, unless the truncation stopped before it. No
        truncation stops before j = 0, so column j = 0 is ruled on first,
        alone: where it is nan the shell aborts without integrating a
        block. Both series' r grows with j, so column 0 is the most
        singular one, and that is where their shells abort.
        """
        r, values, verdicts, done = table
        first = ctrl.k_max - 1 - k  # the table index of this shell's j = 0

        def columns(start, stop):
            i, n = first + start, first + min(stop, ctrl.j_max)
            todo = np.flatnonzero(~done[i:n]) + i
            if todo.size:
                errors = []
                values[todo] = self.tau(m, eta, r[todo], errors_out=errors)
                done[todo] = True
                for t in np.flatnonzero(np.isnan(values[todo])):
                    verdicts[todo[t]] = errors[t]
            return values[i:n]

        if np.isnan(columns(0, 1)[0]):
            return 0.0, 1, False, _tau_note(k, 0, m, eta, r[first], verdicts[first])
        coef = _signed_binomial(k, log_pref, s_binom, ctrl.j_max)
        terms = np.empty(0)
        for start in range(0, ctrl.j_max, _TAU_BLOCK):
            tau = columns(start, start + _TAU_BLOCK)
            bad = np.flatnonzero(np.isnan(tau))
            good = bad[0] if bad.size else tau.size
            with np.errstate(over="ignore", invalid="ignore"):
                terms = np.concatenate((terms, coef[start:start + good] * tau[:good]))
            partial, used, ok = _truncate_inner(terms, ctrl)
            if ok:
                return partial, used, True, None
            if bad.size:
                j = start + int(bad[0])
                note = _tau_note(k, j, m, eta, r[first + j], verdicts[first + j])
                return 0.0, j + 1, False, note
        return partial, used, False, None

    def _tau_series(self, ctrl, m, eta, c, shell):
        """The double sum behind moment_series and renyi_series: shell k,
        with (log_pref, s_binom) = shell(k), has terms (-1)^(k+j)
        exp(log_pref) C(s_binom, j) tau(m, eta, (j - k) - c). Column j of
        shell k is the column at offset j - k of one table, which every
        shell of the evaluation reads, so each offset is integrated once.
        """
        table = _tau_table(ctrl, c)
        return _sum_shells(
            lambda k: self._tau_inner(k, ctrl, m, eta, *shell(k), table), ctrl)

    def moment_series(self, m, ctrl=None):
        """Formal double-sum expansion of the raw moment of order m.

        Mirrors the tau-based expansion term for term; the quadrature
        path is authoritative. converged=False results carry a
        diagnostic (shell growth, non-integrable tau, or truncation).
        Shell k's column j takes tau at r = (j - k) - (alpha + 1), the
        table column at the integer offset j - k (see _tau_series).
        """
        m = _validate_order(m, "moment_series")
        a, b = self.alpha, self.beta

        def shell(k):
            return (a + k) * math.log(b) - log_gamma(k + 1.0) - log_gamma(a), a + k - 1.0

        return self._tau_series(ctrl or DEFAULT_CONTROL, m, 0.0, a + 1.0, shell)

    def central_moment_series(self, m, ctrl=None):
        """Binomial recombination of series raw moments (all-series path).

        The zeroth raw moment is 1 by normalization and is substituted
        exactly, as in central_moment_quadrature; its own series is
        formal at every parameter. Convergence requires the raw-moment
        series of every order 1..m to have converged.
        """
        m = _validate_order(m, "central_moment_series")
        ctrl = ctrl or DEFAULT_CONTROL
        parts = [self.moment_series(i, ctrl) for i in range(1, m + 1)]
        mus = [1.0] + [p.value for p in parts]
        mu = mus[1] if m else 0.0
        value = math.fsum(math.comb(m, r) * (-mu) ** r * mus[m - r] for r in range(m + 1))
        used = tuple(max((p.terms_used[i] for p in parts), default=0) for i in (0, 1))
        bad = next((i for i, p in enumerate(parts, 1) if not p.converged), None)
        if bad is not None:
            return SeriesResult(
                value, used, False,
                f"the order-{bad} raw-moment series did not converge: "
                f"{parts[bad - 1].diagnostic}",
            )
        return SeriesResult(value, used, True, "")

    def mgf_series(self, t, ctrl=None):
        """Formal triple-sum mgf: sum over orders m of t^m/m! times the
        moment expansion. Formal at every parameter: the order-0
        component's (k = 0, j = 0) term needs tau(0, 0, -(alpha + 1)),
        the integral of u^-(alpha+1) over (0, 1), which diverges for
        every base and every alpha > 0, so the result is that
        component's failure, with a nan value."""
        t = _validate_t(t, "mgf_series")
        ctrl = ctrl or DEFAULT_CONTROL
        self._check_mgf_domain(t)
        return self._exp_series(ctrl)

    def cf_series(self, t, ctrl=None):
        """Formal triple-sum characteristic function, formal at every
        parameter for the reason mgf_series gives: the order-0
        component fails, and the value is nan."""
        _validate_t(t, "cf_series")
        return self._exp_series(ctrl or DEFAULT_CONTROL)

    def _exp_series(self, ctrl):
        """The order-0 verdict that ends every order sum of the mgf/cf."""
        part = self.moment_series(0, ctrl)
        return SeriesResult(
            math.nan, part.terms_used, False, f"order-0 component failed: {part.diagnostic}"
        )

    def renyi_series(self, eta, ctrl=None):
        """Formal expansion of the order-eta entropy via tau functionals.

        The result's value is the transformed entropy log(S)/(1 - eta),
        nan when the inner sum is not a positive finite number. Shell
        k's column j takes tau at r = (j - k) - eta (alpha + 1), the
        table column at the integer offset j - k, as in moment_series.
        """
        eta = _validate_renyi_order(eta, "renyi_series")
        a, b = self.alpha, self.beta

        def shell(k):
            log_pref = k * math.log(eta) + (eta * a + k) * math.log(b) - log_gamma(k + 1.0)
            return log_pref - eta * log_gamma(a), eta * (a - 1.0) + k

        raw = self._tau_series(ctrl or DEFAULT_CONTROL, 0, eta - 1.0, eta * (a + 1.0), shell)
        return _renyi_result(raw, eta)

    def cdf_series(self, x, ctrl=None):
        """Formal power-in-G1 expansion of the cdf; diagnostic path only.

        Term-by-term integration of the density expansion fixes H only
        up to its integration constant: at the upper support end every
        k-shell's inner sum telescopes to B(-s-1, s+1) = 0, so where the
        expansion converges it sums to cdf(x) - 1, not cdf(x). The value
        is reported as summed; callers compare against cdf(x) - 1.

        Refuses integer alpha, where the coefficient 1/(j - alpha - k)
        hits a pole; the Q-based cdf is always the production route.
        """
        if float(self.alpha).is_integer():
            raise ValueError(
                "cdf_series is undefined at integer alpha (pole at j = alpha + k); "
                "use cdf"
            )
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
