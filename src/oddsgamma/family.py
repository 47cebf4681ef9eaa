"""The (1-G)/G gamma family over an arbitrary base distribution.

A GammaRatioDist feeds the survival odds w(x) = (1 - G1(x))/G1(x) of a
base distribution through the upper tail of a Gamma(alpha, rate beta):
H(x) = Q(alpha, beta * w(x)). Closed forms cover cdf/pdf/hazard/quantile
and exact sampling; expectations (moments, mgf, cf, entropy) are
computed by adaptive quadrature in probability space with divergence
detection. The family's double-series expansions are exposed as formal
evaluators that report their own convergence honestly; quadrature is
authoritative whenever the two disagree.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .base import BaseDistribution
from .errors import DivergenceError, NumericalError
from .quadrature import windowed_quad
from .specfun import (
    _inv_reg_lower_gamma_vec,
    _inv_reg_upper_gamma_vec,
    _reg_upper_gamma_vec,
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    log_gamma,
)

__all__ = ["GammaRatioDist", "SeriesControl", "SeriesResult"]

_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)
_QUAD_TOL = 0.5e-10  # per half-axis; the two halves add to 1e-10
# inner terms j per tau quadrature; deeper shells go in j-ordered blocks
_TAU_BLOCK = 256


@dataclass(frozen=True)
class SeriesControl:
    """Truncation and honesty knobs for the formal series evaluators.

    k_max and j_max are term counts: shells k = 0..k_max-1 with inner
    terms j = 0..j_max-1 are eligible. tail_tol is the relative size at
    which trailing terms count as negligible; divergence_ratio is the
    shell-over-shell growth factor that fires the divergence flag.
    """

    k_max: int = 60
    j_max: int = 200
    tail_tol: float = 1e-10
    divergence_ratio: float = 10.0

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError(f"k_max must be at least 1, got {self.k_max}")
        if self.j_max < 1:
            raise ValueError(f"j_max must be at least 1, got {self.j_max}")
        if not self.tail_tol > 0.0:
            raise ValueError(f"tail_tol must be positive, got {self.tail_tol}")
        if not self.divergence_ratio > 1.0:
            raise ValueError(
                f"divergence_ratio must exceed 1, got {self.divergence_ratio}"
            )


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


def _log_gamma_variates(rng, alpha, n):
    """Logs of n Gamma(alpha, 1) draws from a numpy Generator.

    Squeeze-rejection sampler (Marsaglia-Tsang): d = a - 1/3,
    c = 1/sqrt(9d), accept d*(1+c*z)^3 when ln u < z^2/2 + d - d*v
    + d*ln v. Shapes below 1 are boosted through Gamma(alpha+1) times
    an independent uniform to the power 1/alpha, added in log space,
    ln G = ln G(alpha+1) + ln(U)/alpha, because U^(1/alpha) underflows
    for a sizeable share of draws once alpha is small.
    """
    if n == 0:
        return np.empty(0)
    log_boost = None
    a = alpha
    if alpha < 1.0:
        with np.errstate(divide="ignore"):
            log_boost = np.log(rng.random(n)) / alpha
        a = alpha + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        z = rng.standard_normal(todo.size)
        v = (1.0 + c * z) ** 3
        u = rng.random(todo.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = (v > 0.0) & (np.log(u) < 0.5 * z * z + d - d * v + d * np.log(v))
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    out = np.log(out)
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
            and mag > ctrl.divergence_ratio * prev_mag
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


def _running_binomial(s, n):
    """C(s, j) for j = 0..n-1 as the running product of (s - j + 1)/j."""
    j = np.arange(1.0, n)
    return np.cumprod(np.concatenate(([1.0], (s - (j - 1.0)) / j)))


def _validate_order(m, who):
    if isinstance(m, float) and not m.is_integer():
        raise ValueError(f"{who} requires integer order, got {m}")
    m = int(m)
    if m < 0:
        raise ValueError(f"{who} requires order >= 0, got {m}")
    return m


def _recombine_central(parts, m):
    """Binomial recombination of series raw moments into a central one.

    parts[i] is the SeriesResult for the raw moment of order i,
    i = 0..m. Convergence requires every component to have converged.
    """
    mu = parts[1].value if m >= 1 else 0.0
    value = math.fsum(
        math.comb(m, r) * (-mu) ** r * parts[m - r].value for r in range(m + 1)
    )
    k_used = max(p.terms_used[0] for p in parts)
    j_used = max(p.terms_used[1] for p in parts)
    bad = next((p for p in parts if not p.converged), None)
    if bad is not None:
        return SeriesResult(
            value, (k_used, j_used), False,
            f"a component raw-moment series did not converge: {bad.diagnostic}",
        )
    return SeriesResult(value, (k_used, j_used), True, "")


@dataclass(frozen=True)
class GammaRatioDist:
    """Gamma(alpha, rate beta) pushed through the survival odds of base.

    Raw moments from moment_quadrature are memoised per instance, so the
    central and standardized moments reuse them.
    """

    alpha: float
    beta: float
    base: BaseDistribution
    _raw_moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")

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

        Q is specfun's one upper incomplete gamma; nan gives nan.
        """
        x_arr, scalar = _as_float_array(x)
        w = np.asarray(self.odds(x_arr), dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            val = _reg_upper_gamma_vec(self.alpha, self.beta * w)
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

    def hazard(self, x):
        """h(x) / (1 - H(x)) with the survival computed as P(alpha, beta w).

        The lower regularized gamma is the numerically dominant branch
        near the upper end of the support, where 1 - H underflows first.
        """
        x_arr, scalar = _as_float_array(x)
        lo, hi = self.base.support
        if not np.all((x_arr > lo) & (x_arr < hi)):
            raise ValueError("hazard requires x strictly inside the support")
        w = np.asarray(self.odds(x_arr), dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            surv = special.gammainc(self.alpha, self.beta * w)
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
        """Map odds values back to the base scale on the accurate side.

        Where log_w, the log of the odds, lies below double range and the
        base has a log_isf, x comes from log space: sf = w/(1 + w), so
        ln sf = -softplus(-ln w).
        """
        w = np.atleast_1d(np.asarray(w, dtype=float))
        out = np.empty(w.shape)
        big = w > 1.0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            if big.any():
                out[big] = self.base.quantile(1.0 / (1.0 + w[big]))
            small = ~big
            if small.any():
                out[small] = self.base.isf(w[small] / (1.0 + w[small]))
        if log_w is not None and self.base.log_isf is not None:
            log_w = np.atleast_1d(log_w)
            deep = log_w < _LOG_TINY
            if deep.any():
                out[deep] = self.base.log_isf(-np.logaddexp(0.0, -log_w[deep]))
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
        if scalar:
            g = inv_reg_upper_gamma(self.alpha, p) if upper else inv_reg_lower_gamma(self.alpha, s)
        else:
            g = np.empty(p.shape)
            if upper.any():
                g[upper] = _inv_reg_upper_gamma_vec(self.alpha, p[upper])
            if not upper.all():
                g[~upper] = _inv_reg_lower_gamma_vec(self.alpha, s[~upper])
        w = np.asarray(g, dtype=float) / self.beta
        log_w = None
        if self.base.log_isf is not None and (w < _TINY).any():
            with np.errstate(divide="ignore"):
                log_g = (np.log(s) + special.gammaln(self.alpha + 1.0)) / self.alpha
            log_w = log_g - math.log(self.beta)
        x = self._x_from_w(w, log_w)
        return float(x[0]) if scalar else x

    def sample(self, n, rng):
        """n independent draws, exact in law: X = w^{-1}(T), T ~ Gamma.

        rng is a numpy Generator or an integer seed. T with shape alpha
        and rate beta has P(T >= w(x)) = Q(alpha, beta w(x)) = H(x), so
        mapping T back through the odds inverts the construction without
        any quantile iteration. T is drawn in log space; draws below
        double range map through the base's log_isf, or, for a base
        without one, as T = tiny.
        """
        n = int(n)
        if n < 0:
            raise ValueError(f"sample requires n >= 0, got {n}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        log_t = _log_gamma_variates(rng, self.alpha, n) - math.log(self.beta)
        with np.errstate(under="ignore"):
            t = np.exp(log_t)
        return self._x_from_w(np.maximum(t, _TINY), log_t)

    # ---------------- quadrature expectations ----------------

    def _expect(self, f, what, per_component=False):
        """E f(X) in probability space, split at the median.

        The head integrates f(quantile(u)) du on (0, 1/2], the tail
        f(quantile_sf(s)) ds on (0, 1/2], each with expanding windows
        toward its singular endpoint, so a non-integrable expectation
        raises DivergenceError naming what. f may be vector valued, one
        column per component, and the result is then an array; with
        per_component nothing is raised and the result is (value,
        details), details[i] saying why component i diverged, or "".
        """
        h = windowed_quad(lambda u: f(self.quantile(u)), 0.0, 0.5, "lower", abs_tol=_QUAD_TOL)
        t = windowed_quad(lambda s: f(self.quantile_sf(s)), 0.0, 0.5, "lower", abs_tol=_QUAD_TOL)
        details = [a or b for a, b in zip(np.atleast_1d(t.detail), np.atleast_1d(h.detail))]
        if per_component:
            return h.value + t.value, details
        if any(details):
            raise DivergenceError(f"{what}: {next(d for d in details if d)}")
        return h.value + t.value

    def tau(self, m, eta, r):
        """Integral of x^m g1(x)^eta G1(x)^r dG1 over the support.

        The building block of the family's moment expansions. Evaluated
        in u = G1(x) with windowed adaptive quadrature at both ends,
        absolute tolerance 1e-10. r may be a 1-D array: one
        vector-valued quadrature then gives the integral for every
        entry, nan where it is not integrable. For a scalar r detected
        non-integrability raises a DivergenceError naming (m, eta, r).
        """
        m = _validate_order(m, "tau")
        eta = float(eta)
        r_vec = np.atleast_1d(np.asarray(r, dtype=float))
        base = self.base

        def integrand(x, u):
            with np.errstate(
                divide="ignore", over="ignore", under="ignore", invalid="ignore"
            ):
                val = np.multiply.outer(np.log(u), r_vec)
                if eta != 0.0:
                    val += (eta * np.asarray(base.log_pdf(x), dtype=float))[:, None]
                np.exp(val, out=val)
                if m:
                    val *= (x**m)[:, None]
            return val

        h = windowed_quad(lambda u: integrand(base.quantile(u), u), 0.0, 0.5, "lower",
                          abs_tol=_QUAD_TOL)
        t = windowed_quad(lambda s: integrand(base.isf(s), 1.0 - s), 0.0, 0.5, "lower",
                          abs_tol=_QUAD_TOL)
        diverged = h.diverged | t.diverged
        if np.ndim(r) == 0:
            if diverged[0]:
                raise DivergenceError(
                    f"tau(m={m}, eta={eta:.6g}, r={float(r):.6g}) is not integrable: "
                    f"{h.detail[0] or t.detail[0]}"
                )
            return float(h.value[0] + t.value[0])
        return np.where(diverged, np.nan, h.value + t.value)

    def moment_quadrature(self, m):
        """Raw moment E X^m by adaptive quadrature; the authoritative path.

        A miss integrates every order from min(m, 1) to max(m, 4) in one
        vector-valued pass and memoises each order that converged; a
        divergent order is not memoised, so it raises DivergenceError
        every time.
        """
        return self._raw_moment(_validate_order(m, "moment_quadrature"))

    def _raw_moment(self, m, top=0):
        # a miss integrates orders min(m, 1)..max(m, top, 4) in one pass
        memo = self._raw_moments
        if m not in memo:
            orders = range(min(m, 1), max(m, top, 4) + 1)
            powers = np.array(orders, dtype=float)
            values, details = self._expect(
                lambda x: x[:, None] ** powers, "raw moments", per_component=True
            )
            for k, value, detail in zip(orders, values, details):
                if not detail:
                    memo.setdefault(k, float(value))
            if m not in memo:
                detail = details[m - orders[0]]
                raise DivergenceError(f"moment of order {m} does not exist: {detail}")
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
        windowed integration detects divergence adaptively.
        """
        t = float(t)
        if t == 0.0:
            return 1.0
        self._check_mgf_domain(t)

        def f(x):
            with np.errstate(over="ignore", under="ignore"):
                return np.exp(t * x)

        return self._expect(f, f"mgf({t:.6g}) integral diverges")

    def cf(self, t):
        """Characteristic function as the pair (E cos tX, E sin tX)."""
        t = float(t)
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
        eta = float(eta)
        if not eta > 0.0 or eta == 1.0:
            raise ValueError(f"renyi_entropy requires eta > 0, eta != 1, got {eta}")
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

    def _tau_inner(self, k, ctrl, m, eta, r_of_j, log_pref_extra=0.0, eta_pow=None):
        """One k-shell of a tau-based double sum.

        Terms are sign * exp(log prefactor) * binom * tau, with tau taken
        for a block of j at once and truncated by _truncate_inner. The
        first j whose tau is not integrable aborts the whole evaluation
        via the note channel, unless the truncation stopped before it.
        """
        s_binom = (
            eta_pow * (self.alpha - 1.0) + k if eta_pow is not None else self.alpha + k - 1.0
        )
        sign_k = -1.0 if k % 2 else 1.0
        with np.errstate(over="ignore"):
            pref = sign_k * float(np.exp(log_pref_extra))
        j = np.arange(float(ctrl.j_max))
        r = r_of_j(j)
        with np.errstate(over="ignore", invalid="ignore"):
            coef = pref * (-1.0) ** j * _running_binomial(s_binom, ctrl.j_max)
        terms = np.empty(0)
        for start in range(0, ctrl.j_max, _TAU_BLOCK):
            tau = self.tau(m, eta, r[start:start + _TAU_BLOCK])
            bad = np.flatnonzero(np.isnan(tau))
            good = bad[0] if bad.size else tau.size
            with np.errstate(over="ignore", invalid="ignore"):
                terms = np.concatenate((terms, coef[start:start + good] * tau[:good]))
            if terms.size:
                partial, used, ok = _truncate_inner(terms, ctrl)
                if ok:
                    return partial, used, True, None
            if bad.size:
                jb = start + int(bad[0])
                return (
                    0.0,
                    jb + 1,
                    False,
                    f"term (k={k}, j={jb}) needs tau(m={m}, eta={eta:.6g}, "
                    f"r={r[jb]:.6g}), which is not integrable; the printed "
                    "expansion is formal at these parameters",
                )
        return partial, used, False, None

    def moment_series(self, m, ctrl=None):
        """Formal double-sum expansion of the raw moment of order m.

        Mirrors the tau-based expansion term for term; the quadrature
        path is authoritative. converged=False results carry a
        diagnostic (shell growth, non-integrable tau, or truncation).
        """
        m = _validate_order(m, "moment_series")
        ctrl = ctrl or DEFAULT_CONTROL
        a, b = self.alpha, self.beta

        def inner(k):
            log_pref = (a + k) * math.log(b) - log_gamma(k + 1.0) - log_gamma(a)
            return self._tau_inner(
                k, ctrl, m, 0.0, lambda j: j - a - k - 1.0, log_pref_extra=log_pref
            )

        return _sum_shells(inner, ctrl)

    def central_moment_series(self, m, ctrl=None):
        """Binomial recombination of series raw moments (all-series path)."""
        m = _validate_order(m, "central_moment_series")
        ctrl = ctrl or DEFAULT_CONTROL
        parts = [self.moment_series(i, ctrl) for i in range(m + 1)]
        return _recombine_central(parts, m)

    def mgf_series(self, t, ctrl=None):
        """Formal triple-sum mgf: sum over orders of t^m/m! times the
        moment expansion. Inherits every component's honesty flags."""
        t = float(t)
        ctrl = ctrl or DEFAULT_CONTROL
        self._check_mgf_domain(t)
        return self._exp_series(t, ctrl, complex_arg=False)

    def cf_series(self, t, ctrl=None):
        """Formal triple-sum characteristic function; value is complex."""
        return self._exp_series(float(t), ctrl or DEFAULT_CONTROL, complex_arg=True)

    def _exp_series(self, t, ctrl, complex_arg):
        factor = 1j * t if complex_arg else t
        total = 0.0j if complex_arg else 0.0
        fac = 1.0 + 0.0j if complex_arg else 1.0  # factor^m / m!
        k_used = 0
        j_used = 0
        small_run = 0
        components_ok = True
        first_bad = ""
        m_used = 0
        for m in range(171):
            if m > 0:
                fac *= factor / m
            part = self.moment_series(m, ctrl)
            if math.isnan(part.value):
                return SeriesResult(
                    math.nan, (part.terms_used[0], part.terms_used[1]), False,
                    f"order-{m} component failed: {part.diagnostic}",
                )
            if not part.converged and components_ok:
                components_ok = False
                first_bad = f"order-{m} component: {part.diagnostic}"
            term = fac * part.value
            total += term
            m_used = m + 1
            k_used = max(k_used, part.terms_used[0])
            j_used = max(j_used, part.terms_used[1])
            if abs(term) <= ctrl.tail_tol * max(abs(total), _TINY):
                small_run += 1
                if small_run >= 3 and m >= 1:
                    break
            else:
                small_run = 0
        else:
            return SeriesResult(
                total, (k_used, j_used), False,
                f"exponential series cap reached after {m_used} orders",
            )
        if not components_ok:
            return SeriesResult(total, (k_used, j_used), False, first_bad)
        return SeriesResult(total, (k_used, j_used), True, "")

    def renyi_series(self, eta, ctrl=None):
        """Formal expansion of the order-eta entropy via tau functionals.

        The result's value is the transformed entropy log(S)/(1 - eta),
        nan when the inner sum is not positive or not evaluable.
        """
        eta = float(eta)
        if not eta > 0.0 or eta == 1.0:
            raise ValueError(f"renyi_series requires eta > 0, eta != 1, got {eta}")
        ctrl = ctrl or DEFAULT_CONTROL
        a, b = self.alpha, self.beta

        def inner(k):
            log_pref = (
                k * math.log(eta)
                + (eta * a + k) * math.log(b)
                - log_gamma(k + 1.0)
                - eta * log_gamma(a)
            )
            return self._tau_inner(
                k, ctrl, 0, eta - 1.0,
                lambda j: j - eta * (a + 1.0) - k,
                log_pref_extra=log_pref,
                eta_pow=eta,
            )

        raw = _sum_shells(inner, ctrl)
        if math.isnan(raw.value) or raw.value <= 0.0:
            diag = raw.diagnostic or (
                f"inner sum evaluated to {raw.value:.6g}, not a positive number"
            )
            return SeriesResult(math.nan, raw.terms_used, False, diag)
        value = math.log(raw.value) / (1.0 - eta)
        return SeriesResult(value, raw.terms_used, raw.converged, raw.diagnostic)

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
            sign_k = -1.0 if k % 2 else 1.0
            expo = j - a - k
            with np.errstate(over="ignore", invalid="ignore"):
                terms = (
                    sign_k * (-1.0) ** j * _running_binomial(a + k - 1.0, ctrl.j_max)
                    / expo * np.exp(log_pref + expo * ln_g)
                )
            return *_truncate_inner(terms, ctrl), None

        return _sum_shells(inner, ctrl)
