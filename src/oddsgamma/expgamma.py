"""Survival-odds gamma distribution on an exponential base, in closed form.

With an Exp(lam) base the odds transform collapses to
w(x) = e^{-lam x} / (1 - e^{-lam x}) = 1/(e^{lam x} - 1), so the cdf,
log-density, hazard and sampler have direct expressions with no generic
plumbing in the hot path. Quantiles use the generic family's gamma
inverse, whose deep tail runs in log space. The class also carries the
double-sum expansions specific to this base: their inner terms are
available analytically, which makes them fast enough to push to very
deep truncations. ``as_family()`` returns the equivalent generic object
for anything not specialised here (tau, expectations of arbitrary
functions); the two constructions agree to near machine precision and
the test-suite pins that.

The entropy expansion is evaluated exactly as displayed even though it
disagrees with direct quadrature of the density; the result carries a
diagnostic quantifying the discrepancy rather than silently correcting
the display.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .base import make_exponential
from .errors import DataError, DivergenceError, NumericalError
from .family import (
    DEFAULT_CONTROL,
    GammaRatioDist,
    SeriesResult,
    _as_float_array,
    _log_gamma_variates,
    _recombine_central,
    _restore,
    _sum_shells,
    _validate_order,
)
from .specfun import digamma, log_gamma

__all__ = ["OEGammaDist", "oe_loglik_and_score"]

_TINY = np.finfo(float).tiny
_LN2 = math.log(2.0)


def _log1mexp(y):
    """log(1 - e^{-y}) for y > 0, switching formula at y = ln 2."""
    y = np.asarray(y, dtype=float)
    small = y <= _LN2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            small,
            np.log(-np.expm1(-np.where(small, y, 1.0))),
            np.log1p(-np.exp(-np.where(small, 1.0, y))),
        )
    return out


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
            return complex(csum[stop]) if np.iscomplexobj(csum) else float(csum[stop]), stop + 1, True
    return (
        complex(csum[-1]) if np.iscomplexobj(csum) else float(csum[-1]),
        int(terms.size),
        False,
    )


@dataclass(frozen=True)
class OEGammaDist:
    """Odds-gamma law with Exp(lam) base: closed maps plus its own expansions.

    Parameterised by the gamma shape alpha, the gamma rate beta applied
    to the odds, and the exponential rate lam of the base. All three
    must be strictly positive and finite.
    """

    alpha: float
    beta: float
    lam: float
    _family: GammaRatioDist = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("alpha", "beta", "lam"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        object.__setattr__(
            self, "_family",
            GammaRatioDist(self.alpha, self.beta, make_exponential(self.lam)),
        )

    @property
    def support(self):
        return (0.0, math.inf)

    def as_family(self):
        """The same law built through the generic construction."""
        return self._family

    # -- closed-form maps ------------------------------------------------

    def _w(self, x):
        # survival odds of the base; overflow of expm1 gives w = 0 exactly
        with np.errstate(over="ignore", divide="ignore"):
            return 1.0 / np.expm1(self.lam * x)

    def cdf(self, x):
        x_arr, scalar = _as_float_array(x)
        pos = x_arr > 0.0
        w = np.where(pos, self._w(np.where(pos, x_arr, 1.0)), np.inf)
        with np.errstate(under="ignore"):
            out = special.gammaincc(self.alpha, self.beta * w)
        return _restore(out, scalar)

    def log_pdf(self, x):
        x_arr, scalar = _as_float_array(x)
        pos = x_arr > 0.0
        xs = np.where(pos, x_arr, 1.0)
        y = self.lam * xs
        with np.errstate(over="ignore", under="ignore"):
            out = (
                math.log(self.lam)
                + self.alpha * math.log(self.beta)
                - log_gamma(self.alpha)
                - self.alpha * y
                - (self.alpha + 1.0) * _log1mexp(y)
                - self.beta * self._w(xs)
            )
        out = np.where(pos, out, -np.inf)
        return _restore(out, scalar)

    def pdf(self, x):
        with np.errstate(under="ignore", over="ignore"):
            out = np.exp(self.log_pdf(x))
        return out

    def hazard(self, x):
        x_arr, scalar = _as_float_array(x)
        if np.any(~(x_arr > 0.0)):
            raise ValueError("hazard is defined only strictly inside the support (x > 0)")
        with np.errstate(under="ignore"):
            surv = special.gammainc(self.alpha, self.beta * self._w(x_arr))
        if np.any(surv < 1e-300):
            raise NumericalError("hazard overflow: 1 - cdf fell below 1e-300")
        with np.errstate(under="ignore"):
            out = np.exp(self.log_pdf(x_arr)) / surv
        return _restore(out, scalar)

    # -- inverse maps and sampling ---------------------------------------

    def quantile(self, p):
        return self._family.quantile(p)

    def quantile_sf(self, s):
        return self._family.quantile_sf(s)

    def sample(self, n, rng=None):
        """n draws via the gamma representation: X = log(1 + 1/T)/lam
        with T ~ Gamma(alpha, rate beta).

        T is drawn in log space and mapped as softplus(-ln T)/lam, so
        draws of T below double range keep their exact law.
        """
        n = int(n)
        if n < 0:
            raise ValueError(f"sample size must be >= 0, got {n}")
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        log_t = _log_gamma_variates(rng, self.alpha, n) - math.log(self.beta)
        return np.logaddexp(0.0, -log_t) / self.lam

    # -- quadrature-backed functionals (generic machinery) ----------------

    def moment_quadrature(self, m):
        return self._family.moment_quadrature(m)

    def central_moment_quadrature(self, m):
        return self._family.central_moment_quadrature(m)

    def general_coefficient(self, m):
        return self._family.general_coefficient(m)

    def mgf(self, t):
        return self._family.mgf(t)

    def cf(self, t):
        return self._family.cf(t)

    def renyi_entropy(self, eta):
        return self._family.renyi_entropy(eta)

    # -- expansions specific to the exponential base ----------------------

    def _inner_log_common(self, k, ctrl):
        """Log-magnitude pieces shared by every inner sum at shell k.

        After rewriting the signed binomial, the inner coefficient is
        C(k+alpha+j, j) > 0, so each shell is a positive series scaled
        by (-1)^k. Returns (K, logs) with K = k + alpha + j.
        """
        a = self.alpha
        j = np.arange(ctrl.j_max, dtype=float)
        kk = k + a + j
        logs = (
            (k + a) * math.log(self.beta)
            - log_gamma(k + 1.0)
            - log_gamma(a)
            + special.gammaln(kk + 1.0)
            - special.gammaln(j + 1.0)
            - special.gammaln(k + a + 1.0)
        )
        return kk, logs

    def moment_series(self, m, ctrl=None):
        """Double-sum raw moment of order m.

        Inner terms carry Gamma(m+1)/(lam K)^{m+1}; they decay only
        geometrically through the binomial tail, so deep j truncations
        (thousands of terms) are routinely needed and cheap here.
        """
        m = _validate_order(m, "moment_series")
        ctrl = ctrl or DEFAULT_CONTROL
        lg_m = log_gamma(m + 1.0)
        log_lam = math.log(self.lam)

        def inner(k):
            kk, logs = self._inner_log_common(k, ctrl)
            logs = logs + log_lam + lg_m - (m + 1.0) * np.log(self.lam * kk)
            with np.errstate(over="ignore", under="ignore"):
                terms = np.exp(logs)
            val, j_used, ok = _truncate_inner(terms, ctrl)
            sign = -1.0 if k % 2 else 1.0
            return sign * val, j_used, ok, None

        return _sum_shells(inner, ctrl)

    def central_moment_series(self, m, ctrl=None):
        """Centred moment by binomial recombination of series raw moments."""
        m = _validate_order(m, "central_moment_series")
        ctrl = ctrl or DEFAULT_CONTROL
        parts = [self.moment_series(i, ctrl) for i in range(m + 1)]
        return _recombine_central(parts, m)

    def mgf_series(self, t, ctrl=None):
        """Double-sum mgf: inner terms end in 1/(lam K - t), t < alpha lam."""
        t = float(t)
        if t >= self.alpha * self.lam:
            raise DivergenceError(
                f"mgf undefined for t >= alpha * lam = {self.alpha * self.lam:.6g}, "
                f"got t = {t:.6g}"
            )
        ctrl = ctrl or DEFAULT_CONTROL
        log_lam = math.log(self.lam)

        def inner(k):
            kk, logs = self._inner_log_common(k, ctrl)
            logs = logs + log_lam - np.log(self.lam * kk - t)
            with np.errstate(over="ignore", under="ignore"):
                terms = np.exp(logs)
            val, j_used, ok = _truncate_inner(terms, ctrl)
            sign = -1.0 if k % 2 else 1.0
            return sign * val, j_used, ok, None

        return _sum_shells(inner, ctrl)

    def cf_series(self, t, ctrl=None):
        """Double-sum characteristic function; value is complex."""
        t = float(t)
        ctrl = ctrl or DEFAULT_CONTROL
        log_lam = math.log(self.lam)

        def inner(k):
            kk, logs = self._inner_log_common(k, ctrl)
            with np.errstate(over="ignore", under="ignore"):
                mag = np.exp(logs + log_lam)
                lam_kk = self.lam * kk
                terms = mag * (lam_kk + 1j * t) / (lam_kk * lam_kk + t * t)
            val, j_used, ok = _truncate_inner(terms, ctrl)
            sign = -1.0 if k % 2 else 1.0
            return sign * val, j_used, ok, None

        return _sum_shells(inner, ctrl)

    def renyi_series(self, eta, ctrl=None):
        """Entropy double sum evaluated exactly as displayed.

        The displayed inner denominator drops the eta scaling that
        direct integration of the density^eta produces, so the summed
        value generally disagrees with renyi_entropy(); when the gap
        exceeds 1e-3 the diagnostic records it. The quadrature value is
        the authoritative one.
        """
        eta = float(eta)
        if not (eta > 0.0) or eta == 1.0:
            raise ValueError(f"renyi order must be positive and != 1, got {eta}")
        ctrl = ctrl or DEFAULT_CONTROL
        a, b, lam = self.alpha, self.beta, self.lam
        log_eta = math.log(eta)

        def inner(k):
            log_pref = (
                eta * math.log(lam)
                + k * log_eta
                + (eta * a + k) * math.log(b)
                - log_gamma(k + 1.0)
                - eta * log_gamma(a)
            )
            with np.errstate(over="ignore", under="ignore"):
                pref = float(np.exp(log_pref))
            if not math.isfinite(pref):
                return math.nan, 0, False, (
                    f"shell k={k} prefactor overflowed; the display is not "
                    f"summable at these parameters"
                )
            sign_k = -1.0 if k % 2 else 1.0
            s_binom = eta * (a - 1.0) + k
            binom = 1.0
            partial = 0.0
            consec = 0
            for j in range(ctrl.j_max):
                if j > 0:
                    binom *= (s_binom - (j - 1.0)) / j
                term = sign_k * pref * ((-1.0) ** j) * binom / (lam * (a + k + j))
                partial += term
                if abs(term) <= ctrl.tail_tol * max(abs(partial), _TINY):
                    consec += 1
                    if consec >= 2 and j >= 1:
                        return partial, j + 1, True, None
                else:
                    consec = 0
            return partial, ctrl.j_max, False, None

        raw = _sum_shells(inner, ctrl)
        if not math.isfinite(raw.value) or raw.value <= 0.0:
            diag = raw.diagnostic or (
                f"summed value {raw.value:.6g} has no logarithm; the display "
                f"is inconsistent at these parameters"
            )
            return SeriesResult(math.nan, raw.terms_used, False, diag)
        value = math.log(raw.value) / (1.0 - eta)
        diag = raw.diagnostic
        try:
            quad = self.renyi_entropy(eta)
        except (DivergenceError, NumericalError) as exc:
            note = f"quadrature cross-check unavailable: {exc}"
            diag = f"{diag}; {note}" if diag else note
        else:
            gap = abs(value - quad)
            if gap > 1e-3:
                note = (
                    f"series value {value:.6g} differs from the quadrature "
                    f"entropy {quad:.6g} by {gap:.3g}; prefer the quadrature value"
                )
                diag = f"{diag}; {note}" if diag else note
        return SeriesResult(value, raw.terms_used, raw.converged, diag)


def oe_loglik_and_score(data, alpha, beta, lam):
    """Log-likelihood of the exponential-base law and its exact gradient.

    Gradient components (n observations, w_i the base survival odds):

      d/d alpha:  n ln beta - n psi(alpha) - lam sum x_i - sum ln(1 - e^{-lam x_i})
      d/d beta :  n alpha / beta - sum w_i
      d/d lam  :  n/lam - alpha sum x_i - (alpha+1) sum x_i w_i + beta sum x_i w_i (1 + w_i)

    using x w (1 + w) = x e^{-lam x}/(1 - e^{-lam x})^2. Raises DataError
    for empty input or nonpositive observations.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    if x.size == 0:
        raise DataError("log-likelihood requires at least one observation")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise DataError("observations must be finite and strictly positive")
    if not (alpha > 0.0 and beta > 0.0 and lam > 0.0):
        raise ValueError("alpha, beta, lam must all be strictly positive")
    n = x.size
    y = lam * x
    with np.errstate(over="ignore", under="ignore"):
        w = 1.0 / np.expm1(y)
        l1m = _log1mexp(y)
        xw = x * w
    sum_x = float(np.sum(x))
    sum_w = float(np.sum(w))
    sum_l1m = float(np.sum(l1m))
    sum_xw = float(np.sum(xw))
    sum_xw1w = float(np.sum(xw * (1.0 + w)))
    ll = (
        n * (math.log(lam) + alpha * math.log(beta) - log_gamma(alpha))
        - alpha * lam * sum_x
        - (alpha + 1.0) * sum_l1m
        - beta * sum_w
    )
    d_alpha = n * math.log(beta) - n * digamma(alpha) - lam * sum_x - sum_l1m
    d_beta = n * alpha / beta - sum_w
    d_lam = (
        n / lam
        - alpha * sum_x
        - (alpha + 1.0) * sum_xw
        + beta * sum_xw1w
    )
    return ll, np.array([d_alpha, d_beta, d_lam])
