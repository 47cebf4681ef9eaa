"""Survival-odds gamma distribution on an exponential base, in closed form.

With an Exp(lam) base the odds transform collapses to
w(x) = e^{-lam x} / (1 - e^{-lam x}) = 1/(e^{lam x} - 1). OEGammaDist is
the GammaRatioDist over that base and overrides only what has a closed
form here: the odds, the log-density, the sampler, and the double-sum
expansions whose inner terms are available analytically, which makes
them fast enough to push to very deep truncations. Everything else
(cdf, pdf and hazard through the odds and log-density, quantiles with
their log-space deep tail, the memoised quadrature moments, mgf, cf,
entropy and tau) is the family's own code. ``as_family()`` builds the
same law through the generic construction, as an independent reference.

The entropy expansion is evaluated exactly as displayed even though it
disagrees with direct quadrature of the density; the result carries a
diagnostic quantifying the discrepancy rather than silently correcting
the display.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .base import BaseDistribution, make_exponential
from .errors import DataError, DivergenceError, NumericalError
from .family import (
    DEFAULT_CONTROL,
    GammaRatioDist,
    SeriesResult,
    _as_float_array,
    _log_gamma_variates,
    _restore,
    _running_binomial,
    _sum_shells,
    _truncate_inner,
    _validate_order,
)
from .specfun import digamma, log_gamma

__all__ = ["OEGammaDist", "oe_loglik_and_score"]

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


@dataclass(frozen=True)
class OEGammaDist(GammaRatioDist):
    """Odds-gamma law with Exp(lam) base: closed maps plus its own expansions.

    Parameterised by the gamma shape alpha, the gamma rate beta applied
    to the odds, and the exponential rate lam of the base. All three
    must be strictly positive and finite. The base is derived from lam.
    """

    base: BaseDistribution = field(init=False, repr=False, compare=False)
    lam: float

    def __post_init__(self):
        for name in ("alpha", "beta", "lam"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        object.__setattr__(self, "base", make_exponential(self.lam))

    def as_family(self):
        """The same law built through the generic construction."""
        return GammaRatioDist(self.alpha, self.beta, self.base)

    # -- closed-form maps ------------------------------------------------

    def odds(self, x):
        """w(x) = 1/(e^{lam x} - 1); +inf for x <= 0, 0 where expm1 overflows.

        The comparisons are written so that nan falls through as nan.
        """
        x_arr, scalar = _as_float_array(x)
        below = x_arr <= 0.0
        with np.errstate(over="ignore", divide="ignore"):
            w = np.where(below, np.inf, 1.0 / np.expm1(self.lam * np.where(below, 1.0, x_arr)))
        return _restore(w, scalar)

    def log_pdf(self, x):
        x_arr, scalar = _as_float_array(x)
        below = x_arr <= 0.0  # false for nan, which falls through as nan
        y = self.lam * np.where(below, 1.0, x_arr)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            out = (
                math.log(self.lam)
                + self.alpha * math.log(self.beta)
                - log_gamma(self.alpha)
                - self.alpha * y
                - (self.alpha + 1.0) * _log1mexp(y)
                - self.beta * (1.0 / np.expm1(y))
            )
        out = np.where(below, -np.inf, out)
        return _restore(out, scalar)

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

    # -- expansions specific to the exponential base ----------------------

    def _sum_analytic_shells(self, ctrl, terms_of):
        """Double sum whose k-shell inner terms are terms_of(K, logs).

        After rewriting the signed binomial, the inner coefficient is
        C(k+alpha+j, j) > 0, so each shell is a positive series scaled
        by (-1)^k. logs is the log of that coefficient times the shared
        prefactor, and K = k + alpha + j.
        """
        a = self.alpha
        j = np.arange(ctrl.j_max, dtype=float)
        log_j_fact = special.gammaln(j + 1.0)

        def inner(k):
            kk = k + a + j
            logs = (
                (k + a) * math.log(self.beta)
                - log_gamma(k + 1.0)
                - log_gamma(a)
                + special.gammaln(kk + 1.0)
                - log_j_fact
                - special.gammaln(k + a + 1.0)
            )
            with np.errstate(over="ignore", under="ignore"):
                terms = terms_of(kk, logs)
            val, j_used, ok = _truncate_inner(terms, ctrl)
            sign = -1.0 if k % 2 else 1.0
            return sign * val, j_used, ok, None

        return _sum_shells(inner, ctrl)

    def moment_series(self, m, ctrl=None):
        """Double-sum raw moment of order m.

        Inner terms carry Gamma(m+1)/(lam K)^{m+1}; they decay only
        geometrically through the binomial tail, so deep j truncations
        (thousands of terms) are routinely needed and cheap here.
        """
        m = _validate_order(m, "moment_series")
        log_lam, lg_m = math.log(self.lam), log_gamma(m + 1.0)
        return self._sum_analytic_shells(
            ctrl or DEFAULT_CONTROL,
            lambda kk, logs: np.exp(logs + log_lam + lg_m - (m + 1.0) * np.log(self.lam * kk)),
        )

    def mgf_series(self, t, ctrl=None):
        """Double-sum mgf: inner terms end in 1/(lam K - t), t < alpha lam."""
        t = float(t)
        if t >= self.alpha * self.lam:
            raise DivergenceError(
                f"mgf undefined for t >= alpha * lam = {self.alpha * self.lam:.6g}, "
                f"got t = {t:.6g}"
            )
        log_lam = math.log(self.lam)
        return self._sum_analytic_shells(
            ctrl or DEFAULT_CONTROL,
            lambda kk, logs: np.exp(logs + log_lam - np.log(self.lam * kk - t)),
        )

    def cf_series(self, t, ctrl=None):
        """Double-sum characteristic function; value is complex."""
        t = float(t)
        log_lam = math.log(self.lam)

        def terms_of(kk, logs):
            lam_kk = self.lam * kk
            return np.exp(logs + log_lam) * (lam_kk + 1j * t) / (lam_kk * lam_kk + t * t)

        return self._sum_analytic_shells(ctrl or DEFAULT_CONTROL, terms_of)

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
        j = np.arange(float(ctrl.j_max))

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
            with np.errstate(over="ignore", invalid="ignore"):
                terms = (
                    sign_k * pref * (-1.0) ** j
                    * _running_binomial(eta * (a - 1.0) + k, ctrl.j_max)
                    / (lam * (a + k + j))
                )
            return *_truncate_inner(terms, ctrl), None

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
    # a tiny lam makes w and x w^2 overflow; the fit rejects inf
    with np.errstate(over="ignore", under="ignore"):
        w = 1.0 / np.expm1(y)
        l1m = _log1mexp(y)
        xw = x * w
        sum_w = float(np.sum(w))
        sum_xw = float(np.sum(xw))
        sum_xw1w = float(np.sum(xw * (1.0 + w)))
    sum_x = float(np.sum(x))
    sum_l1m = float(np.sum(l1m))
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
