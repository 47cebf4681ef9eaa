"""Survival-odds gamma distribution on an exponential base, in closed form.

With an Exp(lam) base the odds transform collapses to
w(x) = e^{-lam x} / (1 - e^{-lam x}) = 1/(e^{lam x} - 1), which the
base supplies as its own odds map. OEGammaDist is the GammaRatioDist
over that base and overrides only the raw-moment double sum, whose
inner terms are available analytically, which makes it fast enough to
push to very deep truncations. Everything else (the odds, cdf, sf, the
log-density, pdf, hazard, the quantiles and the sampler, the memoised
quadrature moments, mgf, cf, entropy, tau, the mgf, cf and Renyi
series, which are formal at every parameter here, and the series'
argument checks) is the family's own code, reading the base's closed
forms. The quantiles, the draws and the quadrature nodes all map back
to x through the base's exact log_isf, -ln(s)/lam, which reaches
survival levels below double range. ``as_family()`` builds the same law
as a plain GammaRatioDist, whose maps are the same code bit for bit.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .base import BaseDistribution, make_exponential
from .data import _positive_observations
from .family import (
    GammaRatioDist,
    _control,
    _set_positive_param,
    _sum_shells,
    _truncate_inner,
    _validate_order,
)
from .specfun import _log_gamma_vec, _sq_trigamma, digamma, log_gamma

__all__ = ["OEGammaDist", "oe_loglik_and_score"]

_LN2 = math.log(2.0)


def _log1mexp(y):
    """log(1 - e^{-y}) for y > 0, switching formula at y = ln 2. Both
    forms are taken at every y; the one not kept can only divide by
    zero, which is ignored. A scalar y > 0 takes only its own form, by
    the same ufuncs."""
    if np.ndim(y) == 0 and y > 0.0:
        y = float(y)
        return np.log(-np.expm1(-y)) if y <= _LN2 else np.log1p(-np.exp(-y))
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(y <= _LN2, np.log(-np.expm1(-y)), np.log1p(-np.exp(-y)))


@dataclass(frozen=True)
class OEGammaDist(GammaRatioDist):
    """Odds-gamma law with Exp(lam) base: the family plus its own moment series.

    Parameterised by the gamma shape alpha, the gamma rate beta applied
    to the odds, and the exponential rate lam of the base. All three
    must be strictly positive and finite. The base is make_exponential(lam),
    whose closed forms every map reads.
    """

    base: BaseDistribution = field(init=False, repr=False, compare=False)
    lam: float

    def __post_init__(self):
        super().__post_init__()
        _set_positive_param(self, "lam")
        object.__setattr__(self, "base", make_exponential(self.lam))

    def as_family(self):
        """The same law built through the generic construction."""
        return GammaRatioDist(self.alpha, self.beta, self.base)

    # -- expansions specific to the exponential base ----------------------

    def moment_series(self, m, ctrl=None):
        """Double-sum raw moment of order m.

        After rewriting the signed binomial, the inner coefficient is
        C(k+alpha+j, j) > 0, so each k-shell is a positive series scaled
        by (-1)^k, with K = k + alpha + j. Inner terms carry
        Gamma(m+1)/(lam K)^{m+1}, so they go like j^(k+alpha-m-1): they
        fall only algebraically, and deep j truncations (thousands of
        terms) are routinely needed and cheap here. Shells k >= m - alpha
        diverge; a sum that met its tail after summing the first of them
        keeps its value but is not converged.
        """
        m = _validate_order(m, "moment_series")
        ctrl = _control(ctrl, "moment_series")
        a = self.alpha
        lg_m = log_gamma(m + 1.0)
        j = np.arange(ctrl.j_max, dtype=float)
        log_j_fact = _log_gamma_vec(j + 1.0)

        def inner(k):
            kk = k + a + j
            logs = (
                (k + a) * math.log(self.beta)
                - log_gamma(k + 1.0)
                - log_gamma(a)
                + _log_gamma_vec(kk + 1.0)
                - log_j_fact
                - log_gamma(k + a + 1.0)
                + math.log(self.lam)
            )
            with np.errstate(over="ignore", under="ignore"):
                terms = np.exp(logs + lg_m - (m + 1.0) * np.log(self.lam * kk))
            val, j_used, ok = _truncate_inner(terms, ctrl)
            sign = -1.0 if k % 2 else 1.0
            return sign * val, j_used, ok, None

        result = _sum_shells(inner, ctrl)
        k_div = max(0, math.ceil(m - a))
        if result.converged and result.terms_used[0] > k_div:
            return replace(result, converged=False, diagnostic=(
                f"shell k={k_div} diverges: its inner terms go like "
                f"j^{k_div + a - m - 1.0:.6g}, which is not summable"
            ))
        return result


def oe_loglik_and_score(data, alpha, beta, lam):
    """Log-likelihood of the exponential-base law and its exact gradient.

    Gradient components (n observations, w_i the base survival odds):

      d/d alpha:  n ln beta - n psi(alpha) - lam sum x_i - sum ln(1 - e^{-lam x_i})
      d/d beta :  n alpha / beta - sum w_i
      d/d lam  :  n/lam - alpha sum x_i - (alpha+1) sum x_i w_i + beta sum x_i w_i (1 + w_i)

    using x w (1 + w) = x e^{-lam x}/(1 - e^{-lam x})^2. Raises DataError
    unless the observations are finite and strictly positive.
    """
    x = _positive_observations(data, "log-likelihood")
    return _oe_loglik_and_score(x, alpha, beta, lam)[:2]


def _oe_loglik_and_score(x, alpha, beta, lam):
    """oe_loglik_and_score on x, a 1-D float array already validated,
    plus the Hessian in log coordinates (a, b, l) = log(alpha, beta, lam).

    With y = lam x, w = 1/expm1(y) and d_alpha the gradient's alpha
    component, each entry is written in those coordinates:

      H_aa = -n alpha^2 psi'(alpha) + alpha d_alpha     H_ab = n alpha
      H_bb = -beta sum w                                H_al = -alpha (sum y + sum y w)
      H_bl = beta sum y w (1 + w)
      H_ll = (alpha+1) sum y^2 w(1+w) - beta sum y^2 w(1+w)(1+2w)
             - alpha sum y - (alpha+1) sum y w + beta sum y w (1+w)

    (the n of lam^2 d2/dlam2 and of lam d/dlam cancel), so no entry is a
    product of two parameters, which overflows at the alpha -> 0,
    beta -> inf ridge.
    """
    if not (alpha > 0.0 and beta > 0.0 and lam > 0.0):
        raise ValueError("alpha, beta, lam must all be strictly positive")
    n = x.size
    # one row per summed term, reduced in one call; each row sum of the
    # C-contiguous buffer is the 1-D sum of that row, bit for bit
    terms = np.empty((8, n))
    x_row, y, l1m, w, yw, yw1w, y2w1w, y2w1w12w = terms
    x_row[:] = x
    np.multiply(lam, x, out=y)
    # a tiny lam makes w overflow; the fit rejects inf. y w = y/expm1(y)
    # lies in (0, 1], so the sums below stay finite while w does
    with np.errstate(over="ignore", under="ignore"):
        np.divide(1.0, np.expm1(y), out=w)
        # ln(1 - e^-y) = -log1p(w), and ln y where y is subnormal and w
        # overflows, where expm1(y) = y, as GammaRatioDist.log_pdf takes
        # ln cdf there
        np.log1p(w, out=l1m)
        np.negative(l1m, out=l1m)
        over = np.flatnonzero(w == np.inf)
        if over.size:
            with np.errstate(divide="ignore"):
                l1m.put(over, np.log(y.take(over)))
        np.multiply(y, w, out=yw)
        np.multiply(yw, 1.0 + w, out=yw1w)
        np.multiply(y, yw1w, out=y2w1w)
        np.multiply(y2w1w, 1.0 + 2.0 * w, out=y2w1w12w)
    (sum_x, sum_y, sum_l1m, sum_w, sum_yw, sum_yw1w, sum_y2w1w,
     sum_y2w1w12w) = terms.sum(axis=1).tolist()
    alpha_lam_sum_x = alpha * lam * sum_x
    if alpha_lam_sum_x == math.inf:  # alpha lam overflows where lam nears the float edge
        alpha_lam_sum_x = alpha * (lam * sum_x)
    ll = (
        n * (math.log(lam) + alpha * math.log(beta) - log_gamma(alpha))
        - alpha_lam_sum_x
        - (alpha + 1.0) * sum_l1m
        - beta * sum_w
    )
    d_alpha = n * math.log(beta) - n * digamma(alpha) - lam * sum_x - sum_l1m
    d_beta = n * alpha / beta - sum_w
    d_lam = (n - alpha * sum_y - (alpha + 1.0) * sum_yw + beta * sum_yw1w) / lam
    h_aa = -n * _sq_trigamma(alpha) + alpha * d_alpha
    h_ab = n * alpha
    h_al = -alpha * (sum_y + sum_yw)
    h_bb = -beta * sum_w
    h_bl = beta * sum_yw1w
    h_ll = (
        (alpha + 1.0) * sum_y2w1w
        - beta * sum_y2w1w12w
        - alpha * sum_y
        - (alpha + 1.0) * sum_yw
        + beta * sum_yw1w
    )
    hess = np.array([[h_aa, h_ab, h_al], [h_ab, h_bb, h_bl], [h_al, h_bl, h_ll]])
    return ll, np.array([d_alpha, d_beta, d_lam]), hess
