"""Reference values computed without the library under test.

Every oracle here works from the defining representation of the
exponential-base law: X = log1p(1/T)/lam with T ~ Gamma(alpha, rate
beta), so that P(X > x) = P(T < w(x)) = P(alpha, beta w(x)) with
w(x) = 1/expm1(lam x). Expectations integrate over log T with
scipy.integrate.quad; nothing in oddsgamma is called.
"""

import math

import numpy as np
from scipy import integrate, special


def _log_gamma_density(a, b, log_t):
    """log of the Gamma(a, rate b) density at t = exp(log_t)."""
    if log_t > 700.0:
        return -math.inf
    return a * math.log(b) + (a - 1.0) * log_t - b * math.exp(log_t) - math.lgamma(a)


def _integrate_log_t(a, b, g):
    """Integral of g(log t) over the real line, split at the mode of
    the log-T density, log(a/b); for small a its left tail is long."""
    centre = math.log(a / b)
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=400)
    left = integrate.quad(g, -math.inf, centre, **opts)[0]
    right = integrate.quad(g, centre, math.inf, **opts)[0]
    return left + right


def raw_moment(a, b, lam, m):
    """E X^m of the exponential-base law."""

    def g(u):
        # dT = T du, so the log-T density is the gamma density times t
        log_w = _log_gamma_density(a, b, u) + u
        if not log_w > -745.0:
            return 0.0
        x = math.log1p(math.exp(-u)) / lam if u > -700.0 else -u / lam
        return x**m * math.exp(log_w)

    return _integrate_log_t(a, b, g)


def renyi2(a, b, lam):
    """Renyi entropy of order 2: -log E h(X), E h(X) = E[f_T(T) lam T (1 + T)]."""

    def g(u):
        log_f = _log_gamma_density(a, b, u)
        if log_f == -math.inf:
            return 0.0
        log_w = 2.0 * log_f + math.log(lam) + 2.0 * u + math.log1p(math.exp(u))
        return math.exp(log_w) if log_w > -745.0 else 0.0

    return -math.log(_integrate_log_t(a, b, g))


def moments_payload(a, b, lam):
    """Raw moments 1..4, skewness, kurtosis and the order-2 Renyi entropy."""
    m1, m2, m3, m4 = (raw_moment(a, b, lam, m) for m in (1, 2, 3, 4))
    var = m2 - m1 * m1
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
    return {
        "m1": m1, "m2": m2, "m3": m3, "m4": m4,
        "skewness": mu3 / var**1.5,
        "kurtosis": mu4 / var**2,
        "renyi2": renyi2(a, b, lam),
    }


def survival(a, b, lam, x):
    """P(X > x) in closed form: the lower regularized gamma at beta w(x)."""
    with np.errstate(over="ignore", divide="ignore"):
        w = 1.0 / np.expm1(lam * np.asarray(x, dtype=float))
    return special.gammainc(a, b * w)


def log_density(a, b, lam, x):
    """log h(x) = log f_T(w) + log(lam w (1 + w)), in terms of y = lam x."""
    y = lam * np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        log1p_w = -np.log(-np.expm1(-y))  # log(1 + w) = -log(1 - e^-y)
        log_w = log1p_w - y
        w = np.exp(log_w)
    return (
        a * math.log(b) + (a - 1.0) * log_w - b * w - math.lgamma(a)
        + math.log(lam) + log_w + log1p_w
    )


def oe_draws(a, b, lam, n, rng):
    """n draws of the law from numpy's gamma generator."""
    t = rng.gamma(a, 1.0 / b, n)
    return np.log1p(1.0 / t) / lam


def ks_distance(draws, cdf_values):
    """Kolmogorov-Smirnov distance of a sample from a continuous cdf,
    given the cdf at the sorted sample."""
    n = draws.size
    u = np.sort(cdf_values)
    hi = np.arange(1, n + 1) / n - u
    lo = u - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def ks_critical(n, alpha=1e-6):
    """Asymptotic KS critical distance at significance alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0) / n)


def loglik(model_id, theta, x):
    """Log-likelihood of the three flood-study models from scipy.stats."""
    # imported here: scipy.stats adds most of a second to every run's
    # start, and only flood-bootstrap needs it
    from scipy import stats

    x = np.asarray(x, dtype=float)
    if model_id == "m1":
        a, rho = theta
        return float(np.sum(stats.gamma.logpdf(x, a, scale=1.0 / rho)))
    if model_id == "m2":
        return float(np.sum(log_density(*theta, x)))
    if model_id == "m6":
        k, rate = theta
        return float(np.sum(stats.weibull_min.logpdf(x, k, scale=1.0 / rate)))
    raise KeyError(model_id)
