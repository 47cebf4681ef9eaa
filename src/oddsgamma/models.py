"""Fittable model descriptors for the flood-data comparison study.

Three models share one fitting interface: the survival-odds gamma law
on an exponential base (the proposed model), a gamma competitor whose
rate enters as a product of two displayed parameters, and a Weibull in
shape/rate form. Descriptors are plain immutable records; the fit
module consumes them without knowing any distribution internals.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

from .expgamma import OEGammaDist, _oe_loglik_and_score
from .specfun import _log_minus_digamma, _sq_trigamma

__all__ = [
    "FittableModel",
    "MODEL_ALIASES",
    "get_model",
    "list_models",
    "oe_gamma_model",
    "weibull_model",
    "zb_gamma_exp_model",
]


@dataclass(frozen=True)
class FittableModel:
    """Uniform fitting interface for one parametric family.

    log_pdf, cdf and sf take (x_array, theta) with theta on the natural
    scale; sf is the survival 1 - cdf in closed form, accurate where
    cdf rounds to 1. Every parameter is positive, because the fit works
    in log coordinates. k is the parameter count reported to information
    criteria, which can exceed the optimized dimension when displayed
    parameters are redundant. initial_guess maps data to a starting
    theta, and analytic_score, when present, maps (data, theta) to
    (loglik, gradient) or (loglik, gradient, H), the gradient taken with
    respect to theta. The optional H is the Hessian with respect to
    phi = log theta, d2 loglik / d phi_i d phi_j, which the fit uses for
    its Newton steps and standard errors in place of differencing the
    gradient. Write each of its entries in log coordinates, never as the
    product theta_i theta_j d2 loglik / d theta_i d theta_j: that product
    overflows where a parameter runs toward 1e300 while the entry itself
    stays finite. exact_mle, when present, maps data to
    (theta, iterations, note): the maximum-likelihood theta solved
    directly (for a family whose likelihood equations reduce to one
    scalar equation), the solver steps it took, and None where the solve
    met its tolerance or else a warning that says why not. mle_fit then
    uses it in place of the multi-start Newton ascent. Every callable
    receives the data as mle_fit or standard_errors validated them (a
    non-empty 1-D float array of finite values > 0) and does not check
    them again.
    report_params expands the optimized vector into display rows of
    (name, value, std_error) so redundant parameterizations can show
    their conventional split.
    """

    name: str
    k: int
    param_names: tuple
    log_pdf: Callable
    cdf: Callable
    sf: Callable
    initial_guess: Callable
    analytic_score: Optional[Callable] = None
    report_params: Optional[Callable] = None
    exact_mle: Optional[Callable] = None

    def __post_init__(self):
        if self.k < len(self.param_names):
            raise ValueError("reported k cannot be below the optimized dimension")

    @property
    def n_free(self):
        return len(self.param_names)

    def display_params(self, theta, std_errors):
        """Rows of (name, value, std_error) for reporting."""
        if self.report_params is not None:
            return self.report_params(np.asarray(theta, dtype=float),
                                      np.asarray(std_errors, dtype=float))
        return [
            (nm, float(v), float(se))
            for nm, v, se in zip(self.param_names, theta, std_errors)
        ]


# -- one-dimensional likelihood equations ----------------------------------

_SOLVE_TOL = 1e-12  # relative shape step that ends a shape-equation solve
_SOLVE_STEPS = 100
_EQUAL_DATA_SHAPE = 1e6  # shape reported where the MLE does not exist


def _equal_data_note(name):
    """The warning for data whose shape equation has no root."""
    return (f"{name} runs to infinity because every observation is equal; "
            f"theta is reported at {name} = {_EQUAL_DATA_SHAPE:g}")


def _unsolved_note(name, steps):
    return f"the {name} equation did not meet its tolerance in {steps} steps"


def _log_offsets(x):
    """(z, top, spread): z = log x - top with top = max(log x), so every
    exp(z) lies in (0, 1] at any data scale, and spread = -mean(z) >= 0,
    0 exactly where every observation is equal."""
    lx = np.log(x)
    top = float(np.max(lx))
    z = lx - top
    return z, top, -float(np.mean(z))


# -- proposed model: survival-odds gamma on an exponential base ----------

def _oe_method(name):
    """The model callable (x, theta) -> OEGammaDist(*theta).name(x)."""
    def call(x, theta):
        a, b, lam = (float(t) for t in theta)
        return getattr(OEGammaDist(a, b, lam), name)(np.asarray(x, dtype=float))

    return call


def _oe_initial_guess(x):
    return np.array([0.5, 1.0, 1.0 / float(np.median(x))])


def _oe_score(x, theta):
    return _oe_loglik_and_score(x, *(float(t) for t in theta))


def oe_gamma_model():
    """The proposed three-parameter model (odds-gamma, exponential base)."""
    return FittableModel(
        name="oe-gamma",
        k=3,
        param_names=("alpha", "beta", "lambda"),
        log_pdf=_oe_method("log_pdf"),
        cdf=_oe_method("cdf"),
        sf=_oe_method("sf"),
        initial_guess=_oe_initial_guess,
        analytic_score=_oe_score,
    )


# -- gamma competitor with a redundant rate split -------------------------

_ZB_LAMBDA_DISPLAY = 1.96  # conventional display split of the fitted rate


def _zb_log_pdf(x, theta):
    a, rho = float(theta[0]), float(theta[1])
    x = np.asarray(x, dtype=float)
    below = x <= 0.0  # false for nan, which falls through as nan
    xs = np.where(below, 1.0, x)
    out = a * math.log(rho) - special.gammaln(a) + (a - 1.0) * np.log(xs) - rho * xs
    return np.where(below, -np.inf, out)


def _zb_cdf(x, theta):
    a, rho = float(theta[0]), float(theta[1])
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        # np.maximum keeps nan, and x <= 0 is false for it: nan gives nan
        return np.where(x <= 0.0, 0.0, special.gammainc(a, rho * np.maximum(x, 0.0)))


def _zb_sf(x, theta):
    a, rho = float(theta[0]), float(theta[1])
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        return np.where(x <= 0.0, 1.0, special.gammaincc(a, rho * np.maximum(x, 0.0)))


def _zb_initial_guess(x):
    # gamma method of moments
    mean = float(np.mean(x))
    var = float(np.var(x, ddof=1)) if x.size > 1 else mean ** 2
    var = max(var, 1e-12)
    a0 = max(mean * mean / var, 1e-3)
    return np.array([a0, a0 / mean])


def _zb_score(x, theta):
    a, rho = float(theta[0]), float(theta[1])
    n = x.size
    sum_x = float(np.sum(x))
    sum_lx = float(np.sum(np.log(x)))
    ll = (
        n * (a * math.log(rho) - special.gammaln(a))
        + (a - 1.0) * sum_lx
        - rho * sum_x
    )
    d_a = n * math.log(rho) - n * special.psi(a) + sum_lx
    d_rho = n * a / rho - sum_x
    # Hessian in (log alpha, log rho); rho^2 d2/drho2 + rho d/drho = -rho sum x
    h_aa = -n * _sq_trigamma(a) + a * d_a
    h_ar = n * a
    h_rr = -rho * sum_x
    return ll, np.array([d_a, d_rho]), np.array([[h_aa, h_ar], [h_ar, h_rr]])


def _zb_exact_mle(x):
    """The gamma MLE from its shape equation log a - psi(a) = s, with
    s = log mean(x) - mean(log x) > 0 unless every observation is equal
    (Choi & Wette 1969: one root), then rho = a / mean(x). Minka's
    generalized Newton ("Estimating a Gamma distribution", 2002) fits
    c0 + c1/a to the left side at each step, from his closed-form
    approximation to the root. s and log mean(x) are formed from
    log x - max(log x), so no sum overflows at any data scale."""
    z, top, spread = _log_offsets(x)
    log_mean = math.log(float(np.mean(np.exp(z))))  # log mean(x) - top
    s = log_mean + spread
    rate = lambda a: math.exp(math.log(a) - top - log_mean)
    if not s > 0.0:
        a = _EQUAL_DATA_SHAPE
        return np.array([a, rate(a)]), 0, _equal_data_note("alpha")
    a = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for step in range(1, _SOLVE_STEPS + 1):
        inv = 1.0 / a + (_log_minus_digamma(a) - s) / (a - _sq_trigamma(a))
        if not (math.isfinite(inv) and inv > 0.0):
            break
        a, prev = 1.0 / inv, a
        if abs(a - prev) <= _SOLVE_TOL * a:
            return np.array([a, rate(a)]), step, None
    return np.array([a, rate(a)]), step, _unsolved_note("gamma shape", step)


def _zb_report(theta, std_errors):
    a, rho = float(theta[0]), float(theta[1])
    se_a, se_rho = float(std_errors[0]), float(std_errors[1])
    lam = _ZB_LAMBDA_DISPLAY
    # the likelihood depends on beta and lambda only through rho = beta*lambda,
    # so the split below is display convention, not an estimate of two things
    return [
        ("alpha", a, se_a),
        ("beta", rho / lam, se_rho / lam),
        ("lambda", lam, 0.0),
    ]


def zb_gamma_exp_model():
    """Gamma competitor: density (beta*lam)^a x^(a-1) e^(-beta*lam*x)/Gamma(a).

    beta and lam enter only through their product, so the optimizer
    works over (alpha, rho = beta*lam); k stays 3 for criteria parity
    with the three-parameter display.
    """
    return FittableModel(
        name="zb-gamma-exp",
        k=3,
        param_names=("alpha", "rho"),
        log_pdf=_zb_log_pdf,
        cdf=_zb_cdf,
        sf=_zb_sf,
        initial_guess=_zb_initial_guess,
        analytic_score=_zb_score,
        report_params=_zb_report,
        exact_mle=_zb_exact_mle,
    )


# -- Weibull competitor, shape/rate form ----------------------------------

def _weibull_log_pdf(x, theta):
    k, lam = float(theta[0]), float(theta[1])
    x = np.asarray(x, dtype=float)
    below = x <= 0.0  # false for nan, which falls through as nan
    xs = np.where(below, 1.0, x)
    lx = lam * xs
    with np.errstate(over="ignore"):
        out = math.log(k) + k * math.log(lam) + (k - 1.0) * np.log(xs) - lx ** k
    return np.where(below, -np.inf, out)


def _weibull_cdf(x, theta):
    k, lam = float(theta[0]), float(theta[1])
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        t = (lam * np.maximum(x, 0.0)) ** k
        return np.where(x <= 0.0, 0.0, -np.expm1(-t))


def _weibull_sf(x, theta):
    k, lam = float(theta[0]), float(theta[1])
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        return np.where(x <= 0.0, 1.0, np.exp(-((lam * np.maximum(x, 0.0)) ** k)))


def _weibull_initial_guess(data):
    # least squares of ln(-ln(1-p_i)) on ln x_(i), the standard rank heuristic
    x = np.sort(data)
    n = x.size
    if n == 1:
        return np.array([1.0, 1.0 / x[0]])
    p = (np.arange(1, n + 1) - 0.5) / n
    y = np.log(-np.log1p(-p))
    z = np.log(x)
    slope, intercept = np.polyfit(z, y, 1)
    k0 = max(float(slope), 1e-2)
    lam0 = math.exp(float(intercept) / k0)
    return np.array([k0, lam0])


def _weibull_score(x, theta):
    k, lam = float(theta[0]), float(theta[1])
    n = x.size
    lx = np.log(lam * x)
    u = k * lx  # log t, t = (lam x)^k
    # exploratory starts can push (lam*x)^k past the float range; inf is
    # fine, the fit rejects the non-finite point
    with np.errstate(over="ignore"):
        t = np.exp(u)
        sum_t = float(np.sum(t))
        sum_t_lx = float(np.sum(t * lx))
        sum_tu1u = float(np.sum(t * u * (1.0 + u)))
        sum_t1u = float(np.sum(t * (1.0 + u)))
    ll = n * (math.log(k) + k * math.log(lam)) + (k - 1.0) * float(np.sum(np.log(x))) - sum_t
    d_k = n / k + float(np.sum(lx)) - sum_t_lx
    d_lam = (k / lam) * (n - sum_t)
    # Hessian in (log k, log lam): d u / d log k = u and d u / d log lam = k
    h_kk = float(np.sum(u)) - sum_tu1u
    h_kl = k * (n - sum_t1u)
    h_ll = -k * k * sum_t
    return ll, np.array([d_k, d_lam]), np.array([[h_kk, h_kl], [h_kl, h_ll]])


def _weibull_exact_mle(x):
    """The Weibull MLE from its shape equation (Farnum & Booth 1997)

      G(k) = sum w z / sum w - 1/k + D = 0,   w = exp(k z),

    with z = log x - max(log x) <= 0 and D = -mean(z), so every w lies
    in (0, 1] and no power overflows at any data scale. G' is the
    w-weighted variance of z plus 1/k^2 > 0, and G rises from -inf to
    D > 0 (D = 0 only where every observation is equal), so the root is
    unique; G(1/D) <= 0 brackets it from below. Newton runs from
    Menon's estimate pi / (sqrt 6 sd(log x)) and falls back to bisection
    (to doubling while no upper bracket is known) wherever its step
    leaves the bracket. Then rate^-k = mean(x^k)."""
    z, top, spread = _log_offsets(x)
    if not spread > 0.0:
        return np.array([_EQUAL_DATA_SHAPE, math.exp(-top)]), 0, _equal_data_note("shape")
    lo, hi = 1.0 / spread, math.inf
    k = max(lo, math.pi / (math.sqrt(6.0) * float(np.std(z))))
    note = None
    for step in range(1, _SOLVE_STEPS + 1):
        w = np.exp(k * z)
        sw = float(np.sum(w))
        z_mean = float(w @ z) / sw
        g = z_mean - 1.0 / k + spread
        if g < 0.0:
            lo = k
        elif g > 0.0:
            hi = k
        new = k - g / (float(w @ (z * z)) / sw - z_mean * z_mean + 1.0 / (k * k))
        if not lo <= new <= hi:
            new = 2.0 * k if hi == math.inf else 0.5 * (lo + hi)
        k, prev = new, k
        if abs(k - prev) <= _SOLVE_TOL * k:
            break
    else:
        note = _unsolved_note("Weibull shape", step)
    rate = math.exp(-top - math.log(float(np.mean(np.exp(k * z)))) / k)
    return np.array([k, rate]), step, note


def weibull_model():
    """Two-parameter Weibull with cdf 1 - exp(-(lam*x)^k) (shape, rate)."""
    return FittableModel(
        name="weibull",
        k=2,
        param_names=("shape", "rate"),
        log_pdf=_weibull_log_pdf,
        cdf=_weibull_cdf,
        sf=_weibull_sf,
        initial_guess=_weibull_initial_guess,
        analytic_score=_weibull_score,
        exact_mle=_weibull_exact_mle,
    )


# -- registry -------------------------------------------------------------

MODEL_ALIASES = {
    "m1": "zb-gamma-exp",
    "m2": "oe-gamma",
    "m6": "weibull",
    "zb-gamma-exp": "zb-gamma-exp",
    "oe-gamma": "oe-gamma",
    "weibull": "weibull",
}

_FACTORIES = {
    "zb-gamma-exp": zb_gamma_exp_model,
    "oe-gamma": oe_gamma_model,
    "weibull": weibull_model,
}


def get_model(name):
    """Look a model up by id or alias; KeyError for unknown names."""
    key = MODEL_ALIASES.get(str(name).lower())
    if key is None:
        raise KeyError(f"unknown model {name!r}; known: {', '.join(sorted(MODEL_ALIASES))}")
    return _FACTORIES[key]()


def list_models():
    return sorted(_FACTORIES)
