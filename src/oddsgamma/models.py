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

from .errors import DataError
from .expgamma import OEGammaDist, oe_loglik_and_score

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

    log_pdf and cdf take (x_array, theta) with theta on the natural
    scale. Every parameter is positive, because the fit works in log
    coordinates. k is the parameter count reported to information
    criteria, which can exceed the optimized dimension when displayed
    parameters are redundant. analytic_score,
    when present, maps (data, theta) to (loglik, gradient).
    report_params expands the optimized vector into display rows of
    (name, value, std_error) so redundant parameterizations can show
    their conventional split.
    """

    name: str
    k: int
    param_names: tuple
    log_pdf: Callable
    cdf: Callable
    initial_guess: Callable
    analytic_score: Optional[Callable] = None
    report_params: Optional[Callable] = None

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


def _check_positive_data(x):
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise DataError("model evaluation requires at least one observation")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise DataError("observations must be finite and strictly positive")
    return x


# -- proposed model: survival-odds gamma on an exponential base ----------

def _oe_log_pdf(x, theta):
    a, b, lam = (float(t) for t in theta)
    return OEGammaDist(a, b, lam).log_pdf(np.asarray(x, dtype=float))


def _oe_cdf(x, theta):
    a, b, lam = (float(t) for t in theta)
    return OEGammaDist(a, b, lam).cdf(np.asarray(x, dtype=float))


def _oe_initial_guess(data):
    x = _check_positive_data(data)
    return np.array([0.5, 1.0, 1.0 / float(np.median(x))])


def _oe_score(data, theta):
    return oe_loglik_and_score(data, *(float(t) for t in theta))


def oe_gamma_model():
    """The proposed three-parameter model (odds-gamma, exponential base)."""
    return FittableModel(
        name="oe-gamma",
        k=3,
        param_names=("alpha", "beta", "lambda"),
        log_pdf=_oe_log_pdf,
        cdf=_oe_cdf,
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


def _zb_initial_guess(data):
    # gamma method of moments
    x = _check_positive_data(data)
    mean = float(np.mean(x))
    var = float(np.var(x, ddof=1)) if x.size > 1 else mean ** 2
    var = max(var, 1e-12)
    a0 = max(mean * mean / var, 1e-3)
    return np.array([a0, a0 / mean])


def _zb_score(data, theta):
    a, rho = float(theta[0]), float(theta[1])
    x = _check_positive_data(data)
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
    return ll, np.array([d_a, d_rho])


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
        initial_guess=_zb_initial_guess,
        analytic_score=_zb_score,
        report_params=_zb_report,
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


def _weibull_initial_guess(data):
    # least squares of ln(-ln(1-p_i)) on ln x_(i), the standard rank heuristic
    x = np.sort(_check_positive_data(data))
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


def _weibull_score(data, theta):
    k, lam = float(theta[0]), float(theta[1])
    x = _check_positive_data(data)
    n = x.size
    lx = np.log(lam * x)
    # exploratory starts can push (lam*x)^k past the float range; inf is
    # fine, the fit rejects the non-finite point
    with np.errstate(over="ignore"):
        t = np.exp(k * lx)
        sum_t = float(np.sum(t))
        sum_t_lx = float(np.sum(t * lx))
    ll = n * (math.log(k) + k * math.log(lam)) + (k - 1.0) * float(np.sum(np.log(x))) - sum_t
    d_k = n / k + float(np.sum(lx)) - sum_t_lx
    d_lam = (k / lam) * (n - sum_t)
    return ll, np.array([d_k, d_lam])


def weibull_model():
    """Two-parameter Weibull with cdf 1 - exp(-(lam*x)^k) (shape, rate)."""
    return FittableModel(
        name="weibull",
        k=2,
        param_names=("shape", "rate"),
        log_pdf=_weibull_log_pdf,
        cdf=_weibull_cdf,
        initial_guess=_weibull_initial_guess,
        analytic_score=_weibull_score,
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
