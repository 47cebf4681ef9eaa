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

from .expgamma import _LN2, OEGammaDist, _log1mexp, _oe_loglik_and_score
from .specfun import (
    _log_gamma_vec,
    _reg_lower_gamma_vec,
    _reg_upper_gamma_vec,
    _shape_floats,
    _shape_terms,
    _sq_trigamma,
    digamma,
    log_gamma,
)

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
    parameters are redundant.

    A model is fitted only through its own likelihood equations, so
    analytic_score and exact_mle are required. analytic_score maps
    (data, theta) to (loglik, gradient, H), the gradient taken with
    respect to theta and H the Hessian with respect to phi = log theta,
    d2 loglik / d phi_i d phi_j, from which the fit takes its standard
    errors. Write each entry of H in log coordinates, never as the
    product theta_i theta_j d2 loglik / d theta_i d theta_j: that product
    overflows where a parameter runs toward 1e300 while the entry itself
    stays finite. exact_mle maps data to (theta, iterations, note) or
    (theta, iterations, note, advisory): the maximum-likelihood theta
    solved directly (for a family whose likelihood equations reduce to
    one dimension), the solver steps it took, and None where the solve
    met its tolerance or else a warning that says why not, which leaves
    the fit not converged. advisory is None or a warning that does not:
    the fit stays converged where the note is None and the gradient test
    holds, and the warning is reported beside it (m2 says so where its
    likelihood is higher at a boundary than at the interior maximum
    theta). Every callable receives the data as mle_fit or
    standard_errors validated them (a non-empty 1-D float array of
    finite values > 0) and does not check them again.
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
    analytic_score: Callable
    exact_mle: Callable
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


# -- one-dimensional likelihood equations ----------------------------------

_SOLVE_TOL = 1e-12  # relative shape step that ends a shape-equation solve
_SOLVE_STEPS = 100
_EQUAL_DATA_SHAPE = 1e6  # shape reported where the MLE does not exist
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _equal_data_note(name):
    """The warning for data whose shape equation has no root."""
    return (f"{name} runs to infinity because every observation is equal; "
            f"theta is reported at {name} = {_EQUAL_DATA_SHAPE:g}")


def _unsolved_note(name, steps):
    return f"the {name} equation did not meet its tolerance in {steps} steps"


def _rate(name, log_rate):
    """(exp(log_rate), None), or past the float range the largest float
    and a note that says so."""
    if log_rate < _LOG_FLOAT_MAX:
        return math.exp(log_rate), None
    big = np.finfo(float).max
    return big, (f"{name} = exp({log_rate:.6g}) lies past the float range; "
                 f"theta is reported at {name} = {big:.6g}")


def _gamma_shape(s, a=None, tol=_SOLVE_TOL):
    """(a, steps, solved): the root a of the gamma shape equation
    log a - psi(a) = s, elementwise, by Minka's generalized Newton
    ("Estimating a Gamma distribution", 2002), which fits c0 + c1/a to
    the left side at a and steps to the root of the fit. It starts from
    a (Minka's closed form where a is None) and stops once no step moves
    a by more than tol relative; solved is False where the step budget
    ran out first.

    The root exists exactly where s > 0 (Choi & Wette 1969: then it is
    unique). s is 0 for an equal sample, and rounding can push s of a
    nearly equal one below 0, where the closed form would hand psi' a
    huge negative argument; a is nan there. The step's slope
    a - a^2 psi'(a) is below -1/2 for every a > 0 (psi'(a) > 1/a +
    1/(2a^2)), and is held there: from a ~ 1e16 on, rounding would
    make it 0. A scalar s runs in Python floats, with the array steps'
    operations in their order, so it equals its entry in an array bit
    for bit."""
    if np.ndim(s) == 0:
        return _gamma_shape_float(float(s), a, tol)
    s = np.where(np.asarray(s, dtype=float) > 0.0, s, np.nan)
    if a is None:
        # (3 - s + r) / (12 s) with r = sqrt((s - 3)^2 + 24 s), which is
        # 2 / (r + s - 3): each form where it does not cancel, and r by
        # hypot, so a large s neither overflows nor rounds a to 0
        r = np.hypot(s - 3.0, np.sqrt(24.0 * s))
        big = s > 3.0
        a = np.where(big, 2.0, 3.0 - s + r) / np.where(big, r + s - 3.0, 12.0 * s)
    for step in range(1, _SOLVE_STEPS + 1):
        log_minus, trig = _shape_terms(a)
        slope = np.minimum(a - (1.0 + trig), -0.5)
        a, prev = 1.0 / (1.0 / a + (log_minus - s) / slope), a
        moved = np.abs(a - prev) > tol * a  # false for nan
        if not moved.any():
            break
    return a, step, not moved.any()


def _gamma_shape_float(s, a, tol):
    """_gamma_shape at a float s, in Python floats."""
    if not s > 0.0:
        s = math.nan
    if a is None:
        r = float(np.hypot(s - 3.0, math.sqrt(24.0 * s)))
        a = 2.0 / (r + s - 3.0) if s > 3.0 else (3.0 - s + r) / (12.0 * s)
    else:
        a = float(a)
    for step in range(1, _SOLVE_STEPS + 1):
        log_minus, trig = _shape_floats(a)
        slope = min(a - (1.0 + trig), -0.5)
        a, prev = 1.0 / (1.0 / a + (log_minus - s) / slope), a
        moved = abs(a - prev) > tol * a  # false for nan
        if not moved:
            break
    return np.float64(a), step, not moved


def _log_offsets(x):
    """(z, top, spread): z = log x - top with top = max(log x), so every
    exp(z) lies in (0, 1] at any data scale, and spread = -mean(z) >= 0,
    0 exactly where every observation is equal. Within a factor 2 of
    max x, z is log1p of (x - max x) / max x, whose difference is exact,
    so nearly equal data keep every digit of their spread."""
    x_max = np.maximum.reduce(x)
    top = float(np.log(x_max))
    d = (x - x_max) / x_max
    z = np.where(d > -0.5, np.log1p(np.maximum(d, -0.5)), np.log(x) - top)
    return z, top, -float(np.add.reduce(z) / z.size)


# 1/k! for k = 17 down to 2: the Taylor series of expm1(y) - y, whose
# terms past y^17 fall below 1e-17 of its sum within |y| < 1/2
_EXPM1MX_SERIES = 1.0 / np.array([float(math.factorial(k)) for k in range(17, 1, -1)])


def _shape_statistic(z):
    """(s, c) over the last axis of z <= 0: c = log mean(e^z), formed as
    log1p(mean(expm1(z))) so that a mean near 1 keeps its digits, and the
    gamma shape statistic s = c - mean(z) >= 0, 0 exactly where every z
    is equal. Where s falls below 1/16 of -mean(z), that difference has
    cancelled, and s is formed instead as mean(expm1(y) - y), y = z - c:
    every term is >= 0 (by its Taylor series within |y| < 1/2, where the
    difference would cancel), and an error d in c moves the mean only by
    about d^2/2. Each mean is np.add.reduce / n, np.mean's bits without
    its Python wrapper."""
    n = z.shape[-1]
    c = np.log1p(np.add.reduce(np.expm1(z), axis=-1) / n)
    spread = -np.add.reduce(z, axis=-1) / n
    s = c + spread
    low = s < spread / 16.0
    # a 0-d low by truthiness: .any() on a numpy scalar costs about 2.5 us
    if low.any() if low.ndim else low:
        y = z - c[..., None]
        terms = np.expm1(y) - y
        small = np.abs(y) < 0.5
        terms[small] = np.polyval(_EXPM1MX_SERIES, y[small]) * y[small] ** 2
        s = np.where(low, np.add.reduce(terms, axis=-1) / n, s)[()]
    return s, c


# -- proposed model: survival-odds gamma on an exponential base ----------

def _oe_method(name):
    """The model callable (x, theta) -> OEGammaDist(*theta).name(x)."""
    def call(x, theta):
        a, b, lam = (float(t) for t in theta)
        return getattr(OEGammaDist(a, b, lam), name)(np.asarray(x, dtype=float))

    return call


def _oe_score(x, theta):
    return _oe_loglik_and_score(x, *(float(t) for t in theta))


_PROFILE_POINTS = 64  # scan grid over log lam
_PROFILE_PAD = 6.0  # how far the scan reaches past the data's lam scales, in log lam
# Minka's and Newton's steps converge quadratically: a step this small
# leaves an error near its square
_SCAN_TOL = 1e-4  # relative alpha step that ends a grid point's solve
_PROFILE_STEP_TOL = 1e-7  # log lam step that ends the Newton refinement
# the loglik's alpha terms, of size n alpha log alpha, cancel to a
# rounding error near n alpha log(alpha) 2.2e-16, about 5e-6 n at this
# alpha; the scan leaves out points past it
_MAX_PROFILE_SHAPE = 1e9


def _oe_profile(x, lam, a=None, tol=_SOLVE_TOL):
    """(loglik, alpha, log beta): the m2 likelihood maximized over alpha
    and beta at fixed lam, elementwise over an array lam.

    At fixed lam the odds w = 1/expm1(lam x) are constants, and the
    likelihood is the gamma likelihood of w times a Jacobian free of
    alpha and beta, so (alpha, beta | lam) is the gamma MLE of w:
    alpha solves log alpha - psi(alpha) = s = log mean(w) - mean(log w)
    (one root, Choi & Wette 1969) and beta = alpha / mean(w), and the
    loglik is n log lam - sum log(1 - e^-lam x) + n (alpha log alpha -
    alpha - lnGamma(alpha) - alpha s). Both means are formed by
    _shape_statistic from z = log w - log w(x_min), so none underflows
    past the odds underflow, and z is taken from the differences
    d = x - x_min, exact for nearly equal data, so nearly equal odds keep
    the digits of s: with a_min = lam x_min, 1 - e^-lam x =
    (1 - e^-a_min)(1 + r), r = -expm1(-lam d)/expm1(a_min), so
    z = -lam d - log1p(r).
    _gamma_shape solves for alpha from a, to tol; all three are nan where
    the odds are equal to rounding (s <= 0)."""
    lam = np.asarray(lam, dtype=float)[()]
    x_min = np.minimum.reduce(x)
    a_min = lam * x_min
    lam_d = np.multiply.outer(lam, x - x_min)
    with np.errstate(over="ignore"):
        log1p_r = np.log1p(-np.expm1(-lam_d) / np.expm1(a_min)[..., None])
    l1m_min = _log1mexp(a_min)
    s, log_mean_w = _shape_statistic(-lam_d - log1p_r)
    log_mean_w -= a_min + l1m_min
    a = _gamma_shape(s, a, tol)[0]
    n = x.size
    ll = (n * (np.log(lam) - l1m_min) - np.add.reduce(log1p_r, axis=-1)
          + n * (a * np.log(a) - a - _log_gamma_vec(a) - a * s))
    return ll, a, np.log(a) - log_mean_w


def _oe_exact_mle(x):
    """The m2 MLE by its one-dimensional profile likelihood in lam (see
    _oe_profile), as (theta, steps, note, advisory).

    The profile is scanned on a grid of log lam that reaches 6 past the
    data's own scales, so it moves with them when the data are
    rescaled: from lam max x = e^-6 to where both lam min x and
    lam (mean x - min x) are e^6 or more. Newton in
    log lam then refines the best interior local maximum of the scan,
    inside the bracket of its two neighbours. Its gradient is the lam
    entry of the m2 score at (alpha(lam), beta(lam), lam), since the
    score in alpha and beta vanishes there, and its curvature the Schur
    complement of the score's log-coordinate Hessian; a step that
    leaves the bracket, or meets a curvature that is not negative,
    bisects instead. steps counts the Newton iterations.

    As lam -> inf with alpha lam and log(beta) / lam held, the law tends
    to the shifted exponential mu + Exp(kappa) (Cheng & Iles, JRSS B 52,
    1990), whose MLE is mu = min x and kappa = 1 / (mean x - min x), with
    loglik n (log kappa - 1). Where that beats the interior maximum,
    theta stays the interior stationary point and the advisory says by
    how much. The scan keeps its first run of points where beta is a
    float and alpha is at most 1e9. Where it has no interior maximum,
    the note names the end the likelihood rises toward and theta is the
    scan point at that end: the highest scanned lam (or the last where
    beta is a float) or the lowest (where alpha is at most 1e9). Where
    no point is kept, theta is the one for equal data.

    lam scales as 1/x. Where the scan would reach past the float range
    (min x or mean x - min x below about 2e-306) and max x < 1/2, the
    profile is solved on the data scaled by the power of two that moves
    max x into [1/2, 1), which is exact. lam is reported through _rate:
    past the float range it is the largest float, with a note."""
    n = x.size
    x_min = float(np.minimum.reduce(x))
    spread = float(np.add.reduce(x - x_min) / n)
    lam, past = _rate("lambda", -math.log(x_min))
    equal = np.array([_EQUAL_DATA_SHAPE, _EQUAL_DATA_SHAPE * math.expm1(1.0), lam])
    if not spread > 0.0:
        return equal, 0, past or _equal_data_note("alpha"), None
    mu, kappa = x_min, 1.0 / spread
    shift = 0
    if -math.log(min(x_min, spread)) + _PROFILE_PAD > _LOG_FLOAT_MAX:
        shift = max(0, -math.frexp(float(np.max(x)))[1])
        x = np.ldexp(x, shift)
        x_min = math.ldexp(x_min, shift)
        spread = float(np.add.reduce(x - x_min) / n)
    # log lam and the loglik of the data exceed the solve's by log_scale
    # and n log_scale
    log_scale = shift * _LN2
    limit_ll = n * (math.log(1.0 / spread) - 1.0)
    limit = (f"the shifted exponential mu + Exp(kappa), mu = min x = {mu:.6g} and "
             f"kappa = 1/(mean x - min x) = {kappa:.6g}, with loglik "
             f"{limit_ll + n * log_scale:.10g}")
    u_max = min(-math.log(min(x_min, spread)) + _PROFILE_PAD, _LOG_FLOAT_MAX)  # lam a float
    u = np.linspace(min(-math.log(float(np.max(x))) - _PROFILE_PAD, u_max), u_max,  # log lam
                    _PROFILE_POINTS)
    ll, a, log_b = _oe_profile(x, np.exp(u), tol=_SCAN_TOL)
    # alpha grows toward low lam for nearly equal data, up to where the
    # odds are equal to rounding (alpha nan)
    ok = np.isfinite(ll) & (log_b < _LOG_FLOAT_MAX) & (a <= _MAX_PROFILE_SHAPE)
    if not ok.any():
        return equal, 0, (f"alpha passes {_MAX_PROFILE_SHAPE:g} at every scanned lambda where "
                          f"beta is a float; theta is reported at alpha = "
                          f"{_EQUAL_DATA_SHAPE:g}"), None
    first = int(np.argmax(ok))
    m = _PROFILE_POINTS if ok[first:].all() else first + int(np.argmin(ok[first:]))
    ll, a, log_b, u = ll[first:m], a[first:m], log_b[first:m], u[first:m]
    inner = (ll[1:-1] > ll[:-2]) & (ll[1:-1] >= ll[2:])
    if not inner.any():
        if ll[-1] < ll[0]:
            k, note = 0, ("the likelihood rises toward its lambda -> 0 boundary; theta is "
                          "reported at the lowest scanned lambda"
                          + (f" where alpha is at most {_MAX_PROFILE_SHAPE:g}" if first else ""))
        elif m < _PROFILE_POINTS:
            k, note = -1, ("the likelihood still rises where beta leaves the float range; "
                           "theta is reported at the last scanned lambda where beta is a float")
        else:
            k, note = -1, (f"the likelihood rises toward its lambda -> inf boundary, {limit}; "
                           "theta is reported at the highest scanned lambda, "
                           f"{limit_ll - ll[-1]:.3g} below that")
        lam, past = _rate("lambda", u[k] + log_scale)
        return np.array([a[k], math.exp(log_b[k]), lam]), 0, past or note, None
    k = 1 + int(np.argmax(np.where(inner, ll[1:-1], -np.inf)))
    lo, hi, a = float(u[k - 1]), float(u[k + 1]), a[k]
    # Newton starts at the vertex of the parabola through the three points
    bend = ll[k - 1] - 2.0 * ll[k] + ll[k + 1]
    v = float(u[k])
    if -math.inf < bend < 0.0:
        v += 0.25 * (hi - lo) * float(ll[k - 1] - ll[k + 1]) / bend
    last = None  # the last profiled point where beta is a float
    note = _unsolved_note("lambda profile", _SOLVE_STEPS)
    for step in range(1, _SOLVE_STEPS + 1):
        lam = math.exp(v)
        ll_v, a, lb = _oe_profile(x, lam, a)
        if not lb < _LOG_FLOAT_MAX:  # step back to where beta is a float
            hi, v = v, 0.5 * (lo + v)
            continue
        last = ll_v, a, lb, v
        _, g, H = _oe_loglik_and_score(x, float(a), math.exp(lb), lam)
        grad = lam * g[2]
        # d log(alpha, beta) / d log lam = -slope along the profile
        slope = np.linalg.solve(H[:2, :2], H[:2, 2])
        curv = H[2, 2] - H[2, :2] @ slope
        if grad > 0.0:
            lo = v
        elif grad < 0.0:
            hi = v
        new = v - grad / curv if curv < 0.0 else math.nan
        newton = lo <= new <= hi
        if not newton:
            new = 0.5 * (lo + hi)
        v, prev = new, v
        a = a * math.exp(slope[0] * (prev - v))  # Minka's next start
        if abs(v - prev) <= (_PROFILE_STEP_TOL if newton else _SOLVE_TOL):
            note = None
            break
    # a last step past the float range falls back to the last point inside it
    end = _oe_profile(x, math.exp(v), a) + (v,)
    ll_hat, a, lb, v = end if end[2] < _LOG_FLOAT_MAX or last is None else last
    advisory = None
    if limit_ll > ll_hat:
        advisory = (f"the likelihood is higher at the lambda -> inf boundary, {limit}, "
                    f"{limit_ll - ll_hat:.3g} above this interior stationary point")
    lam, past = _rate("lambda", v + log_scale)
    return np.array([float(a), math.exp(lb), lam]), step, past or note, advisory


def oe_gamma_model():
    """The proposed three-parameter model (odds-gamma, exponential base)."""
    return FittableModel(
        name="oe-gamma",
        k=3,
        param_names=("alpha", "beta", "lambda"),
        log_pdf=_oe_method("log_pdf"),
        cdf=_oe_method("cdf"),
        sf=_oe_method("sf"),
        analytic_score=_oe_score,
        exact_mle=_oe_exact_mle,
    )


# -- gamma competitor with a redundant rate split -------------------------

_ZB_LAMBDA_DISPLAY = 1.96  # conventional display split of the fitted rate


def _zb_log_pdf(x, theta):
    a, rho = float(theta[0]), float(theta[1])
    x = np.asarray(x, dtype=float)
    below = x <= 0.0  # false for nan, which falls through as nan
    xs = np.where(below, 1.0, x)
    out = a * math.log(rho) - log_gamma(a) + (a - 1.0) * np.log(xs) - rho * xs
    return np.where(below, -np.inf, out)


def _zb_cdf(x, theta):
    a, rho = float(theta[0]), float(theta[1])
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        # np.maximum keeps nan, and x <= 0 is false for it: nan gives nan
        return np.where(x <= 0.0, 0.0, _reg_lower_gamma_vec(a, rho * np.maximum(x, 0.0)))


def _zb_sf(x, theta):
    a, rho = float(theta[0]), float(theta[1])
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        return np.where(x <= 0.0, 1.0, _reg_upper_gamma_vec(a, rho * np.maximum(x, 0.0)))


def _zb_score(x, theta):
    a, rho = float(theta[0]), float(theta[1])
    n = x.size
    sum_x = float(np.add.reduce(x))
    sum_lx = float(np.add.reduce(np.log(x)))
    ll = (
        n * (a * math.log(rho) - log_gamma(a))
        + (a - 1.0) * sum_lx
        - rho * sum_x
    )
    d_a = n * math.log(rho) - n * digamma(a) + sum_lx
    d_rho = n * a / rho - sum_x
    # Hessian in (log alpha, log rho); rho^2 d2/drho2 + rho d/drho = -rho sum x
    h_aa = -n * _sq_trigamma(a) + a * d_a
    h_ar = n * a
    h_rr = -rho * sum_x
    return ll, np.array([d_a, d_rho]), np.array([[h_aa, h_ar], [h_ar, h_rr]])


def _zb_exact_mle(x):
    """The gamma MLE from its shape equation log a - psi(a) = s, with
    s = log mean(x) - mean(log x) > 0 unless every observation is equal
    (Choi & Wette 1969: one root), solved by _gamma_shape, then
    rho = a / mean(x). s and log mean(x) are formed from
    log x - max(log x) by _shape_statistic, so no sum overflows at any
    data scale and nearly equal data keep the digits of s. A rho
    past the float range is reported at the largest float, with a note."""
    z, top, _ = _log_offsets(x)
    s, log_mean = (float(v) for v in _shape_statistic(z))  # log mean(x) - top
    a, step, solved = _gamma_shape(s)
    note = None if solved else _unsolved_note("gamma shape", step)
    if not s > 0.0:
        a, step, note = _EQUAL_DATA_SHAPE, 0, _equal_data_note("alpha")
    rate, past = _rate("rho", math.log(a) - top - log_mean)
    return np.array([a, rate]), step, past or note


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


def _weibull_score(x, theta):
    k, lam = float(theta[0]), float(theta[1])
    n = x.size
    lx = np.log(lam * x)
    u = k * lx  # log t, t = (lam x)^k
    # a theta far from the fit can push (lam*x)^k past the float range; inf is
    # fine, the fit rejects the non-finite point
    with np.errstate(over="ignore"):
        t = np.exp(u)
        sum_t = float(np.add.reduce(t))
        sum_t_lx = float(np.add.reduce(t * lx))
        sum_tu1u = float(np.add.reduce(t * u * (1.0 + u)))
        sum_t1u = float(np.add.reduce(t * (1.0 + u)))
    ll = (n * (math.log(k) + k * math.log(lam)) + (k - 1.0) * float(np.add.reduce(np.log(x)))
          - sum_t)
    d_k = n / k + float(np.add.reduce(lx)) - sum_t_lx
    d_lam = (k / lam) * (n - sum_t)
    # Hessian in (log k, log lam): d u / d log k = u and d u / d log lam = k
    h_kk = float(np.add.reduce(u)) - sum_tu1u
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
        rate, past = _rate("rate", -top)
        return np.array([_EQUAL_DATA_SHAPE, rate]), 0, past or _equal_data_note("shape")
    lo, hi = 1.0 / spread, math.inf
    k = max(lo, math.pi / (math.sqrt(6.0) * float(np.std(z))))
    note = None
    z_sq = z * z
    for step in range(1, _SOLVE_STEPS + 1):
        w = np.exp(k * z)
        sw = float(np.add.reduce(w))
        z_mean = float(w @ z) / sw
        g = z_mean - 1.0 / k + spread
        if g < 0.0:
            lo = k
        elif g > 0.0:
            hi = k
        new = k - g / (float(w @ z_sq) / sw - z_mean * z_mean + 1.0 / (k * k))
        if not lo <= new <= hi:
            new = 2.0 * k if hi == math.inf else 0.5 * (lo + hi)
        k, prev = new, k
        if abs(k - prev) <= _SOLVE_TOL * k:
            break
    else:
        note = _unsolved_note("Weibull shape", step)
    rate, past = _rate("rate", -top - math.log(float(np.add.reduce(np.exp(k * z)) / z.size)) / k)
    return np.array([k, rate]), step, past or note


def weibull_model():
    """Two-parameter Weibull with cdf 1 - exp(-(lam*x)^k) (shape, rate)."""
    return FittableModel(
        name="weibull",
        k=2,
        param_names=("shape", "rate"),
        log_pdf=_weibull_log_pdf,
        cdf=_weibull_cdf,
        sf=_weibull_sf,
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
