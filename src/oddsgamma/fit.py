"""Maximum-likelihood fitting over FittableModel descriptors.

Every shipped model supplies exact_mle, a solver of its likelihood
equations reduced to one dimension: m1 and m6 solve their shape
equations and m2 maximizes its profile likelihood in lambda. mle_fit
takes the solver's theta, evaluates the score there once, and reports
the fit converged only where the solver gave no note and the gradient
test below holds; a solver's advisory warning is reported without
clearing converged. iterations then counts solver steps.

A user model without exact_mle is fitted by Newton-Raphson in
log-parameters, which enforces positivity, from the model's initial
guess, with step halving, on the eigenvalue-modified Hessian wherever
the Hessian is not negative definite, so every step ascends.
Convergence is tested on the gradient measured in log coordinates,
theta * d loglik / d theta, which does not change when the data are
rescaled. A fit that finds no ascending step away from a stationary
point ends not converged. On either path a fit whose parameter runs to
1e300 or 1e-300 is never reported converged.
The settings below are fixed. Everything is deterministic: same model
and data give a bit-identical FitResult.

The log-coordinate Hessian is analytic where the model supplies it
(every shipped model's score does, from the same pass over the data
as its gradient) and differenced from the gradient otherwise. Each
accepted Newton point keeps its Hessian, so the next step and the
standard errors reuse it. Standard errors come from that same Hessian,
mapped to the original scale by the delta method; a
non-positive-definite Hessian falls back to a pseudo-inverse and says
so in the result's warnings.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _positive_observations
from .errors import FitError
from .specfun import _Deferred

__all__ = ["FitResult", "mle_fit", "negative_log_lik", "standard_errors"]


# Nothing in the library calls this; perfbench/tracing.py patches fit.optimize.minimize.
optimize = _Deferred("scipy.optimize")


_MAX_ITERATIONS = 500  # Newton iterations
_LL_TOL = 1e-10  # relative loglik change that ends Newton, with _GRAD_TOL
_GRAD_TOL = 1e-6  # log-coordinate gradient sup-norm relative to max(1, |ll|)
_MAX_HALVINGS = 40
_FD_STEP = 1e-6  # central-difference gradient step (log scale)
_HESS_STEP = 1e-4  # differencing step for the Hessian of the gradient


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit.

    theta_hat and std_errors are on the original (positive) scale.
    converged implies grad_sup_norm <= 1e-6 * max(1, |loglik|), with the
    gradient measured in log coordinates (theta * d loglik / d theta),
    and every theta_hat entry inside (1e-300, 1e300); an entry outside
    is named in warnings.
    """

    model_name: str
    theta_hat: tuple
    std_errors: tuple
    loglik: float
    converged: bool
    iterations: int
    grad_sup_norm: float
    warnings: tuple


def negative_log_lik(model, data, theta):
    """-sum(log_pdf); +inf signals a rejected parameter point.

    Observations that are not a 1-D sequence of finite positive values
    raise DataError.
    """
    return _negative_log_lik(model, _positive_observations(data, "negative_log_lik"), theta)


def _negative_log_lik(model, x, theta):
    """negative_log_lik on observations already validated."""
    theta = np.asarray(theta, dtype=float)
    if not (np.all(np.isfinite(theta)) and np.all(theta > 0.0)):
        return math.inf
    with np.errstate(all="ignore"):
        lp = np.asarray(model.log_pdf(x, theta), dtype=float)
    total = float(np.sum(lp))
    return -total if math.isfinite(total) else math.inf


def _loglik(model, data, theta):
    return -_negative_log_lik(model, data, theta)


def _grad_phi(model, data, phi):
    """Log-likelihood, gradient and Hessian in log-parameter coordinates.

    The Hessian is the model's own where its score returns one, else
    None (see _hess_phi).
    """
    with np.errstate(over="ignore"):
        theta = np.exp(phi)
    rejected = -math.inf, np.zeros_like(phi), None
    if not np.isfinite(theta).all():
        return rejected
    if model.analytic_score is not None:
        try:
            ll, g_theta, *hess = model.analytic_score(data, theta)
        except (ValueError, FloatingPointError):
            return rejected
        ll = float(ll)
        if not math.isfinite(ll):
            return rejected
        # an exploratory point far out can overflow to inf; the caller
        # rejects the non-finite step
        with np.errstate(over="ignore"):
            g = np.asarray(g_theta, dtype=float) * theta
        return ll, g, np.asarray(hess[0], dtype=float) if hess else None
    ll = _loglik(model, data, theta)
    if not math.isfinite(ll):
        return rejected
    g = np.empty_like(phi)
    h = _FD_STEP
    for i in range(phi.size):
        e = np.zeros_like(phi)
        e[i] = h
        g[i] = (
            _loglik(model, data, np.exp(phi + e))
            - _loglik(model, data, np.exp(phi - e))
        ) / (2.0 * h)
    return ll, g, None


def _hess_phi(model, data, phi):
    """Hessian in log coordinates by central differences of the gradient,
    for a model whose score returns no Hessian (2p gradient calls)."""
    p = phi.size
    H = np.empty((p, p))
    h = _HESS_STEP
    for i in range(p):
        e = np.zeros(p)
        e[i] = h
        gp = _grad_phi(model, data, phi + e)[1]
        gm = _grad_phi(model, data, phi - e)[1]
        H[:, i] = (gp - gm) / (2.0 * h)
    return 0.5 * (H + H.T)


def _ascent_step(H, g):
    """The step s that Newton subtracts from phi: H^-1 g where -H is
    positive definite, else the same with each eigenvalue e of H
    replaced by -max(|e|, 1e-8 max|e|), so that -s ascends wherever
    g != 0 (Nocedal & Wright, Numerical Optimization, 2nd ed., sec. 3.4).
    Raises LinAlgError where H has no usable eigenvalues."""
    try:
        np.linalg.cholesky(-H)
    except np.linalg.LinAlgError:
        e, V = np.linalg.eigh(H)
        floor = 1e-8 * np.max(np.abs(e))
        if not floor > 0.0:  # zero or nan eigenvalues
            raise
        return V @ ((V.T @ g) / -np.maximum(np.abs(e), floor))
    return np.linalg.solve(H, g)


def _run_start(model, data, theta0):
    """Modified Newton (see _ascent_step) with step halving from one
    start. Returns (phi, ll, g, iterations, converged, H), H the
    Hessian at phi or None where the model gives none and none was
    differenced there. A start with no finite likelihood raises FitError.

    A full step that does not raise the loglik, but changes it by no
    more than the loglik tolerance, ends the start converged where the
    gradient test holds: the same test as for an accepted step, so no
    halvings are spent chasing rounding at the optimum."""
    theta0 = np.asarray(theta0, dtype=float)
    ll = -math.inf
    if np.all(np.isfinite(theta0)) and np.all(theta0 > 0.0):
        phi = np.log(theta0)
        ll, g, H = _grad_phi(model, data, phi)
    if not math.isfinite(ll):
        raise FitError(f"the initial guess {theta0.tolist()} of model {model.name} "
                       "gives no finite likelihood")
    ll_tol = lambda: _LL_TOL * max(1.0, abs(ll))
    for iters in range(1, _MAX_ITERATIONS + 1):
        if H is None:
            H = _hess_phi(model, data, phi)
        try:
            step = _ascent_step(H, g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        for halving in range(_MAX_HALVINGS + 1):
            cand = phi - 0.5**halving * step
            ll_new, g_new, H_new = _grad_phi(model, data, cand)
            if math.isfinite(ll_new) and ll_new > ll:
                break
            if halving == 0 and abs(ll_new - ll) <= ll_tol() and _grad_ok(g, ll):
                return phi, ll, g, iters, True, H
        else:  # no halving improves the likelihood
            break
        delta = ll_new - ll
        phi, ll, g, H = cand, ll_new, g_new, H_new
        if delta <= ll_tol() and _grad_ok(g, ll):
            return phi, ll, g, iters, True, H
    else:  # iteration budget spent
        return phi, ll, g, iters, False, H
    # no step ascends from here: converged only if the gradient test holds
    return phi, ll, g, iters, _grad_ok(g, ll), H


def _grad_ok(g, ll):
    """The gradient half of the convergence test."""
    return np.abs(g).max() <= _GRAD_TOL * max(1.0, abs(ll))


def mle_fit(model, data):
    """Maximize the likelihood: the model's exact_mle where it has one
    (every shipped model), else Newton ascent from its initial guess.

    Observations that are not finite and positive raise DataError.
    """
    x = _positive_observations(data, "mle_fit")
    warnings_out = []
    if model.exact_mle is not None:
        phi, ll, g, iters, converged, H = _solve_exact(model, x, warnings_out)
    else:
        phi, ll, g, iters, converged, H = _run_start(model, x, model.initial_guess(x))
    theta_hat = np.exp(phi)
    se = _log_coordinate_std_errors(model, x, phi, g, H, warnings_out)
    grad_sup = np.abs(g).max()
    for name, t in zip(model.param_names, theta_hat):
        if not 1e-300 < t < 1e300:
            converged = False
            warnings_out.append(f"{name} = {t:.3g} ran to the edge of the parameter space")
    if not converged:
        warnings_out.append(
            "optimizer did not meet both convergence criteria; "
            f"gradient sup-norm {grad_sup:.3g}"
        )
    return FitResult(
        model_name=model.name,
        theta_hat=tuple(float(t) for t in theta_hat),
        std_errors=tuple(float(s) for s in se),
        loglik=float(ll),
        converged=bool(converged),
        iterations=int(iters),
        grad_sup_norm=float(grad_sup),
        warnings=tuple(warnings_out),
    )


def _solve_exact(model, x, sink):
    """The model's exact_mle and one score pass at its root, in the
    shape of a _run_start outcome; its note and advisory go to sink."""
    theta, iters, note, *advisory = model.exact_mle(x)
    theta = np.asarray(theta, dtype=float)
    phi = np.log(theta)
    ll, g, H = _grad_phi(model, x, phi)
    if not math.isfinite(ll):
        raise FitError(
            f"the likelihood equations of model {model.name} gave theta "
            f"{theta.tolist()}, where the likelihood is not finite"
        )
    sink.extend(w for w in (note, *advisory) if w is not None)
    return phi, ll, g, iters, note is None and _grad_ok(g, ll), H


def _log_coordinate_std_errors(model, data, phi, g, H, sink):
    """Standard errors of theta = exp(phi) by the delta method.

    diag(g) - H, from the log-coordinate gradient g at phi and Hessian H, is
    exactly diag(theta) I diag(theta) for the original-scale observed
    information I at any point, so theta_i * sqrt((diag(g) - H)^-1_ii)
    is the original-scale standard error, and no product of two theta
    entries (which overflows near the float range) is ever formed. H is
    differenced here where it is None.
    """
    if H is None:
        H = _hess_phi(model, data, phi)
    info = np.diag(g) - H
    if not np.isfinite(info).all():
        sink.append("observed information contains non-finite entries; standard errors unreliable")
        info = np.where(np.isfinite(info), info, 0.0)
    try:
        np.linalg.cholesky(info)
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        sink.append(
            "observed information is not positive definite; standard errors use a pseudo-inverse"
        )
        cov = np.linalg.pinv(info)
    diag = np.diag(cov).copy()
    if (diag <= 0.0).any():
        sink.append("non-positive variance estimate on at least one coordinate")
        diag = np.abs(diag)
    with np.errstate(over="ignore"):  # inf for a parameter near the float limit
        return np.exp(phi) * np.sqrt(diag)


def standard_errors(model, data, theta_hat, warnings_out=None):
    """Square roots of the inverse observed-information diagonal.

    The information is the log-coordinate Hessian of the fit, analytic
    where the model supplies it and differenced otherwise, mapped to the
    original scale by the delta method. A Hessian that
    is not positive definite is inverted by pseudo-inverse and reported
    through warnings_out (a list, appended in place). Observations that
    are not finite and positive raise DataError, and a theta_hat entry
    that is not finite and positive raises ValueError.
    """
    x = _positive_observations(data, "standard_errors")
    theta = np.asarray(theta_hat, dtype=float)
    for name, t in zip(model.param_names, theta):
        if not (math.isfinite(t) and t > 0.0):
            raise ValueError(f"standard_errors needs {name} finite and > 0, got {t}")
    phi = np.log(theta)
    sink = warnings_out if warnings_out is not None else []
    _, g, H = _grad_phi(model, x, phi)
    return _log_coordinate_std_errors(model, x, phi, g, H, sink)
