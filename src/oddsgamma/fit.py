"""Maximum-likelihood fitting over FittableModel descriptors.

Positivity is enforced by optimizing over log-parameters. The engine
is Newton-Raphson with step halving, on the eigenvalue-modified Hessian
wherever the Hessian is not negative definite, so every step ascends.
Convergence is tested on the gradient measured in log coordinates,
theta * d loglik / d theta, which does not change when the data are
rescaled. A start that finds no ascending step away from a stationary
point ends not converged. Five deterministic starts (the model's
initial guess plus cyclic coordinate perturbations) guard against
ridge-shaped likelihoods, and the best final likelihood wins. A fit
whose parameter runs to 1e300 or 1e-300 is never reported converged.
The settings below are fixed. Everything is deterministic: same model
and data give a bit-identical FitResult.

Standard errors come from the same log-coordinate Hessian that Newton
uses, mapped to the original scale by the delta method; a
non-positive-definite Hessian falls back to a pseudo-inverse and says
so in the result's warnings.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FitError

__all__ = ["FitResult", "mle_fit", "negative_log_lik", "standard_errors"]


# Nothing in the library calls this; perfbench/tracing.py patches fit.optimize.minimize.
class _LazyOptimize:
    def __getattr__(self, name):
        from scipy import optimize as module

        return getattr(module, name)


optimize = _LazyOptimize()


_MAX_ITERATIONS = 500  # Newton iterations per start
_LL_TOL = 1e-10  # relative loglik change that ends Newton, with _GRAD_TOL
_GRAD_TOL = 1e-6  # log-coordinate gradient sup-norm relative to max(1, |ll|)
_MAX_HALVINGS = 40
_N_STARTS = 5
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
    """-sum(log_pdf); +inf signals a rejected parameter point."""
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise DataError("negative_log_lik requires at least one observation")
    theta = np.asarray(theta, dtype=float)
    if not (np.all(np.isfinite(theta)) and np.all(theta > 0.0)):
        return math.inf
    with np.errstate(all="ignore"):
        lp = np.asarray(model.log_pdf(x, theta), dtype=float)
    total = float(np.sum(lp))
    return -total if math.isfinite(total) else math.inf


def _loglik(model, data, theta):
    return -negative_log_lik(model, data, theta)


def _grad_phi(model, data, phi):
    """Log-likelihood and its gradient in log-parameter coordinates."""
    with np.errstate(over="ignore"):
        theta = np.exp(phi)
    if not np.all(np.isfinite(theta)):
        return -math.inf, np.zeros_like(phi)
    if model.analytic_score is not None:
        try:
            ll, g_theta = model.analytic_score(data, theta)
        except (ValueError, FloatingPointError):
            return -math.inf, np.zeros_like(phi)
        ll = float(ll)
        if not math.isfinite(ll):
            return -math.inf, np.zeros_like(phi)
        # an exploratory point far out can overflow to inf; the caller
        # rejects the non-finite step
        with np.errstate(over="ignore"):
            return ll, np.asarray(g_theta, dtype=float) * theta
    ll = _loglik(model, data, theta)
    if not math.isfinite(ll):
        return -math.inf, np.zeros_like(phi)
    g = np.empty_like(phi)
    h = _FD_STEP
    for i in range(phi.size):
        e = np.zeros_like(phi)
        e[i] = h
        g[i] = (
            _loglik(model, data, np.exp(phi + e))
            - _loglik(model, data, np.exp(phi - e))
        ) / (2.0 * h)
    return ll, g


def _hess_phi(model, data, phi):
    """Hessian in log coordinates by central differences of the gradient."""
    p = phi.size
    H = np.empty((p, p))
    h = _HESS_STEP
    for i in range(p):
        e = np.zeros(p)
        e[i] = h
        _, gp = _grad_phi(model, data, phi + e)
        _, gm = _grad_phi(model, data, phi - e)
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
    start. Returns (phi, ll, g, iterations, converged), or None if the
    start is not finite."""
    theta0 = np.asarray(theta0, dtype=float)
    if not (np.all(np.isfinite(theta0)) and np.all(theta0 > 0.0)):
        return None
    phi = np.log(theta0)
    ll, g = _grad_phi(model, data, phi)
    if not math.isfinite(ll):
        return None
    grad_ok = lambda: np.max(np.abs(g)) <= _GRAD_TOL * max(1.0, abs(ll))
    for iters in range(1, _MAX_ITERATIONS + 1):
        try:
            step = _ascent_step(_hess_phi(model, data, phi), g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        for halving in range(_MAX_HALVINGS + 1):
            cand = phi - 0.5**halving * step
            ll_new, g_new = _grad_phi(model, data, cand)
            if math.isfinite(ll_new) and ll_new > ll:
                break
        else:  # no halving improves the likelihood
            break
        delta = ll_new - ll
        phi, ll, g = cand, ll_new, g_new
        if delta <= _LL_TOL * max(1.0, abs(ll)) and grad_ok():
            return phi, ll, g, iters, True
    else:  # iteration budget spent
        return phi, ll, g, iters, False
    # no step ascends from here: converged only if the gradient test holds
    return phi, ll, g, iters, grad_ok()


def _starts(model, data):
    theta0 = np.asarray(model.initial_guess(data), dtype=float)
    out = [theta0.copy()]
    factors = (0.25, 0.5, 2.0, 4.0)
    p = theta0.size
    for i in range(1, _N_STARTS):
        t = theta0.copy()
        t[(i - 1) % p] *= factors[(i - 1) % len(factors)]
        out.append(t)
    return out


def mle_fit(model, data):
    """Maximize the likelihood; deterministic multi-start Newton descent."""
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise DataError("mle_fit requires at least one observation")
    best = None
    failures = []
    for idx, theta0 in enumerate(_starts(model, x)):
        outcome = _run_start(model, x, theta0)
        if outcome is None:
            failures.append(f"start {idx} at {np.asarray(theta0).tolist()} was not finite")
            continue
        if best is None or outcome[1] > best[1]:
            best = outcome
    if best is None:
        raise FitError(
            f"no start produced a finite likelihood for model {model.name}: "
            + "; ".join(failures)
        )
    phi, ll, g, iters, converged = best
    theta_hat = np.exp(phi)
    warnings_out = []
    se = _log_coordinate_std_errors(model, x, phi, warnings_out)
    grad_sup = np.max(np.abs(g))
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


def _log_coordinate_std_errors(model, data, phi, sink):
    """Standard errors of theta = exp(phi) by the delta method.

    diag(g) - H, from the log-coordinate gradient g and Hessian H, is
    exactly diag(theta) I diag(theta) for the original-scale observed
    information I at any point, so theta_i * sqrt((diag(g) - H)^-1_ii)
    is the original-scale standard error, and no product of two theta
    entries (which overflows near the float range) is ever formed.
    """
    _, g = _grad_phi(model, data, phi)
    info = np.diag(g) - _hess_phi(model, data, phi)
    if not np.all(np.isfinite(info)):
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
    if np.any(diag <= 0.0):
        sink.append("non-positive variance estimate on at least one coordinate")
        diag = np.abs(diag)
    with np.errstate(over="ignore"):  # inf for a parameter near the float limit
        return np.exp(phi) * np.sqrt(diag)


def standard_errors(model, data, theta_hat, warnings_out=None):
    """Square roots of the inverse observed-information diagonal.

    The information is differenced in log coordinates, as in the fit,
    and mapped to the original scale by the delta method. A Hessian that
    is not positive definite is inverted by pseudo-inverse and reported
    through warnings_out (a list, appended in place). A theta_hat entry
    that is not finite and positive raises ValueError.
    """
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise DataError("standard_errors requires at least one observation")
    theta = np.asarray(theta_hat, dtype=float)
    for name, t in zip(model.param_names, theta):
        if not (math.isfinite(t) and t > 0.0):
            raise ValueError(f"standard_errors needs {name} finite and > 0, got {t}")
    phi = np.log(theta)
    sink = warnings_out if warnings_out is not None else []
    return _log_coordinate_std_errors(model, x, phi, sink)
