"""Maximum-likelihood fitting over FittableModel descriptors.

Positivity is enforced by optimizing over log-parameters. The engine
is Newton-Raphson with step halving, on the eigenvalue-modified Hessian
wherever the Hessian is not negative definite, so every step ascends.
Only a genuine stall (no halving improves the likelihood, away from a
stationary point) hands the point to a derivative-free simplex descent,
polished by Newton again. Five deterministic starts (the model's
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


class _LazyOptimize:
    """scipy.optimize, imported on first use: only the simplex fallback
    needs it, and it costs about a third of a second to import."""

    def __getattr__(self, name):
        from scipy import optimize as module

        return getattr(module, name)


optimize = _LazyOptimize()


_MAX_ITERATIONS = 500  # Newton iterations per start, polish included
_LL_TOL = 1e-10  # relative loglik change that ends Newton, with _GRAD_TOL
_GRAD_TOL = 1e-6  # original-scale gradient sup-norm relative to max(1, |ll|)
_MAX_HALVINGS = 40
_SIMPLEX_MAX_EVALS = 2000
_N_STARTS = 5
_FD_STEP = 1e-6  # central-difference gradient step (log scale)
_HESS_STEP = 1e-4  # differencing step for the Hessian of the gradient


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit.

    theta_hat and std_errors are on the original (positive) scale.
    converged implies grad_sup_norm <= 1e-6 * max(1, |loglik|), with the
    gradient measured on the original scale, and every theta_hat entry
    inside (1e-300, 1e300); an entry outside is named in warnings.
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


def _orig_grad_sup(g_phi, phi):
    # d ll/d theta = (d ll/d phi) / theta
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(g_phi * np.exp(-phi))))


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


def _newton(model, data, phi, ll, g, budget):
    """Modified Newton (see _ascent_step) with step halving. Returns
    (phi, ll, g, iterations_used, converged, stalled)."""
    iters = 0
    grad_ok = lambda: _orig_grad_sup(g, phi) <= _GRAD_TOL * max(1.0, abs(ll))
    while iters < budget:
        iters += 1
        try:
            step = _ascent_step(_hess_phi(model, data, phi), g)
        except np.linalg.LinAlgError:
            return phi, ll, g, iters, grad_ok(), not grad_ok()
        if not np.all(np.isfinite(step)):
            return phi, ll, g, iters, grad_ok(), not grad_ok()
        scale = 1.0
        accepted = None
        for _ in range(_MAX_HALVINGS + 1):
            cand = phi - scale * step
            ll_new, g_new = _grad_phi(model, data, cand)
            if math.isfinite(ll_new) and ll_new > ll:
                accepted = (cand, ll_new, g_new)
                break
            scale *= 0.5
        if accepted is None:
            # no step improves the likelihood: converged if the gradient
            # criterion holds here, stalled otherwise
            return phi, ll, g, iters, grad_ok(), not grad_ok()
        delta = accepted[1] - ll
        phi, ll, g = accepted
        if delta <= _LL_TOL * max(1.0, abs(ll)) and grad_ok():
            return phi, ll, g, iters, True, False
    return phi, ll, g, iters, False, False


def _run_start(model, data, theta0):
    """One complete optimization from one start. None if the start is bad."""
    theta0 = np.asarray(theta0, dtype=float)
    if not (np.all(np.isfinite(theta0)) and np.all(theta0 > 0.0)):
        return None
    phi = np.log(theta0)
    ll, g = _grad_phi(model, data, phi)
    if not math.isfinite(ll):
        return None
    phi, ll, g, used, converged, stalled = _newton(model, data, phi, ll, g, _MAX_ITERATIONS)
    iters = used
    if not converged and stalled:
        def objective(ph):
            # exploratory simplex steps can push exp(ph) past the float
            # range; negative_log_lik maps the non-finite point to +inf
            with np.errstate(over="ignore"):
                theta = np.exp(ph)
            return negative_log_lik(model, data, theta)

        res = optimize.minimize(
            objective,
            phi,
            method="Nelder-Mead",
            options={
                "maxfev": _SIMPLEX_MAX_EVALS,
                "xatol": 1e-10,
                "fatol": 1e-12,
            },
        )
        cand = np.asarray(res.x, dtype=float)
        ll_c, g_c = _grad_phi(model, data, cand)
        if math.isfinite(ll_c) and ll_c >= ll:
            phi, ll, g = cand, ll_c, g_c
        # single Newton polish after the simplex pass
        phi, ll, g, used2, converged, _ = _newton(
            model, data, phi, ll, g, max(_MAX_ITERATIONS - iters, 1)
        )
        iters += used2
    return phi, ll, g, iters, converged


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
    grad_sup = _orig_grad_sup(g, phi)
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
    through warnings_out (a list, appended in place).
    """
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise DataError("standard_errors requires at least one observation")
    phi = np.log(np.asarray(theta_hat, dtype=float))
    sink = warnings_out if warnings_out is not None else []
    return _log_coordinate_std_errors(model, x, phi, sink)
