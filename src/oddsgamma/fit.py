"""Maximum-likelihood fitting over FittableModel descriptors.

Every model supplies exact_mle, a solver of its likelihood equations
(m1 and m6 solve their shape equations and m2 maximizes its profile
likelihood in lambda), and an analytic score that returns the
log-likelihood, its gradient and its Hessian in log coordinates.
mle_fit takes the solver's theta and evaluates the score there once.
The fit is reported converged only where the solver gave no note and
the gradient, measured in log coordinates as theta * d loglik / d theta,
is at most 1e-6 max(1, |loglik|); that test does not change when the
data are rescaled. A solver's advisory warning is reported without
clearing converged, and a parameter that runs to 1e300 or 1e-300 is
never reported converged. iterations counts solver steps. Everything
is deterministic: same model and data give a bit-identical FitResult.

Standard errors come from the score's log-coordinate Hessian, mapped to
the original scale by the delta method; a non-positive-definite
Hessian falls back to a pseudo-inverse and says so in the result's
warnings.
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


_GRAD_TOL = 1e-6  # log-coordinate gradient sup-norm relative to max(1, |ll|)


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
    x = _positive_observations(data, "negative_log_lik")
    theta = np.asarray(theta, dtype=float)
    if not (np.all(np.isfinite(theta)) and np.all(theta > 0.0)):
        return math.inf
    with np.errstate(all="ignore"):
        lp = np.asarray(model.log_pdf(x, theta), dtype=float)
    total = float(np.sum(lp))
    return -total if math.isfinite(total) else math.inf


def _grad_phi(model, x, phi):
    """The model's log-likelihood, gradient and Hessian at theta = exp(phi),
    the last two in log-parameter coordinates phi, or None where theta or
    the log-likelihood is not finite. A point far out can overflow in the
    score; the caller rejects it, and no floating-point warning escapes."""
    with np.errstate(all="ignore"):
        theta = np.exp(phi)
        if not np.isfinite(theta).all():
            return None
        ll, g_theta, H = model.analytic_score(x, theta)
        ll = float(ll)
        g = np.asarray(g_theta, dtype=float) * theta
    if not math.isfinite(ll):
        return None
    return ll, g, np.asarray(H, dtype=float)


def mle_fit(model, data):
    """Maximize the likelihood by the model's exact_mle, and score once
    at its root.

    Observations that are not finite and positive raise DataError, and
    a root where the likelihood is not finite raises FitError.
    """
    x = _positive_observations(data, "mle_fit")
    theta, iters, note, *advisory = model.exact_mle(x)
    theta = np.asarray(theta, dtype=float)
    phi = np.log(theta)
    score = _grad_phi(model, x, phi)
    if score is None:
        raise FitError(
            f"the likelihood equations of model {model.name} gave theta "
            f"{theta.tolist()}, where the likelihood is not finite"
        )
    ll, g, H = score
    warnings_out = [w for w in (note, *advisory) if w is not None]
    grad_sup = np.abs(g).max()
    converged = note is None and grad_sup <= _GRAD_TOL * max(1.0, abs(ll))
    theta_hat = np.exp(phi)
    se = _log_coordinate_std_errors(phi, g, H, warnings_out)
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


def _log_coordinate_std_errors(phi, g, H, sink):
    """Standard errors of theta = exp(phi) by the delta method.

    diag(g) - H, from the log-coordinate gradient g at phi and Hessian H, is
    exactly diag(theta) I diag(theta) for the original-scale observed
    information I at any point, so theta_i * sqrt((diag(g) - H)^-1_ii)
    is the original-scale standard error, and no product of two theta
    entries (which overflows near the float range) is ever formed.
    """
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

    The information is the model's log-coordinate Hessian at theta_hat,
    mapped to the original scale by the delta method. A Hessian that
    is not positive definite is inverted by pseudo-inverse and reported
    through warnings_out (a list, appended in place). Observations that
    are not finite and positive raise DataError, and a theta_hat entry
    that is not finite and positive, or a theta_hat where the likelihood
    is not finite, raises ValueError.
    """
    x = _positive_observations(data, "standard_errors")
    theta = np.asarray(theta_hat, dtype=float)
    for name, t in zip(model.param_names, theta):
        if not (math.isfinite(t) and t > 0.0):
            raise ValueError(f"standard_errors needs {name} finite and > 0, got {t}")
    phi = np.log(theta)
    score = _grad_phi(model, x, phi)
    if score is None:
        raise ValueError(f"standard_errors: the likelihood of model {model.name} "
                         f"is not finite at theta {theta.tolist()}")
    _, g, H = score
    sink = warnings_out if warnings_out is not None else []
    return _log_coordinate_std_errors(phi, g, H, sink)
