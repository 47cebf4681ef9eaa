"""Reference gamma streams for the sampling and fit tests.

numpy_sample rebuilds what GammaRatioDist.sample draws from numpy's own
calls, bit for bit. flood_resample keeps the data of the fit tests that
were written against particular bootstrap resamples of the flood fit
(boundary advisories, the float-limit ridge), found by seed on the
stream the sampler drew before it used numpy's standard_gamma: it
rebuilds those draws bit for bit, so no test has to choose new data.
"""

import math

import numpy as np

from oddsgamma import OEGammaDist
from oddsgamma.family import _log_sf_of_log_odds

# (alpha, beta, lam) of the m2 fit to the Wheaton flood data
FLOOD_M2 = (0.131, 0.179, 0.539)


def numpy_log_gamma(rng, alpha, n):
    """ln of n Gamma(alpha, 1) draws from numpy's own calls: below
    alpha = 1, rng.random(n), then rng.standard_gamma(alpha + 1, n) and
    the boost ln(U)/alpha; from 1 up, rng.standard_gamma(alpha, n)."""
    if alpha >= 1.0:
        return np.log(rng.standard_gamma(alpha, n))
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(n))
    return np.log(rng.standard_gamma(alpha + 1.0, n)) + log_u / alpha


def _map_log_odds(dist, log_t):
    """sample's map of ln T: ln T - ln beta through the base's log_isf."""
    return dist.base.log_isf(_log_sf_of_log_odds(log_t - math.log(dist.beta)))


def numpy_sample(dist, rng, n):
    """n draws of dist as sample makes them from the Generator rng."""
    return _map_log_odds(dist, numpy_log_gamma(rng, dist.alpha, n))


def plain_log_gamma_variates(rng, alpha, n):
    """Logs of n Gamma(alpha, 1) draws by Marsaglia-Tsang (ACM TOMS 26,
    2000) with the log test alone, shapes below 1 boosted in log space
    by ln(U)/alpha with U drawn first: the old sampler's stream."""
    log_boost = None
    a = alpha
    if alpha < 1.0:
        with np.errstate(divide="ignore"):
            log_boost = np.log(rng.random(n)) / alpha
        a = alpha + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        z = rng.standard_normal(todo.size)
        v = (1.0 + c * z) ** 3
        u = rng.random(todo.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = (v > 0.0) & (np.log(u) < 0.5 * z * z + d - d * v + d * np.log(v))
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    out = np.log(out)
    if log_boost is not None:
        out += log_boost
    return out


def flood_resample(seed, n=72):
    """n draws of the flood m2 fit on the old stream of seed, mapped as
    sample maps them: ln T - ln beta through the base's log_isf."""
    d = OEGammaDist(*FLOOD_M2)
    return _map_log_odds(d, plain_log_gamma_variates(np.random.default_rng(seed), d.alpha, n))
