"""Model-selection criteria and EDF goodness-of-fit statistics.

The information criteria are the four standard penalized deviances.
The EDF statistics come in two variants selected by the ``modified``
flag: the classical quadratic forms on the PIT values, and the
normal-transform standardized variant with small-sample multipliers
(probability values mapped through the normal quantile, standardized by
their sample mean and deviation, mapped back, then the classical forms
scaled by 1 + 0.75/n + 2.25/n^2 for A-squared and 1 + 0.5/n for
W-squared). The report builder uses the modified variant, which is the
convention the reference flood study's printed values follow. The
normal quantile and cdf are the standard library's (_ndtri, _ndtr), so
no statistic here loads scipy. A-squared takes np.log of each value in
(0, 1) as it is, subnormal ones included: the log of every positive
double is finite, so nothing is clamped and nothing warns.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _positive_observations
from .errors import DataError

__all__ = [
    "GofReport",
    "anderson_darling",
    "cramer_von_mises",
    "gof_report",
    "info_criteria",
]

_SQRT1_2 = math.sqrt(0.5)


def info_criteria(loglik, k, n):
    """(AIC, AICc, BIC, HQIC) for a fit with k parameters on n points.

    AIC = 2k - 2l; AICc = AIC + 2k(k+1)/(n-k-1); BIC = k ln n - 2l;
    HQIC = 2k ln(ln n) - 2l. Smaller is better. Too few observations
    for AICc (n <= k + 1) or HQIC (n < 3) raise DataError; a negative k
    raises ValueError.
    """
    loglik = float(loglik)
    k = int(k)
    n = int(n)
    if k < 0:
        raise ValueError(f"parameter count must be >= 0, got {k}")
    if n <= k + 1:
        raise DataError(f"AICc undefined for n <= k + 1 (n={n}, k={k})")
    if n < 3:
        raise DataError(f"HQIC undefined for n < 3 (n={n})")
    aic = 2.0 * k - 2.0 * loglik
    aicc = aic + 2.0 * k * (k + 1.0) / (n - k - 1.0)
    bic = k * math.log(n) - 2.0 * loglik
    hqic = 2.0 * k * math.log(math.log(n)) - 2.0 * loglik
    return aic, aicc, bic, hqic


def _validated_sorted(u):
    arr = np.asarray(u, dtype=float).ravel()
    if arr.size == 0:
        raise DataError("EDF statistics require at least one probability value")
    bad = np.nonzero(~(np.isfinite(arr) & (arr > 0.0) & (arr < 1.0)))[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(f"probability value out of (0,1) at index {i}: {float(arr[i])}")
    return np.sort(arr)


def _a2_plain(z):
    n = z.size
    coeff = 2.0 * np.arange(1, n + 1) - 1.0
    logs = np.log(z) + np.log(1.0 - z[::-1])
    return float(-n - np.add.reduce(coeff * logs) / n)


def _w2_plain(z):
    n = z.size
    grid = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return float(np.add.reduce((z - grid) ** 2) + 1.0 / (12.0 * n))


def _a2_modified(z):
    """A-squared of standardized values times 1 + 0.75/n + 2.25/n^2."""
    n = z.size
    return _a2_plain(z) * (1.0 + 0.75 / n + 2.25 / n ** 2)


def _w2_modified(z):
    """W-squared of standardized values times 1 + 0.5/n."""
    return _w2_plain(z) * (1.0 + 0.5 / z.size)


def _ndtri(p):
    """The standard normal quantile at each p in (0, 1) of a 1-d array:
    Wichura's AS 241 (Appl. Statist. 37, 1988), as the standard
    library's NormalDist.inv_cdf computes it (in C where it can), within
    6e-16 relative. statistics is imported at the first call, not with
    the package."""
    from statistics import NormalDist

    return np.fromiter(map(NormalDist().inv_cdf, p.tolist()), float, p.size)


def _ndtr(y):
    """The standard normal cdf at each y of a 1-d array, as
    erfc(-y/sqrt(2))/2: the lower tail keeps its relative digits, and
    above y = 0, where erfc(-y/sqrt(2)) = 2 - erfc(y/sqrt(2)) lies in
    (1, 2), so does the rest. math.erfc runs over the points in C."""
    out = np.fromiter(map(math.erfc, (y * -_SQRT1_2).tolist()), float, y.size)
    out *= 0.5
    return out


def _normal_standardized(z):
    """Map through the normal quantile, standardize, map back. The mean
    and the deviation (ddof = 1) are formed as np.mean and np.std form
    them, bit for bit, with the deviations from the mean taken once."""
    n = z.size
    if n < 2:
        raise DataError("the modified EDF variant requires at least 2 values")
    y = _ndtri(z)
    y -= np.add.reduce(y) / n
    s = math.sqrt(np.add.reduce(y * y) / (n - 1))
    if not s > 0.0:
        raise DataError("degenerate probability values: zero variance after transform")
    y /= s
    return np.sort(_ndtr(y))


def anderson_darling(u, modified=False):
    """Anderson-Darling A-squared on probability values in (0,1).

    Values are sorted internally, so the statistic depends only on the
    multiset. modified=True applies the normal-transform
    standardization and the (1 + 0.75/n + 2.25/n^2) multiplier.
    """
    z = _validated_sorted(u)
    if modified:
        return _a2_modified(_normal_standardized(z))
    return _a2_plain(z)


def cramer_von_mises(u, modified=False):
    """Cramer-von Mises W-squared on probability values in (0,1).

    modified=True applies the normal-transform standardization and the
    (1 + 0.5/n) multiplier.
    """
    z = _validated_sorted(u)
    if modified:
        return _w2_modified(_normal_standardized(z))
    return _w2_plain(z)


@dataclass(frozen=True)
class GofReport:
    """One model's criteria and EDF statistics on one dataset."""

    aic: float
    aicc: float
    bic: float
    hqic: float
    a_squared: float
    w_squared: float
    n: int
    k: int


def gof_report(model, data, theta_hat, loglik):
    """Build a GofReport from a fitted model.

    The EDF statistics use the modified (standardized + multiplied)
    variant; see the module docstring. The PIT values are validated,
    sorted and standardized once for both statistics. Observations that
    are not finite and positive raise DataError.
    """
    x = _positive_observations(data, "gof_report")
    theta = np.asarray(theta_hat, dtype=float)
    u = np.asarray(model.cdf(np.sort(x), theta), dtype=float)
    aic, aicc, bic, hqic = info_criteria(loglik, model.k, x.size)
    z = _normal_standardized(_validated_sorted(u))
    return GofReport(
        aic=aic,
        aicc=aicc,
        bic=bic,
        hqic=hqic,
        a_squared=_a2_modified(z),
        w_squared=_w2_modified(z),
        n=int(x.size),
        k=int(model.k),
    )
