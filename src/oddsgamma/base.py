"""Baseline distribution bundles consumed by the odds-gamma family.

A BaseDistribution packages the callables the family construction needs:
cdf, pdf, log-pdf, quantile, parameter values, and (optionally)
tail-accurate survival-side companions. All callables accept scalars or
numpy arrays.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["BaseDistribution", "make_exponential"]


@dataclass(frozen=True)
class BaseDistribution:
    """Capability bundle for a continuous baseline on an interval support.

    Parameters
    ----------
    name : str
        Identifier used in diagnostics.
    cdf, pdf, log_pdf, quantile : callable
        The usual maps; quantile takes u in (0, 1).
    support : (float, float)
        Open interval of positive density; endpoints may be infinite.
    params : tuple of float
        Baseline parameter values, in a fixed documented order.
    sf : callable, optional
        Survival function 1 - cdf evaluated without cancellation. When
        omitted it is derived from cdf (loses accuracy deep in the tail).
    log_sf : callable, optional
        Log of the survival function, finite where sf underflows. The
        family's log-density forms the log odds from it; without it they
        come from log(sf).
    isf : callable, optional
        Inverse survival: s -> x with sf(x) = s. Derived from quantile
        when omitted.
    log_isf : callable, optional
        Inverse survival in log space: log s -> x with sf(x) = s,
        accurate at every level, not only below double range. The family
        maps every draw and every underflowing odds value through it;
        without it both are mapped in linear space, and at small alpha
        the deep upper tail is then out of reach: odds that underflow
        to 0 map to x = inf, so the expectations raise where the
        truncated mass is tiny (with the exponential base stripped of
        log_isf, moment_quadrature(2) raises NumericalError at
        alpha = 0.05).
    tail_rate : float, optional
        Exponential decay rate of sf at the upper end of the support,
        when known. Consumers use it for moment-generating domains.
    """

    name: str
    cdf: Callable
    pdf: Callable
    log_pdf: Callable
    quantile: Callable
    support: Tuple[float, float]
    params: Tuple[float, ...]
    sf: Optional[Callable] = None
    log_sf: Optional[Callable] = None
    isf: Optional[Callable] = None
    log_isf: Optional[Callable] = None
    tail_rate: Optional[float] = None

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise ValueError(f"empty support ({lo}, {hi})")
        if self.sf is None:
            object.__setattr__(self, "sf", lambda x: 1.0 - self.cdf(x))
        if self.isf is None:
            object.__setattr__(self, "isf", lambda s: self.quantile(1.0 - np.asarray(s)))


def make_exponential(lam):
    """Exponential baseline with rate lam on (0, inf).

    cdf(x) = 1 - exp(-lam x). The survival side is exact: sf is a plain
    exponential and isf(s) = -ln(s)/lam, so tail round trips do not lose
    precision to the 1 - u subtraction; log_sf(x) = -lam x and
    log_isf(ln s) = -ln(s)/lam reach survival levels below double range.
    The maps test x <= 0, which is false for nan, so nan gives nan.
    """
    if not (lam > 0.0 and np.isfinite(lam)):
        raise ValueError(f"exponential rate must be positive and finite, got {lam}")
    lam = float(lam)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-lam * np.maximum(x, 0.0)))

    def sf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 1.0, np.exp(-lam * np.maximum(x, 0.0)))

    def log_sf(x):
        return -lam * np.maximum(np.asarray(x, dtype=float), 0.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, lam * np.exp(-lam * np.maximum(x, 0.0)))

    def log_pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, -np.inf, np.log(lam) - lam * x)

    def quantile(u):
        u = np.asarray(u, dtype=float)
        if not ((u >= 0.0) & (u <= 1.0)).all():  # false for nan too
            raise ValueError("quantile requires u in [0, 1]")
        with np.errstate(divide="ignore"):
            return -np.log1p(-u) / lam

    def isf(s):
        s = np.asarray(s, dtype=float)
        if not ((s >= 0.0) & (s <= 1.0)).all():  # false for nan too
            raise ValueError("isf requires s in [0, 1]")
        with np.errstate(divide="ignore"):
            return -np.log(s) / lam

    def log_isf(log_s):
        return -np.asarray(log_s, dtype=float) / lam

    return BaseDistribution(
        name="exponential",
        cdf=cdf,
        pdf=pdf,
        log_pdf=log_pdf,
        quantile=quantile,
        support=(0.0, np.inf),
        params=(lam,),
        sf=sf,
        log_sf=log_sf,
        isf=isf,
        log_isf=log_isf,
        tail_rate=lam,
    )
