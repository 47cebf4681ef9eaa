"""Baseline distribution bundles consumed by the odds-gamma family.

A BaseDistribution packages the callables the family construction needs:
cdf, log-pdf, quantile, parameter values, the survival side and the
survival odds, derived from the rest where the base does not supply its
own tail-accurate maps. All callables accept scalars or numpy arrays.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["BaseDistribution", "make_exponential"]


@dataclass(frozen=True)
class BaseDistribution:
    """Capability bundle for a continuous baseline on an interval support.

    name, cdf, log_pdf, quantile, support and params are required; the
    four survival-side maps and the odds are derived when omitted.

    Parameters
    ----------
    name : str
        Identifier used in diagnostics.
    cdf, log_pdf, quantile : callable
        The usual maps; quantile takes u in [0, 1].
    support : (float, float)
        Open interval of positive density; endpoints may be infinite.
    params : tuple of float
        Baseline parameter values, in a fixed documented order.
    sf, isf, log_sf, log_isf : callable, optional
        sf(x) = 1 - cdf(x), isf(s) = x with sf(x) = s, and their log-space
        forms ln sf(x) and ln s -> x. Derived as 1 - cdf, quantile(1 - s),
        log(sf), and quantile(-expm1(ln s)) above ln s = -ln 2 and
        isf(exp(ln s)) at or below it. The family forms the log odds from
        log_sf and maps every draw, quadrature node and quantile through
        log_isf. The derived maps lose the deep upper tail: 1 - cdf
        cancels there, and once ln s < -745 exp(ln s) rounds to 0, where
        the derived log_isf returns isf(0), the top of the support. At
        small alpha the family's upper tail lies there, so draws read the
        top of the support and expectations can raise (with the
        exponential base's log_isf replaced by the derived one,
        moment_quadrature(2) raises NumericalError at alpha = 0.05). A
        base whose deep tail matters supplies its own maps, accurate at
        every level.
    tail_rate : float, optional
        Exponential decay rate of sf at the upper end of the support,
        when known. Consumers use it for moment-generating domains.
    odds : callable, optional
        The survival odds w(x) = sf(x)/cdf(x), +inf where cdf(x) = 0 and
        nan for nan, returned as a new array. Derived as exactly that
        quotient of the two maps, so neither tail loses digits to the
        subtraction 1 - cdf. The family's cdf, sf and log-density read
        it at every point, so a base with a closed form supplies it.
    """

    name: str
    cdf: Callable
    log_pdf: Callable
    quantile: Callable
    support: Tuple[float, float]
    params: Tuple[float, ...]
    sf: Optional[Callable] = None
    log_sf: Optional[Callable] = None
    isf: Optional[Callable] = None
    log_isf: Optional[Callable] = None
    tail_rate: Optional[float] = None
    odds: Optional[Callable] = None

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise ValueError(f"empty support ({lo}, {hi})")
        derived = {
            "sf": lambda x: 1.0 - self.cdf(x),
            "isf": lambda s: self.quantile(1.0 - np.asarray(s)),
            "log_sf": lambda x: _log_of(self.sf(x)),
            "log_isf": lambda log_s: _isf_of_log(self, log_s),
            "odds": lambda x: _odds_of(self, x),
        }
        for name, default in derived.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)


def _log_of(s):
    """log(s), -inf where s is 0: the derived log_sf."""
    with np.errstate(divide="ignore"):
        return np.log(s)


def _odds_of(base, x):
    """The derived odds: sf/cdf, +inf where cdf is 0, nan for nan."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(base.cdf(x), dtype=float)
    s = np.asarray(base.sf(x), dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.where(c > 0.0, s / c, np.inf)
    return np.where(np.isnan(x), np.nan, w)


def _isf_of_log(base, log_s):
    """The derived log_isf: base.quantile(1 - s) above ln s = -ln 2 and
    base.isf(s) at or below it, with 1 - s = -expm1(ln s)."""
    log_s = np.asarray(log_s, dtype=float)
    upper = log_s > np.log(0.5)
    lower = ~upper
    out = np.empty(log_s.shape)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        if upper.any():
            out[upper] = base.quantile(-np.expm1(log_s[upper]))
        if lower.any():
            out[lower] = base.isf(np.exp(log_s[lower]))
    return out


def make_exponential(lam):
    """Exponential baseline with rate lam on (0, inf).

    cdf(x) = 1 - exp(-lam x). The survival side is exact: sf is a plain
    exponential and isf(s) = -ln(s)/lam, so tail round trips do not lose
    precision to the 1 - u subtraction; log_sf(x) = -lam x and
    log_isf(ln s) = -ln(s)/lam reach survival levels below double range.
    The odds are 1/expm1(lam x), formed in place in one new array: +inf
    for x <= 0, and 0 where expm1 overflows. The maps test x <= 0, which
    is false for nan, so nan gives nan.
    """
    if not (lam > 0.0 and np.isfinite(lam)):
        raise ValueError(f"exponential rate must be positive and finite, got {lam}")
    lam = float(lam)
    log_lam = np.log(lam)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-lam * np.maximum(x, 0.0)))

    def sf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 1.0, np.exp(-lam * np.maximum(x, 0.0)))

    def log_sf(x):
        return -lam * np.maximum(np.asarray(x, dtype=float), 0.0)

    def log_pdf(x):
        x = np.asarray(x, dtype=float)
        out = np.multiply(x, lam, out=np.empty(x.shape))
        np.subtract(log_lam, out, out=out)
        out[x <= 0.0] = -np.inf
        return out

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

    def odds(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            w = np.multiply(x, lam, out=np.empty(x.shape))
            np.expm1(w, out=w)
            np.divide(1.0, w, out=w)
        w[x <= 0.0] = np.inf
        return w

    return BaseDistribution(
        name="exponential",
        cdf=cdf,
        log_pdf=log_pdf,
        quantile=quantile,
        support=(0.0, np.inf),
        params=(lam,),
        sf=sf,
        log_sf=log_sf,
        isf=isf,
        log_isf=log_isf,
        tail_rate=lam,
        odds=odds,
    )
