"""Level-synchronous, vector-valued adaptive Gauss-Legendre quadrature.

adaptive_quad bisects breadth first: each refinement level evaluates
the 15-node rule on every active panel in one integrand call, so the
Python cost is paid per level, not per panel. The integrand may be
vector valued, returning one column per component; a panel is accepted
only when every component passes the tolerance test, so each component
is refined at least as far as it would be on its own. Several
intervals can share one run, each with its own tolerance share and its
own panel budget. windowed_quad puts the expanding windows toward a
singular endpoint, and the sliver closing on it, into one such run and
makes the Cauchy divergence verdict per component, so non-integrable
integrands are detected instead of silently mis-summed.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["adaptive_quad", "windowed_quad", "WindowedResult"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

# Expanding-window radii are (b - a) * 10^-d for these d; the Cauchy
# check inspects the last window increments.
_WINDOW_DEPTHS = range(2, 13)

# integrand values (nodes x components) per integrand call; a level
# with more is evaluated in blocks, so peak memory does not grow with
# the number of panels or components
_BLOCK = 1 << 16


def _rule(f, lo, hi, step):
    """15-node Gauss-Legendre estimates on the panels (lo[i], hi[i]).

    Evaluates step panels per integrand call. Returns the estimates,
    shape (n, R) with R = 1 for a scalar-valued f, and whether f is
    vector valued.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    out = []
    vector = False
    for start in range(0, lo.size, step):
        sl = slice(start, start + step)
        x = (mid[sl, None] + half[sl, None] * _NODES).ravel()
        y = np.asarray(f(x), dtype=float)
        if y.ndim == 0:
            y = np.full(x.shape, float(y))
        vector = y.ndim == 2
        y = y.reshape(-1, _NODES.size, y.shape[1] if vector else 1)
        with np.errstate(over="ignore", invalid="ignore"):
            out.append(half[sl, None] * np.matmul(_WEIGHTS, y))
    return np.concatenate(out), vector


def adaptive_quad(f, a, b, abs_tol=1e-10, max_levels=60, max_panels=None):
    """Integrate f over (a, b) by adaptive 15-point Gauss-Legendre.

    f must accept a 1-D array of nodes and return either one value per
    node, shape (n,), or one row of R components per node, shape (n, R).
    An interval is accepted when bisecting it moves every component by
    at most its width-proportional share of abs_tol, or by at most
    1e-13 of its new estimate, or when it has been bisected max_levels
    times. A component whose estimate is no longer finite counts as
    settled. Endpoints are never evaluated, so integrable endpoint
    singularities are fine.

    a and b may also be 1-D arrays of equal length: each interval
    (a[i], b[i]) is then integrated on its own, with abs_tol shared in
    proportion to its own width, and the result gains a leading axis.

    max_panels, when given, bounds the number of panel evaluations of
    each interval; on exhaustion its remaining panels keep their current
    estimates. An integrand whose own rounding noise exceeds the
    tolerance can otherwise force refinement all the way to
    floating-point resolution.
    """
    lo = np.atleast_1d(np.asarray(a, dtype=float))
    hi = np.atleast_1d(np.asarray(b, dtype=float))
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("adaptive_quad requires a and b of one shape, scalar or 1-D")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("adaptive_quad requires finite endpoints")
    if np.any(hi < lo):
        raise ValueError(f"adaptive_quad requires b >= a, got ({a}, {b})")
    single = np.ndim(a) == 0 and np.ndim(b) == 0
    n = lo.size
    live = np.flatnonzero(hi > lo)
    if not live.size:
        return 0.0 if single else np.zeros(n)
    budget = np.inf if max_panels is None else int(max_panels)
    inv_width = 1.0 / (hi[live] - lo[live])
    # active panels, kept ordered by the interval (group) they refine
    grp = np.arange(live.size)
    lo, hi = lo[live], hi[live]
    # one panel first, to learn the component count that sizes the blocks
    est, vector = _rule(f, lo[:1], hi[:1], 1)
    step = max(1, _BLOCK // (_NODES.size * est.shape[1]))
    if lo.size > 1:
        est = np.concatenate((est, _rule(f, lo[1:], hi[1:], step)[0]))
    total = np.zeros((live.size, est.shape[1]))
    used = np.ones(live.size)
    level = 0
    while grp.size:
        mid = 0.5 * (lo + hi)
        # an interval at floating-point resolution keeps its estimate
        cand = np.flatnonzero((mid > lo) & (mid < hi))
        if budget < np.inf and cand.size:
            # bisect a group's panels in order while its budget lasts
            g = grp[cand]
            rank = np.arange(g.size) - np.searchsorted(g, g)
            cand = cand[used[g] + 2.0 * rank < budget]
            used += 2.0 * np.bincount(grp[cand], minlength=live.size)
        stay = np.ones(grp.size, dtype=bool)
        stay[cand] = False
        # non-finite sums are the callers' verdict to make
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(total, grp[stay], est[stay])
        if not cand.size:
            break
        g, l, m, h = grp[cand], lo[cand], mid[cand], hi[cand]
        halves = _rule(f, np.stack((l, m), 1).ravel(), np.stack((m, h), 1).ravel(), step)[0]
        halves = halves.reshape(cand.size, 2, -1)
        tol = abs_tol * (h - l) * inv_width[g]
        with np.errstate(over="ignore", invalid="ignore"):
            better = halves[:, 0] + halves[:, 1]
            err = np.abs(better - est[cand])
            # second clause: stop chasing roundoff when the integrand is
            # large; third: a component that is no longer finite does not
            # hold the others back, its sum stays non-finite either way
            ok = np.all(
                (err <= tol[:, None]) | (err <= 1e-13 * np.abs(better))
                | ~np.isfinite(better),
                axis=1,
            )
            if level >= max_levels:
                ok[:] = True
            np.add.at(total, g[ok], better[ok])
        more = ~ok
        grp = np.repeat(g[more], 2)
        lo = np.stack((l[more], m[more]), 1).ravel()
        hi = np.stack((m[more], h[more]), 1).ravel()
        est = halves[more].reshape(-1, halves.shape[2])
        level += 1
    out = np.zeros((n, total.shape[1]))
    out[live] = total
    if not vector:
        out = out[:, 0]
    if single:
        return out[0] if vector else float(out[0])
    return out


@dataclass(frozen=True)
class WindowedResult:
    """Value, divergence verdict and its explanation ("" when none).

    For a vector-valued integrand value and diverged are arrays with one
    entry per component and detail is a tuple of strings.
    """

    value: float
    diverged: bool
    detail: str


def windowed_quad(f, a, b, singular_end, abs_tol=1e-10, max_levels=60):
    """Integrate f over (a, b) with a possible singularity at one endpoint.

    The neighbourhood of singular_end ("lower" or "upper") is peeled off
    in windows at radii (b - a) * 10^-d, d = 2..12. The window increments
    of an integrable singularity shrink; if the two innermost increments
    fail to shrink while still being non-negligible, the integral is
    declared divergent and no value is trusted. Otherwise the remaining
    sliver next to the endpoint is added (its panels never touch the
    endpoint itself). The windows and the sliver are integrated in one
    adaptive run; f may be vector valued, and the verdict is then made
    per component.
    """
    if singular_end not in ("lower", "upper"):
        raise ValueError("singular_end must be 'lower' or 'upper'")
    width = b - a
    if not width > 0.0:
        return WindowedResult(0.0, False, "")
    upper = singular_end == "upper"
    edges = [b - width * 10.0 ** (-d) if upper else a + width * 10.0 ** (-d)
             for d in _WINDOW_DEPTHS]
    outer = [a if upper else b] + edges[:-1]
    # pull the singular endpoint in by one ulp: panel nodes this close
    # can otherwise round exactly onto the singularity
    if upper:
        los = outer + [edges[-1]]
        his = edges + [float(np.nextafter(b, edges[-1]))]
    else:
        los = edges + [float(np.nextafter(a, edges[-1]))]
        his = outer + [edges[-1]]

    # per-window work bound: integrands evaluated this close to an
    # endpoint can carry cancellation noise above the tolerance, and the
    # Cauchy verdict only needs the increments' order of magnitude
    panel_budget = 20_000
    pieces = adaptive_quad(f, np.array(los), np.array(his), abs_tol=abs_tol,
                           max_levels=max_levels, max_panels=panel_budget)
    vector = pieces.ndim == 2
    pieces = pieces.reshape(len(los), -1)
    windows, closing = pieces[:-1], pieces[-1]
    increments = np.abs(windows[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        running = windows.sum(axis=0)
        value = running + closing
    floor = np.maximum(abs_tol, 1e-14 * np.maximum(np.abs(running), 1.0))
    last, second, third = increments[-1], increments[-2], increments[-3]
    nonfinite = ~np.isfinite(running)
    cauchy = (
        ~nonfinite & (last > floor) & (last >= 0.95 * second) & (second >= 0.95 * third)
    )
    # a component that fails a window check reports the windows' sum alone
    value = np.where(nonfinite | cauchy, running, value)
    diverged = nonfinite | cauchy | ~np.isfinite(value)
    details = [""] * running.size
    for i in np.flatnonzero(diverged):
        if nonfinite[i]:
            details[i] = "non-finite window increment"
        elif cauchy[i]:
            details[i] = (
                f"window increments near the {singular_end} endpoint fail the "
                f"Cauchy criterion (last three: {third[i]:.3e}, {second[i]:.3e}, "
                f"{last[i]:.3e})"
            )
        else:
            details[i] = "non-finite endpoint sliver"
    if vector:
        return WindowedResult(value, diverged, tuple(details))
    return WindowedResult(float(value[0]), bool(diverged[0]), details[0])
