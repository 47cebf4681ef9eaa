"""Quadrature engines: a tanh-sinh rule on the quantile map, and
level-synchronous, vector-valued adaptive Gauss-Legendre.

tanh_sinh integrates f(x(u)) du over (0, 1) for a quantile map x, split
at the median: the head maps its nodes through x(u) and the tail
through x(1 - u), so neither side loses digits to 1 - u. On that map
the expectations of the family have only algebraic or logarithmic
endpoint singularities, which the double-exponential substitution
u = 1/(1 + e^{-pi sinh t}) integrates at a rate exp(-c/h) in the step h
(Takahasi & Mori 1974; Mori & Sugihara 2001). Each level halves h and
reuses every earlier node, and a component is accepted when two
successive levels agree to 1e-13 of the integral of its magnitude, so
the answer is accurate relative to its own size at every scale. The
divergence verdict comes from the outermost nodes: the local power law
of the integrand there says whether the part beyond them is integrable
and bounds its size.

adaptive_quad bisects breadth first: each refinement level evaluates
the 15-node rule on every active panel in one integrand call, so the
Python cost is paid per level, not per panel. The integrand may be
vector valued, returning one column per component; a panel is accepted
only when every component passes the tolerance test, so each component
is refined at least as far as it would be on its own. Several
intervals can share one run, each with its own tolerance share and its
own panel budget. windowed_quad puts the expanding windows toward a
singular lower endpoint, and the sliver closing on it, into one such
run and makes the Cauchy divergence verdict per component, so
non-integrable integrands are detected instead of silently mis-summed;
the tau functionals of the series use it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NumericalError

__all__ = ["adaptive_quad", "tanh_sinh", "tanh_sinh_levels", "windowed_quad", "WindowedResult"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

# Expanding-window radii are (b - a) * 10^-d for these d; the Cauchy
# check inspects the last window increments.
_WINDOW_DEPTHS = range(2, 13)

# refinement caps: bisections of one panel, and panel evaluations of
# one interval. Without the panel cap an integrand whose own rounding
# noise exceeds the tolerance is refined to floating-point resolution,
# with every active panel held in memory.
_MAX_LEVELS = 60
_MAX_PANELS = 20_000

# integrand values (nodes x components) per integrand call; a level
# with more is evaluated in blocks, so peak memory does not grow with
# the number of panels or components
_BLOCK = 1 << 16

# tanh-sinh: level n steps t by 2^-(n+3), up to the t where the level
# s = 1/(1 + e^{pi sinh t}) reaches the smallest normal number. The
# level cap bounds the work at about 25,000 nodes a side; the moments
# and entropies settle by level 2, an oscillating cf integrand needs
# deeper levels the faster it turns
_TS_LEVELS = 10
_TS_TOL = 1e-13
_TS_T_MAX = math.asinh(-math.log(np.finfo(float).tiny) / math.pi)
_TS_SIDES = ("u", "1 - u")


@functools.cache
def _ts_new(level):
    """(t, s, w) at the nodes that level adds, in increasing t: every
    t = k h for level 0, the odd multiples of h after, h = 2^-(level+3).
    s = 1/(1 + e^{pi sinh t}) and w = ds/dt = pi cosh t s (1 - s); the
    t = 0 weight is halved, because that node lies on both halves."""
    h = 2.0 ** -(level + 3)
    first, stride = (0, 1) if level == 0 else (1, 2)
    t = h * np.arange(first, int(_TS_T_MAX / h) + 1, stride)
    e = np.exp(-math.pi * np.sinh(t))
    s = e / (1.0 + e)
    w = math.pi * np.cosh(t) * s / (1.0 + e)
    if level == 0:
        w[0] *= 0.5
    for a in (t, s, w):
        a.flags.writeable = False
    return t, s, w


def tanh_sinh_levels(level):
    """The levels s of the nodes tanh_sinh's level adds, in increasing
    t: each sits at u = s on the head and at 1 - u = s on the tail."""
    return _ts_new(level)[1]


def _interleave(old, new):
    """The level's grid from the last one's (even positions) and the
    nodes it adds (odd positions), along the last axis."""
    out = np.empty(old.shape[:-1] + (old.shape[-1] + new.shape[-1],))
    out[..., 0::2] = old
    out[..., 1::2] = new
    return out


def tanh_sinh(f, abscissae):
    """Integrate f(x(u)) du over (0, 1) by the tanh-sinh rule, split at
    the median.

    abscissae(level) returns (head, tail): x at u = s and at 1 - u = s
    for s = tanh_sinh_levels(level), nan where the map has left the
    support; such a node and every node farther out on its side are
    left out. f maps a 1-D array of abscissae to one value per node,
    shape (n,), or to R components, shape (n, R), once per level.

    Level n steps t by 2^-(n+3). A component is accepted at the first
    level whose sum agrees with the level before to 1e-13 of the
    integral of its magnitude, and reports that sum, so its value does
    not depend on the other components. At each side's outermost node
    the integrand behaves like s^p: a non-finite sum or p <= -1 is a
    DivergenceError, and a part beyond the nodes, s|f|/(1 + p), above
    1e-13 of that integral a NumericalError, as is a component still
    unsettled after ten levels.

    Returns (value, errors): a float, or an array of R for a
    vector-valued f, and per component None or the exception saying why
    it failed.
    """
    cut = [math.inf, math.inf]
    for level in range(_TS_LEVELS):
        h = 2.0 ** -(level + 3)
        t_new, s_new, w_new = _ts_new(level)
        xs = abscissae(level)
        for side, x in enumerate(xs):
            bad = t_new[~np.isfinite(x)]
            if bad.size:
                cut[side] = min(cut[side], bad[0])
        keep = [t_new < c for c in cut]
        # values that overflow are the divergence verdict's to judge
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(np.concatenate([x[k] for x, k in zip(xs, keep)])),
                              dtype=float)
        if level == 0:
            vector = vals.ndim == 2
            r = vals.shape[1] if vector else 1
            value, errors, todo = np.zeros(r), [None] * r, np.ones(r, dtype=bool)
        # component-major, so each component's sums run over one
        # contiguous row and do not depend on the other components
        vals = vals.reshape(-1, r).T
        new = np.full((2, r, t_new.size), np.nan)
        n_head = np.count_nonzero(keep[0])
        new[0][:, keep[0]], new[1][:, keep[1]] = vals[:, :n_head], vals[:, n_head:]
        if level == 0:
            s, w, y = s_new, w_new, new
        else:
            s, w, y = (_interleave(a, b) for a, b in ((s, s_new), (w, w_new), (y, new)))

        total, scale, prev = np.zeros((3, r))
        edges = []
        for side, c in enumerate(cut):
            # the grid's nodes k h < c; the outermost, k, is read against
            # the node j at 1/2 further in for the power law s^p there
            m = s.size if c == math.inf else min(s.size, round(c / h))
            k, j = m - 1, max(m - 1 - round(0.5 / h), 0)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                terms = w[:m] * y[side, :, :m]
                total += h * terms.sum(axis=1)
                scale += h * np.abs(terms).sum(axis=1)
                prev += 2.0 * h * terms[:, ::2].sum(axis=1)
                yk = np.abs(y[side, :, k])
                p = np.log(yk / np.abs(y[side, :, j])) / math.log(s[k] / s[j])
                bound = np.where(yk == 0.0, 0.0, s[k] * yk / (1.0 + p))
            edges.append((_TS_SIDES[side], s[k], p, bound))
        tol = _TS_TOL * scale
        for i in np.flatnonzero(todo & ~np.isfinite(total)):
            errors[i] = DivergenceError("the integrand is not finite at every node")
        for name, s_k, p, bound in edges:
            for i in np.flatnonzero(todo):
                if errors[i] is not None:
                    continue
                if p[i] <= -1.0:
                    errors[i] = DivergenceError(
                        f"the integrand grows like ({name})^{p[i]:.3g} as {name} -> 0, "
                        "which is not integrable")
                elif not bound[i] <= tol[i]:
                    errors[i] = NumericalError(
                        f"the integrand behaves like ({name})^{p[i]:.3g} beyond the last "
                        f"node at {name} = {s_k:.3g}, which leaves up to {bound[i]:.3g} "
                        f"unsummed, above {_TS_TOL:g} of {scale[i]:.3g}")
        with np.errstate(invalid="ignore"):
            diff = np.abs(total - prev)
        done = np.array([e is not None for e in errors])
        if level:
            done |= diff <= tol
        value = np.where(todo, total, value)
        todo &= ~done
        if not todo.any():
            break
    for i in np.flatnonzero(todo):
        errors[i] = NumericalError(
            f"tanh-sinh levels still differ by {diff[i]:.3g} after {_TS_LEVELS} "
            f"levels, above {_TS_TOL:g} of {scale[i]:.3g}")
    return (value if vector else float(value[0])), errors


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


def adaptive_quad(f, a, b, abs_tol=1e-10, max_panels=_MAX_PANELS):
    """Integrate f over (a, b) by adaptive 15-point Gauss-Legendre.

    f must accept a 1-D array of nodes and return either one value per
    node, shape (n,), or one row of R components per node, shape (n, R).
    An interval is accepted when bisecting it moves every component by
    at most its width-proportional share of abs_tol, or by at most
    1e-13 of its new estimate, or when it has been bisected 60 times.
    A component whose estimate is no longer finite counts as settled.
    Endpoints are never evaluated, so integrable endpoint singularities
    are fine.

    a and b may also be 1-D arrays of equal length: each interval
    (a[i], b[i]) is then integrated on its own, with abs_tol shared in
    proportion to its own width, and the result gains a leading axis.

    max_panels (20,000 by default) bounds the number of panel
    evaluations of each interval; on exhaustion its remaining panels
    keep their current estimates.
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
    budget = int(max_panels)
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
            if level >= _MAX_LEVELS:
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


def _windows(a, b):
    """(lo, hi) of the expanding windows toward a, outermost first: the
    window d spans a + (b - a) * 10^-d to the edge of window d - 1."""
    edges = [a + (b - a) * 10.0 ** (-d) for d in _WINDOW_DEPTHS]
    return edges, [b] + edges[:-1]


def _cauchy_test(windows, abs_tol):
    """The window check, per component of windows (windows x components).

    Returns (running, nonfinite, cauchy): the windows' sum, where it is
    not finite, and where the two innermost increments fail to shrink
    while still above the floor.
    """
    increments = np.abs(windows[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        running = windows.sum(axis=0)
    floor = np.maximum(abs_tol, 1e-14 * np.maximum(np.abs(running), 1.0))
    last, second, third = increments[-1], increments[-2], increments[-3]
    nonfinite = ~np.isfinite(running)
    cauchy = (
        ~nonfinite & (last > floor) & (last >= 0.95 * second) & (second >= 0.95 * third)
    )
    return running, nonfinite, cauchy


def _windows_diverge(f, a, b, abs_tol):
    """windowed_quad's window verdict alone, per component: True where
    the windows already show divergence. The sliver is not integrated,
    so False does not rule out a non-finite sliver.

    Each window gets the same nodes, tolerance share and panel budget
    as in windowed_quad, so a component's window integrals, and hence
    its verdict, equal those of a windowed_quad run on that component
    alone.
    """
    los, his = _windows(a, b)
    pieces = adaptive_quad(f, np.array(los), np.array(his), abs_tol=abs_tol,
                           max_panels=_MAX_PANELS)
    _, nonfinite, cauchy = _cauchy_test(pieces.reshape(len(los), -1), abs_tol)
    return nonfinite | cauchy


def windowed_quad(f, a, b, abs_tol=1e-10):
    """Integrate f over (a, b) with a possible singularity at a.

    The neighbourhood of a is peeled off in windows at radii
    (b - a) * 10^-d, d = 2..12. The window increments of an integrable
    singularity shrink; if the two innermost increments
    fail to shrink while still being non-negligible, the integral is
    declared divergent and no value is trusted. Otherwise the remaining
    sliver next to the endpoint is added (its panels never touch the
    endpoint itself). The windows and the sliver are integrated in one
    adaptive run; f may be vector valued, and the verdict is then made
    per component.
    """
    if not b - a > 0.0:
        return WindowedResult(0.0, False, "")
    los, his = _windows(a, b)
    # pull the singular endpoint in by one ulp: panel nodes this close
    # can otherwise round exactly onto the singularity
    inner = los[-1]
    los.append(float(np.nextafter(a, inner)))
    his.append(inner)

    # per-window work bound: integrands evaluated this close to an
    # endpoint can carry cancellation noise above the tolerance, and the
    # Cauchy verdict only needs the increments' order of magnitude
    pieces = adaptive_quad(f, np.array(los), np.array(his), abs_tol=abs_tol,
                           max_panels=_MAX_PANELS)
    vector = pieces.ndim == 2
    pieces = pieces.reshape(len(los), -1)
    running, nonfinite, cauchy = _cauchy_test(pieces[:-1], abs_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        value = running + pieces[-1]
    # a component that fails a window check reports the windows' sum alone
    value = np.where(nonfinite | cauchy, running, value)
    diverged = nonfinite | cauchy | ~np.isfinite(value)
    details = [""] * running.size
    for i in np.flatnonzero(diverged):
        if nonfinite[i]:
            details[i] = "non-finite window increment"
        elif cauchy[i]:
            third, second, last = np.abs(pieces[-4:-1, i])
            details[i] = (
                "window increments near the lower endpoint fail the "
                f"Cauchy criterion (last three: {third:.3e}, {second:.3e}, "
                f"{last:.3e})"
            )
        else:
            details[i] = "non-finite endpoint sliver"
    if vector:
        return WindowedResult(value, diverged, tuple(details))
    return WindowedResult(float(value[0]), bool(diverged[0]), details[0])
