"""The package's one quadrature engine: a tanh-sinh rule on a quantile
map.

tanh_sinh integrates f(x(u)) du over (0, 1) for a quantile map x, split
at the median: the head maps its nodes through x(u) and the tail
through x(1 - u), so neither side loses digits to 1 - u. On that map
the expectations of the family and the tau functionals of its series
have only algebraic or logarithmic endpoint singularities, which the
double-exponential substitution u = 1/(1 + e^{-pi sinh t}) integrates
at a rate exp(-c/h) in the step h (Takahasi & Mori 1974; Mori &
Sugihara 2001). Each level halves h and reuses every earlier node, and
a component is accepted when two successive levels agree to 1e-13 of
the integral of its magnitude, so the answer is accurate relative to
its own size at every scale. The divergence verdict comes from the
outermost nodes: the local power law of the integrand there says
whether the part beyond them is integrable and bounds its size. The
integrand may be vector valued, one column per component, with a value
and a verdict per component.
"""

import functools
import math

import numpy as np

from .errors import DivergenceError, NumericalError

__all__ = ["tanh_sinh", "tanh_sinh_levels"]

# perfbench/tracing.py patches this name; nothing in the library calls it
adaptive_quad = None

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
