"""The package's one quadrature engine: a tanh-sinh rule on a quantile
map.

tanh_sinh integrates f(x(u)) du over (0, 1) for a quantile map x, split
at the median: the head maps its nodes through x(u) and the tail
through x(1 - u), so neither side loses digits to 1 - u. On that map
the expectations of the family and the tau functionals of its series
have only algebraic or logarithmic endpoint singularities, which the
double-exponential substitution u = 1/(1 + e^{-pi sinh t}) integrates
at a rate exp(-c/h) in the step h (Takahasi & Mori 1974; Mori &
Sugihara 2001). Each level halves h and evaluates and sums only the
nodes it adds: the sums of earlier levels are kept, and re-summed only
where a cut moves inward past their nodes. A component is accepted
when two successive levels agree to 1e-13 of the integral of its
magnitude, so the answer is accurate relative to its own size at
every scale. The divergence verdict comes from the outermost nodes:
the local power law of the integrand there says whether the part
beyond them is integrable and bounds its size. The integrand may be
vector valued, one column per component, with a value and a verdict
per component.
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


def _level_sums(level, y):
    """Rows 0 and 1: the sum and the sum of magnitudes of w y per row of
    y, the level's values at its first y.shape[1] nodes, one C-contiguous
    row per component."""
    terms = _ts_new(level)[2][:y.shape[1]] * y
    return np.array([terms.sum(axis=1), np.abs(terms).sum(axis=1)])


def _grid_node(ys, i, level):
    """(s, values) at index i of the level's grid of t = i h, read from
    the level that added that node: level - v for i = 2^v times odd,
    level 0 where v >= level. Values past the level's kept nodes are nan."""
    v = min((i & -i).bit_length() - 1 if i else level, level)
    src, idx = level - v, i >> (v + (v < level))
    y = ys[src]
    return _ts_new(src)[1][idx], y[:, idx] if idx < y.shape[1] else np.full(len(y), np.nan)


def tanh_sinh(f, abscissae):
    """Integrate f(x(u)) du over (0, 1) by the tanh-sinh rule, split at
    the median.

    abscissae(level) returns (head, tail): x at u = s and at 1 - u = s
    for s = tanh_sinh_levels(level), nan where the map has left the
    support; such a node and every node farther out on its side are
    left out. f maps a 1-D array of abscissae to one value per node,
    shape (n,), or to R components, shape (n, R), once per level.

    Level n steps t by 2^-(n+3), and f sees and the rule sums only the
    nodes it adds; an earlier level is re-summed only when a nan moves
    its side's cut inward past that level's kept nodes. A component is
    accepted at the first level whose sum agrees with the level before
    to 1e-13 of the integral of its magnitude, and reports that sum, so
    its value does not depend on the other components. At each side's
    outermost node the integrand behaves like s^p: a non-finite sum or
    p <= -1 is a DivergenceError, and a part beyond the nodes,
    s|f|/(1 + p), above 1e-13 of that integral a NumericalError, as is
    a component still unsettled after ten levels.

    Returns (value, errors): a float, or an array of R for a
    vector-valued f, and per component None or the exception saying why
    it failed.
    """
    cut = [math.inf, math.inf]
    # per side and level: the values at the level's kept nodes, one
    # C-contiguous row per component so that its sums do not depend on
    # the other components, and their _level_sums; acc[side] adds those
    ys, sums = ([], []), ([], [])
    for level in range(_TS_LEVELS):
        h = 2.0 ** -(level + 3)
        t_new = _ts_new(level)[0]
        xs = abscissae(level)
        moved = [False, False]
        for side, x in enumerate(xs):
            bad = t_new[~np.isfinite(x)]
            if bad.size and bad[0] < cut[side]:
                cut[side], moved[side] = bad[0], True
        n = [int(np.searchsorted(t_new, c)) for c in cut]
        # values that overflow are the divergence verdict's to judge
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(np.concatenate([xs[0][:n[0]], xs[1][:n[1]]])), dtype=float)
        if level == 0:
            vector = vals.ndim == 2
            r = vals.shape[1] if vector else 1
            value, errors, todo = np.zeros(r), [None] * r, np.ones(r, dtype=bool)
            acc = [np.zeros((2, r))] * 2
        vals = vals.reshape(-1, r).T
        size = int(_TS_T_MAX / h) + 1  # the level's grid is t = i h, i < size
        old, edges = [], []
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for side, c in enumerate(cut):
                lo = n[0] if side else 0
                ys[side].append(np.ascontiguousarray(vals[:, lo:lo + n[side]]))
                sums[side].append(_level_sums(level, ys[side][-1]))
                if moved[side]:
                    # re-sum each earlier level whose kept nodes reach
                    # past the cut, which has moved inward
                    for lv, y in enumerate(ys[side][:-1]):
                        m = int(np.searchsorted(_ts_new(lv)[0], c))
                        if m < y.shape[1]:
                            ys[side][lv] = np.ascontiguousarray(y[:, :m])
                            sums[side][lv] = _level_sums(lv, ys[side][lv])
                    acc[side] = sum(sums[side][:-1], np.zeros((2, r)))
                old.append(acc[side][0])
                acc[side] = acc[side] + sums[side][-1]
                # the outermost node k h < c is read against the node j
                # at 1/2 further in for the power law s^p there
                m = size if c == math.inf else min(size, round(c / h))
                k, j = m - 1, max(m - 1 - round(0.5 / h), 0)
                (s_k, y_k), (s_j, y_j) = (_grid_node(ys[side], i % size, level) for i in (k, j))
                edges.append((s_k, math.log(s_k / s_j), y_k, y_j))
            # the level before summed the grid's even nodes, at step 2h
            total, scale = h * (acc[0] + acc[1])
            diff = np.abs(total - 2.0 * h * (old[0] + old[1]))
            s_k, log_s, y_k, y_j = (np.array(a) for a in zip(*edges))
            yk = np.abs(y_k)
            p = np.log(yk / np.abs(y_j)) / log_s[:, None]
            bound = np.where(yk == 0.0, 0.0, s_k[:, None] * yk / (1.0 + p))
        tol = _TS_TOL * scale
        free = todo & np.isfinite(total)
        for i in (todo & ~free).nonzero()[0]:
            errors[i] = DivergenceError("the integrand is not finite at every node")
        for side, name in enumerate(_TS_SIDES):
            grows = free & (p[side] <= -1.0)
            left = free & ~grows & ~(bound[side] <= tol)
            for i in grows.nonzero()[0]:
                errors[i] = DivergenceError(
                    f"the integrand grows like ({name})^{p[side, i]:.3g} as {name} -> 0, "
                    "which is not integrable")
            for i in left.nonzero()[0]:
                errors[i] = NumericalError(
                    f"the integrand behaves like ({name})^{p[side, i]:.3g} beyond the last "
                    f"node at {name} = {s_k[side]:.3g}, which leaves up to "
                    f"{bound[side, i]:.3g} unsummed, above {_TS_TOL:g} of {scale[i]:.3g}")
            free &= ~(grows | left)
        value = np.where(todo, total, value)
        todo = free & ~(diff <= tol) if level else free
        if not todo.any():
            break
    for i in todo.nonzero()[0]:
        errors[i] = NumericalError(
            f"tanh-sinh levels still differ by {diff[i]:.3g} after {_TS_LEVELS} "
            f"levels, above {_TS_TOL:g} of {scale[i]:.3g}")
    return (value if vector else float(value[0])), errors
