"""The package's one quadrature engine: a tanh-sinh rule on a map of
(0, 1).

tanh_sinh integrates f(x(u)) q(u) du over (0, 1) for a map x and
weights q, split at u = 1/2: the head maps its nodes through x(u) and
the tail through x(1 - u), so neither side loses digits to 1 - u. The
map and the weights come from the caller, level by level. The tau
functionals of the family's series take the base's quantile map with
q = 1; the family's expectations take a closed-form map of u onto the
gamma scale, with the gamma density times its Jacobian as q. On both
the integrands have only algebraic or logarithmic endpoint
singularities, which the double-exponential substitution
u = 1/(1 + e^{-pi sinh t}) integrates at a rate exp(-c/h) in the step
h (Takahasi & Mori 1974; Mori & Sugihara 2001). Each level halves h
and evaluates and sums only the nodes it adds. Their values f q go
into one buffer, a row per component and the levels side by side,
where the edge power law finds its nodes; it grows only when a level
does not fit: at first to room for levels 0-2, where the moments
settle, never to the ten-level cap. The first call of f takes levels
0 and 1, as no component can be accepted before level 1 (a run that
fails at level 0 pays for level 1's nodes too), and each later level
makes one. A level forms the product of its values with q, the
weighted row sums of each side and the edge power law in a fixed
number of numpy calls, whatever the number of components. The rest of
the level, the running totals, the bound beyond the outermost nodes,
the verdict and the value, is Python float work on each component
still open, which grows with their number: on the few components of a
moment or entropy run each numpy call would cost more than the
arithmetic it does. An exception is
built only for a component that fails. A component is accepted when
two successive levels agree to 1e-13 of the integral of its magnitude,
so the answer is accurate relative to its own size at every scale. The
divergence verdict comes from the outermost nodes: the local power law
of the integrand there says whether the part beyond them is integrable
and bounds its size. The integrand may be vector valued, one column per
component, with a value and a verdict per component.
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


def _level_sums(w, y, n_head, out):
    """out[side, 0] and out[side, 1]: the sum and the sum of magnitudes
    of w y over each side's nodes, the first n_head columns of y and
    the rest, per row of y, one row per component. Each row is summed
    alone, so that a component's sums do not depend on the others."""
    terms = np.multiply(w, y, order="C")
    np.add.reduce(terms[:, :n_head], axis=1, out=out[0, 0])
    np.add.reduce(terms[:, n_head:], axis=1, out=out[1, 0])
    if terms.size and terms.view(np.int64).min() >= 0:
        # no term has its sign bit set: each is its own magnitude
        out[:, 1] = out[:, 0]
        return
    np.abs(terms, out=terms)
    np.add.reduce(terms[:, :n_head], axis=1, out=out[0, 1])
    np.add.reduce(terms[:, n_head:], axis=1, out=out[1, 1])


@functools.lru_cache(maxsize=256)
def _edges(level, m_head, m_tail):
    """The nodes of the edge power law for sides that keep the first
    m_head and m_tail nodes of the level's grid t = i h: (nodes, s_k,
    log_s). nodes holds (side, source level, index) for the outermost
    node of each side, i = m - 1, then for the node 1/2 further in:
    the level that added it, level - v for i = 2^v times odd, level 0
    where v >= level, and its index among that level's nodes. A side
    that keeps no node names the node t = 0 for both, and tanh_sinh
    reads nan there. s_k is s at each side's outermost node, log_s the
    law's step log(s_k / s_j)."""
    outer = [max(m - 1, 0) for m in (m_head, m_tail)]
    nodes, s = [], []
    for q, i in enumerate(outer + [max(i - 2 ** (level + 2), 0) for i in outer]):
        v = min((i & -i).bit_length() - 1 if i else level, level)
        nodes.append((q % 2, level - v, i >> (v + (v < level))))
        s.append(_ts_new(level - v)[1][nodes[-1][2]])
    s_k = np.array(s[:2])
    log_s = np.array([math.log(s[0] / s[2]), math.log(s[1] / s[3])])
    for a in (s_k, log_s):
        a.flags.writeable = False
    return tuple(nodes), s_k, log_s


def _failure(total, p, bound, s_k, m, tol, scale):
    """The exception of a component that failed the level's verdict: a
    non-finite sum, or the first side that diverges, leaves too much
    beyond its outermost node or keeps m[side] < 2 of the grid's nodes."""
    if not math.isfinite(total):
        return DivergenceError("the integrand is not finite at every node")
    side = 0 if p[0] <= -1.0 or not bound[0] <= tol else 1
    name, power = _TS_SIDES[side], p[side]
    if power <= -1.0:
        return DivergenceError(
            f"the integrand grows like ({name})^{power:.3g} as {name} -> 0, "
            "which is not integrable")
    if m[side] < 2:
        return NumericalError(f"{('no', 'only one')[m[side]]} node of the {name} side "
                              "lies inside the support, too few to bound the integral there")
    return NumericalError(
        f"the integrand behaves like ({name})^{power:.3g} beyond the last node at "
        f"{name} = {s_k[side]:.3g}, which leaves up to {bound[side]:.3g} unsummed, "
        f"above {_TS_TOL:g} of {scale:.3g}")


def _verdict(todo, h, acc, prev, edge, p, s_k, m, value, errors, last):
    """The level's verdict on the open components todo, a list, one at a
    time in Python floats, whose operations are numpy's on each
    component: the same bits. Records the value of each in value, a
    list, and the exception of each that fails, and returns the
    components still open, or None once none is."""
    (total, scale), (e_head, e_tail), (p_head, p_tail) = (
        (acc[0] + acc[1]).tolist(), edge[:, :2].T.tolist(), p.T.tolist())
    s_head, s_tail = s_k.tolist()
    still = []
    for i in todo:
        t, size = h * total[i], h * scale[i]
        tol = _TS_TOL * size
        value[i] = t
        # the part beyond each side's outermost node, s e/(1 + p) for the
        # magnitude e there, 0 where e is 0, and inf, as numpy gives it,
        # where 1 + p is 0
        e, q = e_head[i], p_head[i]
        b_head = 0.0 if e == 0.0 else s_head * e / (1.0 + q) if q != -1.0 else math.inf
        e, q = e_tail[i], p_tail[i]
        b_tail = 0.0 if e == 0.0 else s_tail * e / (1.0 + q) if q != -1.0 else math.inf
        power = p_head[i], p_tail[i]
        if not (b_head <= tol and b_tail <= tol and math.isfinite(t)
                and not (power[0] <= -1.0 or power[1] <= -1.0)):
            errors[i] = _failure(t, power, (b_head, b_tail), s_k, m, tol, size)
        elif prev is None or not abs(t - prev[i]) <= tol:
            if last:
                errors[i] = NumericalError(
                    f"tanh-sinh levels still differ by {abs(t - prev[i]):.3g} after "
                    f"{_TS_LEVELS} levels, above {_TS_TOL:g} of {size:.3g}")
            else:
                still.append(i)
    return still or None


def _kept(abscissae, level, cut):
    """(n, x, q, cut) of the nodes the level keeps: n[side] nodes of
    each side short of its cut, their abscissae x, head then tail, and
    their weights q, or None, and the cut, moved inward to a side's
    first non-finite node, as a new list where it moves."""
    t_new = _ts_new(level)[0]
    head, tail, *weights = abscissae(level)
    n = [t_new.size if c == math.inf else int(np.searchsorted(t_new, c)) for c in cut]
    x = np.concatenate((head[:n[0]], tail[:n[1]]))
    if np.count_nonzero(np.isfinite(x)) < x.size:
        cut = list(cut)
        for side, xs in enumerate((head, tail)):
            finite = np.isfinite(xs[:n[side]])
            if not finite.all():
                n[side] = int(finite.argmin())
                cut[side] = float(t_new[n[side]])
        x = np.concatenate((head[:n[0]], tail[:n[1]]))
    q = np.concatenate((weights[0][:n[0]], weights[1][:n[1]])) if weights else None
    return n, x, q, cut


def tanh_sinh(f, abscissae):
    """Integrate f(x(u)) q(u) du over (0, 1) by the tanh-sinh rule,
    split at u = 1/2.

    abscissae(level) returns (head, tail): x at u = s and at 1 - u = s
    for s = tanh_sinh_levels(level), nan where the map has left the
    support; such a node and every node farther out on its side are
    left out from that level on; an earlier level's sums stand. It may
    return (head, tail, head weights, tail weights), q at the same
    nodes, which multiply f's values; without them q = 1, and "the
    integrand" below is f q. f maps a 1-D array of abscissae to one
    value per node, shape (n,), or to R components, shape (n, R), at a
    level's kept head nodes, then its kept tail nodes: first levels 0
    and 1 in one call, as no component can be accepted before level 1,
    so f sees level 1's nodes even where every component fails at level
    0, then once per level. It runs with numpy's floating-point
    warnings off, as a value that is not finite is the verdict's to judge.

    Level n steps t by 2^-(n+3), and f sees and the rule sums only the
    nodes it adds. One buffer holds the values of both sides, one row
    per component, level after level, for the edge power law, which
    reads nodes of earlier levels; it grows only when a level does not
    fit, to room for every node through that level (through level 2 at
    first). A component is accepted at the first level whose sum agrees
    with the level before to 1e-13 of the integral of its magnitude, and
    reports that sum, so its value does not depend on the other
    components. At each side's outermost node the integrand behaves like
    s^p: a non-finite sum or p <= -1 is a DivergenceError, and a part
    beyond the nodes, s|f|/(1 + p), above 1e-13 of that integral a
    NumericalError, as are a side that keeps no node and a component
    still unsettled after ten levels.

    A level forms the product with q, the row sums and the edge power
    law in a fixed number of numpy calls whatever R is.
    The rest of the verdict runs in Python floats on each component
    still open, so its cost grows with R. An exception is built only
    for a component that fails.

    Returns (value, errors): a float, or an array of R for a
    vector-valued f, and per component None or the exception saying why
    it failed.
    """
    cut = [math.inf, math.inf]
    starts = []  # per level, the buffer columns where its head and tail values start
    for level in range(_TS_LEVELS):
        h = 2.0 ** -(level + 3)
        w = _ts_new(level)[2]
        if level == 1:
            (n, _, q, cut), y = ahead
        else:
            n, x, q, cut = _kept(abscissae, level, cut)
            if level == 0:
                # level 1's nodes go into the same call of f, its values
                # and cut held until level 0 is judged
                ahead = _kept(abscissae, 1, cut)
                x = np.concatenate((x, ahead[1]))
        cols = n[0] + n[1]
        # values that are not finite are the divergence verdict's to judge
        with np.errstate(all="ignore"):
            if level != 1:
                y = np.asarray(f(x), dtype=float)
            if level == 0:
                ahead, y = (ahead, y[cols:]), y[:cols]
                vector = y.ndim == 2
                r = y.shape[1] if vector else 1
                value, errors, todo = [0.0] * r, [None] * r, list(range(r))
                # per side and component, the sum and the sum of magnitudes
                # of the level's kept terms; acc their running totals
                sums, acc = np.empty((2, 2, r)), np.zeros((2, 2, r))
                buf, used = None, 0
            if buf is None or used + cols > buf.shape[1]:
                # room for every node of both sides through this level,
                # or at first through level 2, where the moments settle
                room = sum(_ts_new(lv)[0].size for lv in range(max(level, 2) + 1))
                grown = np.empty((r, 2 * room))
                if used:
                    grown[:, :used] = buf[:, :used]
                buf = grown
            vals = buf[:, used:used + cols]
            if q is not None:
                np.multiply(y.reshape(-1, r).T, q, out=vals)
            else:
                vals[...] = y.reshape(-1, r).T
            del y  # the level's values live on in the buffer only
            starts.append((used, used + n[0]))
            used += cols
            _level_sums(np.concatenate((w[:n[0]], w[:n[1]])), vals, n[0], sums)
            acc += sums
            prev = value.copy() if level else None
            # the outermost node k h < cut of each side is read against
            # the node j at 1/2 further in for the power law s^p there;
            # columns k head, k tail, j head, j tail
            size = int(_TS_T_MAX / h) + 1
            on_grid = [size if c == math.inf else min(size, round(c / h)) for c in cut]
            nodes, s_k, log_s = _edges(level, *on_grid)
            edge = np.abs(buf[:, [starts[src][side] + idx for side, src, idx in nodes]])
            for side, m in enumerate(on_grid):
                if not m:
                    # a side that keeps no node bounds nothing: its nan
                    # bound fails every component
                    edge[:, side::2] = math.nan
            p = np.log(edge[:, :2] / edge[:, 2:]) / log_s
            todo = _verdict(todo, h, acc, prev, edge, p, s_k, on_grid, value, errors,
                            level == _TS_LEVELS - 1)
        if todo is None:
            break
    return (np.array(value) if vector else value[0]), errors
