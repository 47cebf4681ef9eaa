"""The tanh-sinh rule: singular integrands against closed forms to
relative accuracy, the divergence and resolution verdicts, and
vector-valued integrands against per-component scalar runs."""

import math

import numpy as np
import pytest

from oddsgamma import DivergenceError, NumericalError, OEGammaDist
from oddsgamma.quadrature import _ts_new, tanh_sinh, tanh_sinh_levels


def unit_map(level):
    """The quantile map of U(0, 1): head u = s, tail u = 1 - s."""
    s = tanh_sinh_levels(level)
    return s, 1.0 - s


# vector widths for the per-component checks, from the moments' few
# components up past tau's widest call of _TAU_BLOCK = 256 columns
_WIDTHS = [1, 2, 5, 8, 16, 64, 300]


def _mixed_component(j):
    """Component j of a mix that cycles through convergent integrands,
    divergent ones (x^-1.5, not finite at the outermost nodes, and
    e^-230 x^-1.2, a power law that is not integrable), and ones the
    rule cannot resolve (x^-0.999, too much beyond the last node, and
    cos(c/x), whose levels never agree)."""
    c = 1.0 + j / 64.0
    return [lambda x: x ** -(0.5 * c), lambda x: np.cos(10.0 * c * x),
            lambda x: c * x**-1.5, lambda x: np.exp(-1.2 * np.log(x) - 230.0 * c),
            lambda x: c * x**-0.999, lambda x: np.cos(c / x), lambda x: np.log(x) * c][j % 7]


class TestTanhSinh:
    @pytest.mark.parametrize("f, ref", [
        (lambda x: x**-0.5, 2.0),
        (lambda x: x**-0.9, 10.0),
        (np.log, -1.0),
        (lambda x: np.log(x) ** 2 / np.sqrt(x), 16.0),
        (np.exp, math.e - 1.0),
    ])
    def test_endpoint_singularities_to_relative_accuracy(self, f, ref):
        value, errors = tanh_sinh(f, unit_map)
        assert errors == [None]
        assert isinstance(value, float)
        assert value == pytest.approx(ref, rel=2e-15)

    def test_components_settle_alone(self):
        # each component reports the sum of the level at which it settled,
        # so stacking it with others does not move it
        fs = [lambda x: x**-0.5, np.exp, lambda x: np.cos(40.0 * x)]
        values, errors = tanh_sinh(lambda x: np.stack([f(x) for f in fs], -1), unit_map)
        assert errors == [None] * 3
        assert values.tolist() == [tanh_sinh(f, unit_map)[0] for f in fs]
        assert values[2] == pytest.approx(math.sin(40.0) / 40.0, rel=1e-13)

    @pytest.mark.parametrize("r", _WIDTHS)
    @pytest.mark.parametrize("nodes", ["unit", "hole", "head only", "no node"])
    def test_components_settle_alone_at_every_width(self, r, nodes):
        # convergent, divergent and unresolved components side by side:
        # at every width each component keeps the value bits, error
        # type and message of its scalar run
        abscissae = {"unit": unit_map, "hole": _hole_map, "head only": _head_only_map,
                     "no node": _no_node_map}[nodes]
        fs = [_mixed_component(j) for j in range(r)]
        values, errors = tanh_sinh(lambda x: np.stack([f(x) for f in fs], -1), abscissae)
        singles = [tanh_sinh(f, abscissae) for f in fs]
        assert [v.hex() for v in values.tolist()] == [v.hex() for v, _ in singles]
        assert _verdicts(errors) == [_verdicts(err)[0] for _, err in singles]

    def test_non_integrable_power_is_divergent(self):
        # e^-230 x^-1.2, formed in logs so the outermost values stay
        # finite, between two integrable components: each verdict and
        # value is the one its component gets alone
        fs = [lambda x: x**-0.5, lambda x: np.exp(-1.2 * np.log(x) - 230.0), np.exp]
        values, errors = tanh_sinh(lambda x: np.stack([f(x) for f in fs], -1), unit_map)
        assert isinstance(errors[1], DivergenceError)
        assert "(u)^-1.2 as u -> 0, which is not integrable" in str(errors[1])
        assert errors[0] is None and errors[2] is None
        assert values[0] == pytest.approx(2.0, rel=2e-15)
        assert values[2] == pytest.approx(math.e - 1.0, rel=2e-15)
        singles = [tanh_sinh(f, unit_map) for f in fs]
        assert [str(e) for e in errors] == [str(err[0]) for _, err in singles]
        assert values.tolist() == [v for v, _ in singles]

    def test_overflow_is_divergent(self):
        # x^-1.2 formed as a power overflows at the outermost nodes
        for f in (lambda x: np.exp(1.0 / x), lambda x: x**-1.2):
            _, errors = tanh_sinh(f, unit_map)
            assert isinstance(errors[0], DivergenceError)
            assert "not finite" in str(errors[0])

    def test_part_beyond_the_nodes_is_bounded(self):
        # integrable, but x^-0.999 leaves about 500 beyond the last node
        _, errors = tanh_sinh(lambda x: x**-0.999, unit_map)
        assert isinstance(errors[0], NumericalError)
        assert not isinstance(errors[0], DivergenceError)
        assert "unsummed" in str(errors[0])

    def test_nan_abscissae_end_their_side(self):
        # a map that leaves the support below u = 1e-100: those nodes and
        # every node beyond them are left out, and the integrand never
        # sees them
        seen = []

        def cut_map(level):
            head, tail = unit_map(level)
            return np.where(head < 1e-100, np.nan, head), tail

        def f(x):
            seen.append(x)
            return x**-0.5

        value, errors = tanh_sinh(f, cut_map)
        assert errors == [None]
        assert value == pytest.approx(2.0, rel=1e-15)
        assert all(np.isfinite(x).all() and x.min() >= 1e-100 for x in seen)

    def test_cut_moving_inward_stops_later_levels(self):
        # the head map leaves the support below u = 1e-100 (the level-0
        # cut) and, not monotone, at the level-1 node t = 7/16 as well,
        # inside that cut: the cut moves inward for level 1 on, the
        # level-0 sums stand, and from level 1 on the integrand never
        # sees a node at or beyond the hole. Its one call holds level
        # 0's kept nodes, then level 1's short of the hole
        hole = 3  # the level-1 node t = 7/16
        seen = []

        def f(x):
            seen.append(x)
            return x**-0.5

        value, errors = tanh_sinh(f, _hole_map)
        # the rule by hand: level 0 keeps its head nodes with s >= 1e-100,
        # level 1 those with t < 7/16, and both keep every tail node
        h = 1.0 / 16.0
        (_, s0, w0), (t1, s1, w1) = _ts_new(0), _ts_new(1)
        head0, head1 = s0 >= 1e-100, t1 < (2 * hole + 1) * h
        rule = h * (np.sum(w0[head0] * s0[head0] ** -0.5) + np.sum(w1[head1] * s1[head1] ** -0.5)
                    + np.sum(w0 * (1.0 - s0) ** -0.5) + np.sum(w1 * (1.0 - s1) ** -0.5))
        assert value == pytest.approx(rule, rel=1e-15)
        assert isinstance(errors[0], NumericalError) and "unsummed" in str(errors[0])
        assert len(seen) == 1
        [x] = seen
        n0 = np.count_nonzero(head0) + s0.size
        assert np.array_equal(x[:n0], np.concatenate((s0[head0], 1.0 - s0)))
        assert np.array_equal(x[n0:], np.concatenate((s1[head1], 1.0 - s1)))
        assert x[n0:].min() > s1[hole]

    @staticmethod
    def _calls(f, abscissae=unit_map):
        """tanh_sinh(f, abscissae) and the sizes of f's calls."""
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return f(x)

        return tanh_sinh(counted, abscissae), sizes

    def test_divergent_at_level_zero_calls_f_once(self):
        # every component fails at level 0; the one call held level 1's
        # nodes as well, and the verdicts are level 0's
        (values, errors), sizes = self._calls(lambda x: np.stack(
            [x**-1.5, np.exp(-1.2 * np.log(x) - 230.0), x**-2.0], -1))
        assert sizes == [2 * (tanh_sinh_levels(0).size + tanh_sinh_levels(1).size)]
        assert [(type(e), str(e)) for e in errors] == [
            (DivergenceError, "the integrand is not finite at every node"),
            (DivergenceError, "the integrand grows like (u)^-1.2 as u -> 0, "
                              "which is not integrable"),
            (DivergenceError, "the integrand is not finite at every node")]
        assert values[1] == pytest.approx(1.131360931820937e-43, rel=1e-12)

    @pytest.mark.parametrize("f, calls", [
        (lambda x: x**-0.5, 1),  # settles at level 1
        (lambda x: np.cos(60.0 * x), 3),  # at level 3: levels 0-1, 2 and 3
    ])
    def test_first_call_takes_levels_zero_and_one(self, f, calls):
        (value, errors), sizes = self._calls(f)
        assert errors == [None]
        both = 2 * (tanh_sinh_levels(0).size + tanh_sinh_levels(1).size)
        assert sizes == [both] + [2 * tanh_sinh_levels(lv).size for lv in range(2, calls + 1)]

    @pytest.mark.parametrize("nodes, kept, side", [
        ("head only", "no node", "1 - u"),
        ("no node", "no node", "u"),
        ("one node", "only one node", "u"),
    ])
    def test_side_with_too_few_nodes_fails(self, nodes, kept, side):
        # a side that keeps fewer than two nodes has no power law to bound
        # the rest of its half: every component fails at level 0 with a
        # NumericalError that names the side and no node, and is not
        # accepted at the value of the other side (or 0, where the
        # integrand sees no node at all)
        abscissae = {"head only": _head_only_map, "no node": _no_node_map,
                     "one node": _one_node_map}[nodes]
        seen = []

        def f(x):
            seen.append(x)
            return np.stack([x**-0.5, np.exp(x)], -1)

        _, errors = tanh_sinh(f, abscissae)
        assert len(seen) == 1
        for error in errors:
            assert type(error) is NumericalError
            assert str(error) == (f"{kept} of the {side} side lies inside the support, "
                                  "too few to bound the integral there")


def _hole_map(level):
    """unit_map with the head cut below u = 1e-100 and, at level 1, at
    the node t = 7/16 inside that cut as well."""
    head, tail = unit_map(level)
    head = np.where(head < 1e-100, np.nan, head)
    if level == 1:
        head[3] = np.nan
    return head, tail


def _head_only_map(level):
    """unit_map with a tail that keeps no node."""
    head, tail = unit_map(level)
    return head, np.full_like(tail, np.nan)


def _no_node_map(level):
    """unit_map with neither side keeping a node."""
    head, tail = unit_map(level)
    return np.full_like(head, np.nan), np.full_like(tail, np.nan)


def _one_node_map(level):
    """unit_map with a head that keeps the node u = 1/2 alone."""
    head, tail = unit_map(level)
    return np.where(head < 0.5, np.nan, head), tail


def _verdicts(errors):
    return [None if e is None else (type(e).__name__, str(e)) for e in errors]


@pytest.mark.usefixtures("avx512_bits")
class TestGoldenPanel:
    """Value bits (float.hex) and every verdict's type and message, pinned
    from the engine's output: the rule's bookkeeping may change, its
    results may not."""

    @pytest.mark.parametrize("f, abscissae, value, verdicts", [
        (lambda x: x**-0.5, unit_map, "0x1.0000000000000p+1", [None]),
        (np.log, unit_map, "-0x1.0000000000000p+0", [None]),
        (lambda x: np.stack([x**-0.5, np.exp(x), np.cos(40.0 * x)], -1), unit_map,
         ["0x1.0000000000000p+1", "0x1.b7e151628aed3p+0", "0x1.3132c719b98b6p-6"],
         [None, None, None]),
        # a cut that moves inward at level 1
        (lambda x: x**-0.5, _hole_map, "0x1.8521331500edcp+0",
         [("NumericalError", "the integrand behaves like (u)^-0.5 beyond the last node at "
           "u = 0.23, which leaves up to 0.96 unsummed, above 1e-13 of 1.52")]),
        # a divergent power between two integrable components
        (lambda x: np.stack([x**-0.5, np.exp(-1.2 * np.log(x) - 230.0), np.exp(x)], -1),
         unit_map,
         ["0x1.0000000000000p+1", "0x1.42f24aef445edp-143", "0x1.b7e151628aed3p+0"],
         [None, ("DivergenceError", "the integrand grows like (u)^-1.2 as u -> 0, which is "
                 "not integrable"), None]),
        (lambda x: x**-1.2, unit_map, "inf",
         [("DivergenceError", "the integrand is not finite at every node")]),
        # a part beyond the last node
        (lambda x: x**-0.999, unit_map, "0x1.ea8d633db4682p+8",
         [("NumericalError", "the integrand behaves like (u)^-0.999 beyond the last node at "
           "u = 6.13e-276, which leaves up to 531 unsummed, above 1e-13 of 491")]),
    ])
    def test_rule(self, f, abscissae, value, verdicts):
        got, errors = tanh_sinh(f, abscissae)
        if isinstance(value, list):
            assert [v.hex() for v in got.tolist()] == value
        else:
            assert isinstance(got, float) and got.hex() == value
        assert _verdicts(errors) == verdicts

    def test_ten_level_exhaustion(self):
        d = OEGammaDist(0.131, 0.179, 0.539)
        got, errors = d._expect(
            lambda x: np.stack((np.cos(100.0 * x), np.sin(100.0 * x)), -1), "cf",
            per_component=True)
        assert [v.hex() for v in got.tolist()] == ["-0x1.7dc1f6a0a74c0p-16",
                                                   "0x1.1dfa020615b47p-15"]
        assert _verdicts(errors) == [
            ("NumericalError", f"tanh-sinh levels still differ by {diff} after 10 levels, "
             f"above 1e-13 of {scale}") for diff, scale in (("8.47e-06", "0.636"),
                                                            ("4.01e-05", "0.637"))]
        with pytest.raises(NumericalError) as info:
            d.cf(100)
        assert str(info.value) == (
            "cf(100): tanh-sinh levels still differ by 8.47e-06 after 10 levels, "
            "above 1e-13 of 0.636")

    # raw moments 1-4, renyi_entropy(0.5) and renyi_entropy(2) of
    # OEGammaDist(alpha, 0.179, 0.539), from the gamma-scale nodes. In
    # ulps from 45-digit mpmath (integrals over s = ln T, T = beta w(X)
    # ~ Gamma(alpha, 1)) the moments are within 1.7 and the entropies
    # within 12, the rounding of log_pdf, whose terms alpha ln beta and
    # ln Gamma(alpha) reach 10^2 at alpha = 30, and whose ln g1 and
    # (alpha - 1) ln S1 cancel to ln lam - alpha lam x at alpha = 1e-3
    @pytest.mark.parametrize("alpha, values", [
        (1e-3, ["0x1.cf4ac6025ebc8p+10", "0x1.a3b26466f748bp+22", "0x1.1d27381c0be78p+35",
                "0x1.025225fdbcd1dp+48", "0x1.1d2a62333f9a7p+3", "0x1.06df478074aa4p+3"]),
        (0.05, ["0x1.18866e19bf312p+5", "0x1.44784426ef729p+11", "0x1.1a26b3376190fp+18",
                "0x1.472b113036d05p+25", "0x1.3dd9fef9bbf1dp+2", "0x1.08116ea6856d8p+2"]),
        (0.131, ["0x1.87e2ceb432c01p+3", "0x1.55666b455681cp+8", "0x1.c49462005a095p+13",
                 "0x1.90898f9bcbcbap+19", "0x1.f9497f91fd023p+1", "0x1.79e8e5760305bp+1"]),
        (2.0, ["0x1.18513a1645467p-2", "0x1.449c1ac1d0430p-3", "0x1.a5e45b5c548ddp-3",
               "0x1.00e7570ebe215p-1", "0x1.ec8b18fea4790p-4", "-0x1.ccfcd8c81b51ep-1"]),
        (30.0, ["0x1.760d4bf2eb177p-7", "0x1.1af6e255a1e16p-13", "0x1.bbdb294b71726p-20",
                "0x1.6965e34e5d89ep-26", "-0x1.2281d384fe0f1p+2", "-0x1.3c2f7372368c9p+2"]),
    ])
    def test_functionals(self, alpha, values):
        d = OEGammaDist(alpha, 0.179, 0.539)
        got = [d.moment_quadrature(m) for m in (1, 2, 3, 4)]
        got += [d.renyi_entropy(0.5), d.renyi_entropy(2.0)]
        assert [v.hex() for v in got] == values
