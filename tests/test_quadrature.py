"""The tanh-sinh rule: singular integrands against closed forms to
relative accuracy, the divergence and resolution verdicts, and
vector-valued integrands against per-component scalar runs."""

import math

import numpy as np
import pytest

from oddsgamma import DivergenceError, NumericalError
from oddsgamma.quadrature import _ts_new, tanh_sinh, tanh_sinh_levels


def unit_map(level):
    """The quantile map of U(0, 1): head u = s, tail u = 1 - s."""
    s = tanh_sinh_levels(level)
    return s, 1.0 - s


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

    def test_cut_moving_inward_drops_summed_nodes(self):
        # the head map leaves the support below u = 1e-100 (the level-0
        # cut) and, not monotone, at the level-1 node t = 7/16 as well,
        # inside that cut: the level-0 nodes beyond it, summed at level
        # 0, drop out at level 1, and the integrand never sees a node at
        # or beyond it
        hole = 3  # the level-1 node t = 7/16
        seen = []

        def hole_map(level):
            head, tail = unit_map(level)
            head = np.where(head < 1e-100, np.nan, head)
            if level == 1:
                head[hole] = np.nan
            return head, tail

        def f(x):
            seen.append(x)
            return x**-0.5

        value, errors = tanh_sinh(f, hole_map)
        # the level-1 grid steps t by 1/16 and keeps the head's t < 7/16
        h = 1.0 / 16.0
        t, s, w = (np.concatenate([a, b]) for a, b in zip(_ts_new(0), _ts_new(1)))
        head = t < (2 * hole + 1) * h
        rule = h * (np.sum(w[head] * s[head] ** -0.5) + np.sum(w * (1.0 - s) ** -0.5))
        assert value == pytest.approx(rule, rel=1e-15)
        assert isinstance(errors[0], NumericalError) and "unsummed" in str(errors[0])
        assert len(seen) == 2
        s_hole = _ts_new(1)[1][hole]
        assert np.isfinite(seen[1]).all() and seen[1].min() > s_hole
