"""Quadrature engines: exactness on polynomials, hard oscillatory and
singular integrands against closed forms, divergence detection, and
vector-valued integrands against per-component scalar runs, for the
adaptive Gauss-Legendre engine and for the tanh-sinh rule."""

import math

import numpy as np
import pytest
import scipy.integrate

from oddsgamma import DivergenceError, NumericalError
from oddsgamma.quadrature import (
    WindowedResult,
    adaptive_quad,
    tanh_sinh,
    tanh_sinh_levels,
    windowed_quad,
)


class TestAdaptiveQuad:
    def test_polynomial_is_exact(self):
        # 15-point Gauss-Legendre is exact through degree 29
        assert adaptive_quad(lambda x: x**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert adaptive_quad(lambda x: x**9, 0.0, 2.0) == pytest.approx(102.4, rel=1e-14)

    def test_degenerate_interval(self):
        assert adaptive_quad(lambda x: x, 3.0, 3.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(lambda x: x, 1.0, 0.0)

    def test_infinite_endpoint_rejected(self):
        with pytest.raises(ValueError, match="finite endpoints"):
            adaptive_quad(lambda x: np.exp(-x), 0.0, math.inf)

    def test_oscillatory(self):
        val = adaptive_quad(np.sin, 0.0, 20.0 * math.pi, abs_tol=1e-12)
        assert val == pytest.approx(0.0, abs=1e-10)
        val = adaptive_quad(lambda x: np.sin(40.0 * x), 0.0, 1.0, abs_tol=1e-12)
        assert val == pytest.approx((1.0 - math.cos(40.0)) / 40.0, abs=1e-11)

    def test_resolvable_peak(self):
        # a bump wide enough for bisection to find; needles thinner than
        # the initial node spacing are outside the algorithm's contract
        f = lambda x: np.exp(-(((x - 0.3) / 0.05) ** 2))
        ref = scipy.integrate.quad(f, 0.0, 1.0, epsabs=1e-14, limit=500)[0]
        assert adaptive_quad(f, 0.0, 1.0, abs_tol=1e-12) == pytest.approx(ref, rel=1e-9)

    @staticmethod
    def _noisy_nodes(**kwargs):
        # an integrand whose rounding noise never meets the tolerance;
        # one call evaluates a whole level, so count nodes: 15 per panel
        nodes = [0]

        def noisy(x):
            nodes[0] += np.size(x)
            return (1.0 - np.asarray(x)) ** -1.5

        adaptive_quad(noisy, 1.0 - 1e-8, 1.0 - 1e-9, **kwargs)
        return nodes[0]

    def test_panel_budget_caps_work(self):
        assert self._noisy_nodes(max_panels=1000) <= 1005 * 15

    def test_panel_budget_by_default(self):
        # 20,000 panels, not refinement without bound
        assert 1005 * 15 < self._noisy_nodes() <= 20_005 * 15

    def test_vector_valued_matches_scalar_runs(self):
        fs = [lambda x: x**2, lambda x: np.sin(40.0 * x), lambda x: np.exp(-x) / np.sqrt(x)]
        got = adaptive_quad(lambda x: np.stack([f(x) for f in fs], -1), 0.0, 1.0, abs_tol=1e-12)
        assert got.shape == (3,)
        for g, f in zip(got, fs):
            assert g == pytest.approx(adaptive_quad(f, 0.0, 1.0, abs_tol=1e-12), rel=1e-13)

    def test_intervals_integrate_separately(self):
        # each interval gets its own tolerance share and its own budget
        a = np.array([0.0, 1.0, 2.0, 5.0])
        b = np.array([1.0, 3.0, 2.0, 9.0])
        got = adaptive_quad(np.cos, a, b, abs_tol=1e-12)
        assert got.shape == (4,)
        np.testing.assert_allclose(got, np.sin(b) - np.sin(a), rtol=0, atol=1e-12)

    def test_integrable_endpoint_singularity(self):
        # endpoints are never sampled, so x^(-1/2) integrates cleanly
        assert adaptive_quad(lambda x: x**-0.5, 0.0, 1.0) == pytest.approx(2.0, rel=1e-9)

    def test_heavy_tailed_density_body(self):
        f = lambda x: np.exp(-x) / np.sqrt(x)
        ref = scipy.integrate.quad(f, 0.0, 50.0, epsabs=1e-14, limit=500)[0]
        assert adaptive_quad(f, 0.0, 50.0) == pytest.approx(ref, rel=1e-9)


class TestWindowedQuad:
    def test_integrable_singularity_lower(self):
        r = windowed_quad(lambda x: x**-0.5, 0.0, 1.0)
        assert isinstance(r, WindowedResult)
        assert not r.diverged
        assert r.value == pytest.approx(2.0, abs=1e-9)

    def test_strongly_singular_but_integrable(self):
        r = windowed_quad(lambda x: x**-0.9, 0.0, 1.0)
        assert not r.diverged
        assert r.value == pytest.approx(10.0, rel=2e-2)

    def test_non_integrable_lower(self):
        r = windowed_quad(lambda x: x**-1.2, 0.0, 1.0)
        assert r.diverged
        assert "Cauchy" in r.detail
        assert "lower" in r.detail

    def test_smooth_integrand_untouched(self):
        r = windowed_quad(np.exp, 0.0, 1.0)
        assert not r.diverged
        assert r.value == pytest.approx(math.e - 1.0, rel=1e-12)

    @pytest.mark.parametrize("end, fs", [
        ("lower", [lambda x: x**-0.5, lambda x: x**-1.2, np.exp]),
    ])
    def test_vector_valued_verdicts_per_component(self, end, fs):
        stacked = windowed_quad(lambda x: np.stack([f(x) for f in fs], -1), 0.0, 1.0)
        assert stacked.value.shape == stacked.diverged.shape == (3,)
        singles = [windowed_quad(f, 0.0, 1.0) for f in fs]
        assert stacked.diverged.tolist() == [r.diverged for r in singles] == [False, True, False]
        assert stacked.detail == tuple(r.detail for r in singles)
        assert f"near the {end} endpoint" in stacked.detail[1]
        # a shared panel is refined until every component passes, so a
        # component can move, within the tolerance, from its scalar value
        for got, r in zip(stacked.value, singles):
            assert got == pytest.approx(r.value, rel=1e-12, abs=1e-10)


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
        # e^-230 x^-1.2, formed in logs so the outermost values stay finite
        values, errors = tanh_sinh(
            lambda x: np.stack([np.exp(-1.2 * np.log(x) - 230.0), x**-0.5], -1), unit_map)
        assert isinstance(errors[0], DivergenceError)
        assert "(u)^-1.2 as u -> 0, which is not integrable" in str(errors[0])
        assert errors[1] is None
        assert values[1] == pytest.approx(2.0, rel=2e-15)

    def test_overflow_is_divergent(self):
        _, errors = tanh_sinh(lambda x: np.exp(1.0 / x), unit_map)
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
