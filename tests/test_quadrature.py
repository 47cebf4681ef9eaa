"""Adaptive quadrature: exactness on polynomials, hard oscillatory and
singular integrands against closed forms, divergence detection, and
vector-valued integrands against per-component scalar runs."""

import math

import numpy as np
import pytest
import scipy.integrate

from oddsgamma.quadrature import WindowedResult, adaptive_quad, windowed_quad


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

    def test_panel_budget_caps_work(self):
        # one integrand call evaluates a whole level, so count nodes:
        # 15 per panel
        nodes = [0]

        def noisy(x):
            nodes[0] += np.size(x)
            return (1.0 - np.asarray(x)) ** -1.5

        adaptive_quad(noisy, 1.0 - 1e-8, 1.0 - 1e-9, max_panels=1000)
        assert nodes[0] <= 1005 * 15

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
        r = windowed_quad(lambda x: x**-0.5, 0.0, 1.0, "lower")
        assert isinstance(r, WindowedResult)
        assert not r.diverged
        assert r.value == pytest.approx(2.0, abs=1e-9)

    def test_strongly_singular_but_integrable(self):
        r = windowed_quad(lambda x: x**-0.9, 0.0, 1.0, "lower")
        assert not r.diverged
        assert r.value == pytest.approx(10.0, rel=2e-2)

    def test_non_integrable_lower(self):
        r = windowed_quad(lambda x: x**-1.2, 0.0, 1.0, "lower")
        assert r.diverged
        assert "Cauchy" in r.detail
        assert "lower" in r.detail

    def test_non_integrable_upper(self):
        r = windowed_quad(lambda x: (1.0 - x) ** -1.5, 0.0, 1.0, "upper")
        assert r.diverged

    def test_integrable_upper(self):
        # accuracy at an upper singularity is capped near 2*sqrt(ulp(1))
        # by double resolution at the endpoint
        r = windowed_quad(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, "upper")
        assert not r.diverged
        assert r.value == pytest.approx(2.0, abs=1e-7)

    def test_smooth_integrand_untouched(self):
        r = windowed_quad(np.exp, 0.0, 1.0, "lower")
        assert not r.diverged
        assert r.value == pytest.approx(math.e - 1.0, rel=1e-12)

    @pytest.mark.parametrize("end, fs", [
        ("lower", [lambda x: x**-0.5, lambda x: x**-1.2, np.exp]),
        ("upper", [lambda x: (1.0 - x) ** -0.5, lambda x: (1.0 - x) ** -1.5, np.cos]),
    ])
    def test_vector_valued_verdicts_per_component(self, end, fs):
        stacked = windowed_quad(lambda x: np.stack([f(x) for f in fs], -1), 0.0, 1.0, end)
        assert stacked.value.shape == stacked.diverged.shape == (3,)
        singles = [windowed_quad(f, 0.0, 1.0, end) for f in fs]
        assert stacked.diverged.tolist() == [r.diverged for r in singles] == [False, True, False]
        assert stacked.detail == tuple(r.detail for r in singles)
        # a shared panel is refined until every component passes, so a
        # component can move, within the tolerance, from its scalar value
        for got, r in zip(stacked.value, singles):
            assert got == pytest.approx(r.value, rel=1e-12, abs=1e-10)

    def test_bad_endpoint_name(self):
        with pytest.raises(ValueError, match="singular_end"):
            windowed_quad(lambda x: x, 0.0, 1.0, "middle")
