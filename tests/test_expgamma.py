"""Exponential-base specialization: closed forms, agreement with the
generic path, the corrected analytic score, and the tail law."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.special as sp

from oddsgamma import (
    DataError,
    DivergenceError,
    GammaRatioDist,
    OEGammaDist,
    SeriesControl,
    SeriesResult,
    make_exponential,
    oe_loglik_and_score,
    wheaton,
)
from oddsgamma.specfun import _MAP_BLOCK

from streams import numpy_sample
from test_acceptance import SERIES_CONTROL, SERIES_ORDERS, SERIES_SETTINGS
from test_family import logistic_base

LN2 = math.log(2.0)
M2_PARAMS = (0.131, 0.179, 0.539)


class TestConstruction:
    def test_rejects_nonpositive(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, math.inf)]:
            with pytest.raises(ValueError, match="positive finite"):
                OEGammaDist(*bad)

    def test_support(self):
        assert OEGammaDist(1.0, 1.0, 1.0).support == (0.0, math.inf)

    @pytest.mark.parametrize("kind, params", [
        (np.float32, (0.5, 0.75, 2.0)),
        (np.int64, (2, 1, 3)),
        (np.float64, (0.131, 0.179, 0.539)),
    ], ids=["float32", "int64", "float64"])
    def test_numpy_scalar_parameters(self, kind, params):
        # stored as Python floats, so the law is the float-parameter law
        # bit for bit
        a, b, lam = (kind(v) for v in params)
        fa, fb, flam = (float(v) for v in (a, b, lam))
        x = np.array([0.05, 0.7, 3.0, 25.0])
        oe = OEGammaDist(a, b, lam)
        family = GammaRatioDist(a, b, make_exponential(flam))
        for d in (oe, family):
            assert all(type(v) is float for v in (d.alpha, d.beta))
        assert type(oe.lam) is float
        assert np.array_equal(oe.log_pdf(x), OEGammaDist(fa, fb, flam).log_pdf(x))
        assert np.array_equal(
            family.log_pdf(x),
            GammaRatioDist(fa, fb, make_exponential(flam)).log_pdf(x))


class TestClosedFormSubclass:
    """The exponential-base law is the family over Exp(lam) and overrides
    only its analytic moment series; its closed-form odds are the base's."""

    OWN = {"moment_series", "as_family"}

    def test_defines_only_the_closed_forms(self):
        assert issubclass(OEGammaDist, GammaRatioDist)
        own = {
            name for name, v in vars(OEGammaDist).items()
            if not name.startswith("__") and (callable(v) or isinstance(v, property))
        }
        assert own == self.OWN
        for name in ("odds", "log_pdf", "renyi_series", "mgf_series", "cf_series"):
            assert getattr(OEGammaDist, name) is getattr(GammaRatioDist, name)

    def test_value_semantics(self):
        d = OEGammaDist(1, 2, 3)
        twin = OEGammaDist(1.0, 2.0, 3.0)
        assert repr(d) == "OEGammaDist(alpha=1.0, beta=2.0, lam=3.0)"
        assert d == twin
        assert hash(d) == hash(twin)
        assert type(d.as_family()) is GammaRatioDist
        assert d != d.as_family()

    def test_hazard_at_infinity_is_outside_support(self):
        # at the top of the support sf = 0, and the hazard is nan
        assert math.isnan(OEGammaDist(1.0, 1.0, 1.0).hazard(np.inf))


class TestClosedForms:
    def test_cdf_at_log_two(self):
        assert OEGammaDist(1.0, 1.0, 1.0).cdf(LN2) == pytest.approx(
            math.exp(-1.0), rel=1e-13
        )

    def test_cdf_below_support(self):
        d = OEGammaDist(0.131, 0.179, 0.539)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-5.0) == 0.0

    @pytest.mark.parametrize("generic", [False, True])
    def test_nan_in_nan_out(self, generic):
        d = OEGammaDist(*M2_PARAMS)
        d = d.as_family() if generic else d
        for f in (d.odds, d.cdf, d.pdf, d.log_pdf):
            assert math.isnan(f(math.nan)), f.__name__
            got = f(np.array([math.nan, 1.0, 0.0]))
            assert np.isnan(got[0]) and got[1] == f(1.0) and got[2] == f(0.0), f.__name__

    # x = 2y at lam = 1/2, for y = lam x in {Y0 - 1 ulp, Y0, Y0 + 1 ulp,
    # 1e-300, 1e-8, ln 2, 36, 700, 710, 750, 1e4}: Y0 = 5.56268464626801e-309
    # is the least y where w = 1/expm1(y) is finite, and expm1 overflows
    # past 709.78 and w underflows past 745. Log densities by 40-digit
    # mpmath on these floats, of ln lam + alpha ln beta - ln Gamma(alpha)
    # - alpha y - (alpha+1) ln(-expm1(-y)) - beta / expm1(y)
    LOG_PDF_X = [1.1125369292536007e-308, 1.1125369292536017e-308, 1.1125369292536027e-308,
                 2e-300, 2e-8, 2.0 * LN2, 72.0, 1400.0, 1420.0, 1500.0, 2e4]
    LOG_PDF_PINS = {
        (0.131, 0.179, 0.5): [
            -3.2178707114035453391e+307, -3.2178707114035424811e+307,
            -3.217870711403539623e+307, -1.7899999999999998796e+299,
            -17899981.965454393986, -2.3745971401613716069, -7.6047443207213169158,
            -94.588744320721320675, -95.898744320721320728, -101.13874432072132094,
            -1312.8887443207213702],
        (2.0, 1e-3, 0.5): [
            -1.7976931348623159452e+305, -1.7976931348623143485e+305,
            -1.7976931348623127518e+305, -9.9999999999999999576e+296,
            -99959.246115511667946, -13.816510557964273947, -86.508657738524218676,
            -1414.5086577385242194, -1434.5086577385242194, -1514.5086577385242194,
            -20014.508657738524219],
    }

    @pytest.mark.parametrize("prm, generic", [
        pytest.param(prm, generic, id=f"prm{i}-generic" if generic else f"prm{i}")
        for generic, (i, prm) in itertools.product((False, True), enumerate(sorted(LOG_PDF_PINS)))])
    def test_log_pdf_against_mpmath(self, prm, generic):
        # the generic law meets the pins too: where w overflows, ln G1 is
        # log(cdf) of the subnormal cdf itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = OEGammaDist(*prm)
            d = d.as_family() if generic else d
            got = d.log_pdf(np.array(self.LOG_PDF_X))
            one = [d.log_pdf(x) for x in self.LOG_PDF_X]
            edges = d.log_pdf(np.array([-1.0, 0.0, math.nan, math.inf]))
        want = np.array(self.LOG_PDF_PINS[prm])
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))
        assert one == got.tolist()
        assert edges[0] == edges[1] == edges[3] == -math.inf and math.isnan(edges[2])

    @pytest.mark.parametrize("d", [
        pytest.param(OEGammaDist(*M2_PARAMS), id="prm0"),
        pytest.param(OEGammaDist(0.961, 0.5, 0.8), id="prm1"),
        pytest.param(OEGammaDist(1.504, 1.2, 1.5), id="prm2"),
        pytest.param(GammaRatioDist(0.6, 1.3, logistic_base()), id="logistic"),
    ])
    def test_maps_do_not_depend_on_their_blocks(self, d):
        # a call of more than two blocks, with the edges shuffled in (the
        # log-density's overflow branch at subnormal x or cdf among them,
        # and on the logistic base, whose odds are the derived sf/cdf,
        # cdf = 0 and log_sf = -inf at alpha < 1), against calls that
        # split its blocks and one call per edge
        edges = np.array([-math.inf, -1e308, -745.0, -740.0, -1.0, -0.0, 0.0, 5e-324,
                          1e-310, 1e-300, 1500.0, 1e308, math.inf, math.nan])
        x = np.concatenate([d.sample(2 * _MAP_BLOCK + 1000, 3), np.repeat(edges, 50)])
        np.random.default_rng(1).shuffle(x)
        at_edges = np.flatnonzero(np.isin(x, edges) | np.isnan(x))
        for f in (d.cdf, d.log_pdf):
            whole = f(x)
            for size in (_MAP_BLOCK - 1, _MAP_BLOCK, _MAP_BLOCK + 1):
                parts = [f(x[i:i + size]) for i in range(0, x.size, size)]
                assert np.array_equal(np.concatenate(parts), whole, equal_nan=True), (f, size)
            one = [f(v) for v in x[at_edges]]
            assert np.array_equal(one, whole[at_edges], equal_nan=True), f

    def test_pdf_at_log_two(self):
        assert OEGammaDist(1.0, 1.0, 1.0).pdf(LN2) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-13
        )

    def test_hazard_at_log_two(self):
        expect = 2.0 * math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert OEGammaDist(1.0, 1.0, 1.0).hazard(LN2) == pytest.approx(
            expect, rel=1e-12
        )

    def test_hazard_domain_and_overflow(self):
        # 0 at the bottom of the support; at 700 sf ~ 9.9e-305 is normal
        # and the hazard is lam = 1; at 709 sf ~ 1.2e-308 is subnormal and
        # at 720 the odds underflow to sf = 0, so both are nan, as are
        # +inf and nan; a scalar gives its array entry as a float
        d = OEGammaDist(1.0, 1.0, 1.0)
        x = np.array([0.0, 700.0, 709.0, 720.0, np.inf, np.nan])
        got = d.hazard(x)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(1.0, rel=1e-13)
        assert np.isnan(got[2:]).all()
        assert 0.0 < d.sf(709.0) < np.finfo(float).tiny <= d.sf(700.0)
        for xi, hi in zip(x, got):
            h = d.hazard(float(xi))
            assert type(h) is float and (h == hi or math.isnan(h) and math.isnan(hi))

    def test_hazard_is_nan_where_the_flood_law_survival_is_zero(self):
        d = OEGammaDist(*M2_PARAMS)
        assert d.sf(1370.0) == 0.0
        assert math.isnan(d.hazard(1370.0))

    def test_quantile_at_exp_minus_one(self):
        assert OEGammaDist(1.0, 1.0, 1.0).quantile(math.exp(-1.0)) == pytest.approx(
            LN2, rel=1e-12
        )


class TestGenericAgreement:
    """The exponential-base law and the generic construction on an
    exponential base share one path for every map, so they agree bit for
    bit."""

    MAPS = ("odds", "cdf", "sf", "log_pdf", "pdf", "hazard")

    def test_cdf_pdf_hazard_match(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            a, b, lam = rng.uniform(0.1, 3.0, size=3)
            oe = OEGammaDist(a, b, lam)
            gen = GammaRatioDist(a, b, make_exponential(lam))
            xs = rng.uniform(0.05, 20.0 / lam, size=20)
            xs = xs[oe.sf(xs) >= np.finfo(float).tiny]  # hazard is nan past that
            for name in self.MAPS:
                got, want = getattr(oe, name)(xs), getattr(gen, name)(xs)
                assert np.array_equal(got, want), (name, a, b, lam)
                assert getattr(oe, name)(float(xs[0])) == getattr(gen, name)(float(xs[0])), name

    def test_fitted_point_matches_generic(self):
        oe = OEGammaDist(*M2_PARAMS)
        gen = GammaRatioDist(0.131, 0.179, make_exponential(0.539))
        x = np.array([1e-310, 0.3, 5.0, 27.0, 300.0, 1500.0])
        for name in self.MAPS[:-1]:
            assert np.array_equal(getattr(oe, name)(x), getattr(gen, name)(x)), name

    def test_as_family_round_trip(self):
        oe = OEGammaDist(0.6, 0.05, 1.0)
        fam = oe.as_family()
        assert type(fam) is GammaRatioDist
        assert fam.base is oe.base
        assert fam.cdf(2.0) == oe.cdf(2.0)


class TestQuantileSample:
    def test_round_trips(self):
        d = OEGammaDist(*M2_PARAMS)
        for p in (0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
            assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_survival_round_trips(self):
        d = OEGammaDist(*M2_PARAMS)
        for s in (1e-9, 1e-4, 0.2, 0.8):
            x = d.quantile_sf(s)
            assert 1.0 - d.cdf(x) == pytest.approx(s, rel=1e-6, abs=1e-12)

    def test_domain(self):
        d = OEGammaDist(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="quantile requires"):
            d.quantile(0.0)
        with pytest.raises(ValueError, match="sample size"):
            d.sample(-1, np.random.default_rng(0))

    def test_sample_empty_and_deterministic(self):
        d = OEGammaDist(*M2_PARAMS)
        assert len(d.sample(0, np.random.default_rng(0))) == 0
        a = d.sample(64, np.random.default_rng(9))
        b = d.sample(64, np.random.default_rng(9))
        assert np.array_equal(a, b)
        assert np.all(a > 0.0)

    @pytest.mark.parametrize("alpha", [0.01, 0.131, 2.0])
    def test_sample_is_the_family_sampler(self, alpha):
        # the generic sampler maps every draw through the exponential
        # base's exact log_isf, which is the closed form softplus(-ln T)/lam
        d = OEGammaDist(alpha, 0.179, 0.539)
        ours = d.sample(20_000, np.random.default_rng(21))
        generic = d.as_family().sample(20_000, np.random.default_rng(21))
        assert np.array_equal(ours, generic)

    def test_sample_pinned_stream(self):
        # numpy's stream on seed 7, bit for bit on every CPU
        d = OEGammaDist(*M2_PARAMS)
        draws = d.sample(5, np.random.default_rng(7))
        assert np.array_equal(draws, numpy_sample(d, np.random.default_rng(7), 5))


class TestScore:
    def test_single_point_value(self):
        # at (1,1,1) and x = ln 2 the density is 2/e
        ll, grad = oe_loglik_and_score([LN2], 1.0, 1.0, 1.0)
        assert ll == pytest.approx(LN2 - 1.0, rel=1e-14)
        assert grad.shape == (3,)

    def test_matches_finite_differences(self, flood_values):
        rng = np.random.default_rng(2718)
        points = [(0.131, 0.179, 0.539), (1.0, 1.0, 1.0)]
        points += [tuple(rng.uniform(0.2, 2.5, size=3)) for _ in range(8)]
        h = 1e-6
        for theta in points:
            ll, grad = oe_loglik_and_score(flood_values, *theta)
            fd = np.empty(3)
            for i in range(3):
                tp = list(theta)
                tm = list(theta)
                tp[i] += h
                tm[i] -= h
                fd[i] = (
                    oe_loglik_and_score(flood_values, *tp)[0]
                    - oe_loglik_and_score(flood_values, *tm)[0]
                ) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - fd)) / scale <= 1e-6, theta

    def test_stationary_near_reported_fit(self, flood_values, fits):
        # the three-digit published estimates sit at a near-stationary
        # point: curvature (n psi'(alpha) ~ 4e3) amplifies the 3e-4
        # rounding into a gradient of order one, far below the O(n)
        # magnitude of a non-stationary point; the refit itself is
        # stationary to machine-level tolerance
        _, grad = oe_loglik_and_score(flood_values, *M2_PARAMS)
        assert np.max(np.abs(grad)) <= 2.0
        res, _, _ = fits["m2"]
        _, grad_hat = oe_loglik_and_score(flood_values, *res.theta_hat)
        assert np.max(np.abs(grad_hat)) <= 1e-3

    def test_domain_errors(self):
        with pytest.raises(DataError, match="strictly positive"):
            oe_loglik_and_score([1.0, -2.0], 1.0, 1.0, 1.0)
        with pytest.raises(DataError):
            oe_loglik_and_score([], 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="strictly positive"):
            oe_loglik_and_score([1.0], 0.0, 1.0, 1.0)


class TestTailLaw:
    def test_log_density_decay_constant(self):
        # ln pdf + alpha*lam*x approaches ln(lam * beta^alpha / Gamma(alpha));
        # this limit is what pins the mgf domain threshold
        for a, b, lam in [(0.131, 0.179, 0.539), (2.0, 1.0, 1.0), (0.7, 0.3, 2.0)]:
            d = OEGammaDist(a, b, lam)
            const = math.log(lam) + a * math.log(b) - math.lgamma(a)
            for x in (50.0 / lam, 100.0 / lam, 200.0 / lam):
                assert d.log_pdf(x) + a * lam * x == pytest.approx(
                    const, abs=1e-3
                ), (a, b, lam, x)


class TestMoments:
    def test_normalization_order(self):
        assert OEGammaDist(*M2_PARAMS).moment_quadrature(0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_mean_special_value(self):
        assert OEGammaDist(2.0, 1.0, 1.0).moment_quadrature(1) == pytest.approx(
            0.5772156649015329, abs=1e-10
        )

    def test_fitted_mean_and_second_moment(self):
        d = OEGammaDist(*M2_PARAMS)
        assert d.moment_quadrature(1) == pytest.approx(12.2464364547, rel=1e-9)
        assert d.moment_quadrature(2) == pytest.approx(341.4000743, rel=1e-8)

    def test_fourth_moment_near_a_rounding_midpoint(self):
        # mpmath, 30 digits: quadrature over ln T of (log1p(1/T)/lam)^4
        # against the Gamma(alpha, rate beta) density of T
        d = OEGammaDist(2.08247, 0.915075, 3.15294)
        assert d.moment_quadrature(4) == pytest.approx(
            0.0072225043985041087291, rel=1e-13, abs=0.0)

    def test_shape_coefficients(self):
        d = OEGammaDist(*M2_PARAMS)
        assert d.general_coefficient(3) == pytest.approx(2.119350618, rel=1e-8)
        assert d.general_coefficient(4) == pytest.approx(9.567695772, rel=1e-8)

    def test_one_term_truncation_closed_form(self):
        # a single retained term in each sum reduces to
        # beta^alpha * m! / (Gamma(alpha) * lam^m * alpha^(m+1))
        ctrl = SeriesControl(k_max=1, j_max=1)
        for a, b, lam, m in [(2.0, 1.0, 1.0, 1), (0.6, 0.05, 1.0, 2), (1.5, 0.2, 0.5, 3)]:
            r = OEGammaDist(a, b, lam).moment_series(m, ctrl)
            expect = b**a * math.gamma(m + 1.0) / (
                math.gamma(a) * lam**m * a ** (m + 1.0)
            )
            assert r.value == pytest.approx(expect, rel=1e-12), (a, m)

    def test_series_honesty(self):
        ctrl = SeriesControl(k_max=60, j_max=20_000, tail_tol=1e-6)
        d6 = OEGammaDist(0.6, 0.05, 1.0)
        r = d6.moment_series(6, ctrl)
        q = d6.moment_quadrature(6)
        # every shell summed has k < m - alpha = 5.4, so none diverges
        assert r.converged and r.diagnostic == ""
        assert r.terms_used[0] == 3
        assert abs(r.value - q) <= max(1e-6, 1e-4 * abs(q))
        d1 = OEGammaDist(*M2_PARAMS)
        r1 = d1.moment_series(1, ctrl)
        assert not r1.converged
        assert r1.diagnostic


class TestSmallShape:
    """Small alpha puts the odds variable below double range: the
    survival-side roots and the sampler's boost underflow in linear
    space. The pinned references are independent of the library."""

    def test_second_moment_has_no_false_divergence(self):
        # reference: scipy.integrate.quad over ln T; mpmath quadrature over
        # ln T at 25 digits gives 70755.002097613101
        d = OEGammaDist(0.05, 0.05, 0.1)
        assert d.moment_quadrature(2) == pytest.approx(70755.0021, rel=1e-9)

    def test_raw_moments_against_mpmath(self):
        # E X^m = E (softplus(-ln T)/lam)^m, T ~ Gamma(alpha, rate beta),
        # by mpmath quadrature over ln T at 25 digits
        ref = {1: 30.263027182752383, 2: 1834.0263754784770,
               3: 166729.56260748178, 4: 20209643.808153782}
        d = OEGammaDist(0.011, 0.5, 3.0)
        for m, want in ref.items():
            assert d.moment_quadrature(m) == pytest.approx(want, rel=1e-9), m

    def test_survival_quantile_below_double_range(self):
        a, b, lam = 0.01, 0.5, 2.0
        d = OEGammaDist(a, b, lam)
        x = d.quantile_sf(1e-6)
        # root of P(alpha, beta w(x)) = 1e-6 by mpmath.findroot at 25 digits
        assert x == pytest.approx(690.71346970523721, rel=1e-12)
        # log-space round trip: beta w(x) is below double range, where
        # ln P(alpha, z) = alpha ln z - ln Gamma(alpha + 1) + O(z)
        log_w = -lam * x - math.log(-math.expm1(-lam * x))
        log_s = a * (math.log(b) + log_w) - math.lgamma(a + 1.0)
        assert log_s == pytest.approx(math.log(1e-6), rel=1e-12)
        assert d.as_family().quantile_sf(1e-6) == pytest.approx(x, rel=1e-12)

    @pytest.mark.parametrize("theta, ref", [
        ((0.05, 5.0, 2.0), 3.7145065264154154),
        ((0.02, 1.0, 1.0), 5.3013759038519157),
        ((0.011, 0.5, 3.0), 4.7962211573173005),
    ])
    def test_renyi_half_has_no_false_divergence(self, theta, ref):
        # reference: mpmath quadrature of h^eta over x at 40 digits. The
        # generic log-density reads -inf once the base sf underflows with
        # alpha < 1, which made this integral look divergent.
        assert OEGammaDist(*theta).renyi_entropy(0.5) == pytest.approx(ref, rel=1e-9)

    def test_generic_log_density_past_sf_underflow(self):
        # at x = 400 the base sf e^{-800} underflows; the generic family
        # forms ln w from the base's log_sf and so matches the closed form
        # instead of reading -inf, and the entropy is no longer divergent
        d = OEGammaDist(0.05, 5.0, 2.0)
        generic = d.as_family()
        assert d.log_pdf(400.0) == pytest.approx(-42.19526012487008, rel=1e-12)
        assert generic.log_pdf(400.0) == pytest.approx(-42.19526012487008, rel=1e-12)
        # the mpmath value of test_renyi_half_has_no_false_divergence
        assert generic.renyi_entropy(0.5) == pytest.approx(3.7145065264154154, rel=1e-9)

    @pytest.mark.parametrize("generic", [False, True])
    def test_sample_not_piled_at_underflow_cap(self, generic):
        # draws of T below double range once mapped to the cap
        # x = ln(1 + 1/tiny)/lam; the law puts P(T < w(cap)) there and above
        a, n = 0.003, 200_000
        d = OEGammaDist(a, 1.0, 1.0)
        x = (d.as_family() if generic else d).sample(n, np.random.default_rng(2024))
        cap = math.log1p(1.0 / np.finfo(float).tiny)
        assert not np.any(x == cap)
        assert np.all(np.isfinite(x))
        p = float(sp.gammainc(a, 1.0 / np.expm1(cap)))
        assert p == pytest.approx(0.11962, abs=1e-5)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(np.mean(x > cap) - p) <= 4.0 * se


class TestMgfCfEntropy:
    def test_mgf_trivial_and_domain(self):
        d = OEGammaDist(2.0, 1.0, 1.0)
        assert d.mgf(0.0) == 1.0
        with pytest.raises(DivergenceError, match="alpha \\* tail_rate"):
            d.mgf(2.0)

    def test_mgf_value(self):
        assert OEGammaDist(1.0, 1.0, 1.0).mgf(0.5) == pytest.approx(
            2.1275595470, rel=1e-8
        )

    def test_mgf_against_sample_mean(self):
        # Monte Carlo cross-check at t = alpha*lam/2
        d = OEGammaDist(2.0, 1.0, 1.0)
        t = 1.0
        draws = d.sample(200_000, np.random.default_rng(11))
        vals = np.exp(t * draws)
        mc = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        assert abs(d.mgf(t) - mc) <= 3.0 * se

    def test_cf_pair(self):
        re, im = OEGammaDist(1.0, 1.0, 1.0).cf(1.0)
        assert re == pytest.approx(0.4061208563, rel=1e-8)
        assert im == pytest.approx(0.6220004401, rel=1e-8)
        assert OEGammaDist(1.0, 1.0, 1.0).cf(0.0) == (1.0, 0.0)

    def test_mgf_series_domain_and_honesty(self):
        d = OEGammaDist(2.0, 1.0, 1.0)
        with pytest.raises(DivergenceError, match="alpha \\* tail_rate = 2"):
            d.mgf_series(2.5)
        # formal at every parameter on this base: the order-0 component
        # needs tau(0, 0, -(alpha + 1)), which is not integrable
        r = d.mgf_series(0.5, SeriesControl(40, 2000, 1e-8))
        assert math.isnan(r.value) and not r.converged
        assert "not integrable" in r.diagnostic

    def test_renyi_value(self):
        assert OEGammaDist(1.0, 1.0, 1.0).renyi_entropy(2.0) == pytest.approx(
            LN2, rel=1e-9
        )

    def test_renyi_domain(self):
        with pytest.raises(ValueError):
            OEGammaDist(1.0, 1.0, 1.0).renyi_entropy(1.0)

    def test_renyi_monte_carlo(self):
        # E h^(eta-1)(X) = integral of h^eta; eta = 0.5
        d = OEGammaDist(2.0, 1.0, 1.0)
        eta = 0.5
        draws = d.sample(200_000, np.random.default_rng(13))
        vals = np.exp((eta - 1.0) * d.log_pdf(draws))
        mc = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        ref = math.exp((1.0 - eta) * d.renyi_entropy(eta))
        assert abs(ref - mc) <= 3.0 * se


class TestSeriesPins:
    """Pinned (value, terms_used, converged) cells of the exponential-base
    expansions: the counts and flags fix where each inner sum stopped.
    The Renyi series is the family's, whose verdict on this base comes
    from its first one or two tau columns (see TestRenyiSeriesVerdict)."""

    @pytest.mark.parametrize("prm, ctrl, eta, terms, r", [
        ((0.131, 0.179, 0.539), SeriesControl(60, 2000, 1e-6), 0.5, (1, 1), "-1.5655"),
        ((2.5, 1.0, 1.0), SeriesControl(40, 2000, 1e-8), 0.5, (0, 1), "-1.75"),
        ((2.5, 1.0, 1.0), SeriesControl(), 2.0, (0, 1), "-7"),
        ((0.6, 0.05, 1.0), SeriesControl(), 0.5, (1, 1), "-1.8"),
    ], ids=["m2-fit-eta0.5", "alpha2.5-eta0.5", "alpha2.5-eta2", "alpha0.6-eta0.5"])
    def test_renyi_series(self, prm, ctrl, eta, terms, r):
        result = OEGammaDist(*prm).renyi_series(eta, ctrl)
        assert math.isnan(result.value)
        assert result.terms_used == terms
        assert result.converged is False
        assert result.diagnostic == (
            f"term (k={terms[0]}, j=0) needs tau(m=0, eta={eta - 1.0:.6g}, r={r}), "
            "which is not integrable; the printed expansion is formal at these parameters"
        )

    def test_moment_mgf_cf_series(self):
        d = OEGammaDist(0.6, 0.05, 1.0)
        r = d.moment_series(2)
        assert r.value == pytest.approx(1.1684090110239669, rel=1e-13)
        assert r.terms_used == (13, 200)
        assert not r.converged
        # the mgf and cf expansions are formal at every parameter: each
        # is the order-0 verdict of the tau expansion, as on every law
        for r in (d.mgf_series(0.15), d.cf_series(0.7)):
            assert math.isnan(r.value)
            assert r.terms_used == (0, 1)
            assert not r.converged
            assert r.diagnostic == (
                "order-0 component failed: term (k=0, j=0) needs tau(m=0, eta=0, "
                "r=-1.6), which is not integrable; the printed expansion is formal "
                "at these parameters"
            )

    def test_overflowed_shells_end_the_sum(self):
        r = OEGammaDist(0.5, 1e200, 1.0).moment_series(1)
        assert r.value == math.inf
        assert r.terms_used == (3, 200)
        assert not r.converged
        assert r.diagnostic == "shell k=2 is not finite; the expansion overflowed"
        # the partial sums leave double range inside the inner truncation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = OEGammaDist(0.01, 1e20, 1.0).moment_series(2)
        assert r.value == math.inf
        assert r.diagnostic == "shell k=16 is not finite; the expansion overflowed"
        # the Renyi series ends at its first column, before any shell's
        # prefactor, which would overflow here, is formed
        r = OEGammaDist(200.0, 1e300, 1.0).renyi_series(2.0)
        assert math.isnan(r.value)
        assert r.terms_used == (0, 1)
        assert not r.converged
        assert r.diagnostic == (
            "term (k=0, j=0) needs tau(m=0, eta=1, r=-402), which is not integrable; "
            "the printed expansion is formal at these parameters"
        )


# the Renyi-series grid: laws from tiny to large alpha, orders either side
# of 1, and three controls
RENYI_LAWS = (
    (0.01, 1.0, 1.0), (0.131, 0.179, 0.539), (0.6, 0.05, 1.0), (1.0, 1.0, 1.0),
    (2.0, 1.0, 1.0), (2.5, 1.0, 1.0), (5.0, 2.0, 1.0), (30.0, 0.5, 2.0),
    (200.0, 1e-3, 1e-3),
)
RENYI_ETAS = (0.3, 0.5, 0.9, 1.1, 2.0, 5.0)
RENYI_CONTROLS = (SeriesControl(), SeriesControl(60, 2000, 1e-6), SeriesControl(40, 2000, 1e-8))
# tau at r = -eta (alpha + 1) within 1e-3 of the Beta function's pole may
# be ruled "could not be resolved" rather than divergent
RENYI_CELLS = [
    (prm, eta, ctrl)
    for prm in RENYI_LAWS for eta in RENYI_ETAS for ctrl in RENYI_CONTROLS
    if abs(eta * (prm[0] + 1.0) - 1.0) >= 1e-3
]


class TestRenyiSeriesVerdict:
    """OEGammaDist inherits the family's Renyi series. On the exponential
    base, column j = 0 of shell k is tau(0, eta - 1, -k - eta (alpha + 1))
    = lam^(eta - 1) B(1 - k - eta (alpha + 1), eta), finite only for
    k = 0 with eta (alpha + 1) < 1. So the series ends at term (k=0, j=0)
    where eta (alpha + 1) > 1 and at (k=1, j=0) where it is below 1: nan,
    not converged, from at most two tau columns."""

    @pytest.mark.parametrize(
        "prm, eta, ctrl", RENYI_CELLS,
        ids=[f"{prm}-{eta}-{ctrl.tail_tol:g}" for prm, eta, ctrl in RENYI_CELLS],
    )
    def test_family_verdict(self, prm, eta, ctrl):
        d = OEGammaDist(*prm)
        r = d.renyi_series(eta, ctrl)
        ref = d.as_family().renyi_series(eta, ctrl)
        assert math.isnan(r.value) and math.isnan(ref.value)
        assert (r.terms_used, r.converged, r.diagnostic) == (
            ref.terms_used, ref.converged, ref.diagnostic)
        c = eta * (prm[0] + 1.0)
        k = 0 if c > 1.0 else 1
        assert r.terms_used == (k, 1)
        assert not r.converged
        assert r.diagnostic == (
            f"term (k={k}, j=0) needs tau(m=0, eta={eta - 1.0:.6g}, r={-k - c:.6g}), "
            "which is not integrable; the printed expansion is formal at these parameters"
        )
        if k == 1:
            # shell 0's first column is finite: the Beta function's value
            assert d.tau(0, eta - 1.0, -c) == pytest.approx(
                prm[2] ** (eta - 1.0) * sp.beta(1.0 - c, eta), rel=1e-9)


class TestDivergentShell:
    """OE moment_series: shell k's inner terms go like j^(k+alpha-m-1),
    so shells k >= m - alpha diverge. A sum that met its tail after
    summing the first of them keeps its value and terms_used but is not
    converged, and its note names that shell and the exponent."""

    @pytest.mark.parametrize("prm, m, ctrl, value, terms, note", [
        ((2.5, 1.0, 1.0), 2, SeriesControl(60, 2000, 0.1),
         -42.28830781618547, (52, 466), "shell k=0 diverges: its inner terms go like j^-0.5"),
        ((5.0, 2.0, 1.0), 3, SeriesControl(60, 2000, 0.5),
         0.029112008657346523, (16, 20), "shell k=0 diverges: its inner terms go like j^1"),
        # the inner terms underflow to 0, which met the tail criterion
        ((200.0, 1e-3, 1e-3), 1, SeriesControl(),
         0.0, (2, 2), "shell k=0 diverges: its inner terms go like j^198"),
        ((200.0, 1.0, 1.0), 1, SeriesControl(),
         0.0, (2, 2), "shell k=0 diverges: its inner terms go like j^198"),
    ], ids=["alpha2.5-m2-tail0.1", "alpha5-m3-tail0.5", "alpha200-beta1e-3-m1", "alpha200-beta1-m1"])
    def test_found_cells_are_not_converged(self, prm, m, ctrl, value, terms, note):
        r = OEGammaDist(*prm).moment_series(m, ctrl)
        # the first cell's 52 alternating shells move by 3.5e-13 relative
        # without numpy's AVX-512 exp and log kernels
        assert r.value == pytest.approx(value, rel=1e-10, abs=0.0)
        assert r.terms_used == terms
        assert r.converged is False
        assert r.diagnostic == note + ", which is not summable"

    def test_the_first_divergent_shell_is_named(self):
        # m - alpha = 0.99: shell 0 converges, shell 1 is the first to diverge
        d = OEGammaDist(0.01, 1e-3, 1.0)
        r = d.moment_series(1, SeriesControl(60, 2000, 0.5))
        assert r.terms_used == (2, 3)
        assert r.diagnostic == (
            "shell k=1 diverges: its inner terms go like j^-0.99, which is not summable")

    def test_a_failed_sum_keeps_its_own_note(self):
        r = OEGammaDist(2.5, 1.0, 1.0).moment_series(2)
        assert not r.converged
        assert "diverges" not in r.diagnostic


def test_converged_exactly_when_the_diagnostic_is_empty():
    """No SeriesResult is converged with a note, or unconverged without
    one: the moment and central-moment series on criterion 9's grid (the
    family's tau expansion at the default control), and the Renyi, mgf
    and cf series on the Renyi grid."""
    results = []
    for prm in SERIES_SETTINGS:
        d = OEGammaDist(*prm)
        for m in SERIES_ORDERS:
            results += [d.moment_series(m, SERIES_CONTROL),
                        d.central_moment_series(m, SERIES_CONTROL),
                        d.as_family().moment_series(m)]
    for prm, eta, ctrl in RENYI_CELLS:
        d = OEGammaDist(*prm)
        results += [d.renyi_series(eta, ctrl),
                    d.mgf_series(0.25 * prm[0] * prm[2], ctrl), d.cf_series(0.7, ctrl)]
    assert any(r.converged for r in results)
    for r in results:
        assert r.converged is (r.diagnostic == ""), r


class TestCentralMomentSeries:
    """The zeroth raw moment is 1 exactly; its own series is formal at
    every parameter, so the recombination never evaluates it."""

    CTRL = SeriesControl(60, 2000, 1e-8)

    def test_value_is_recombination_with_unit_mass(self):
        d = OEGammaDist(0.6, 0.05, 1.0)
        r = d.central_moment_series(2, self.CTRL)
        mu1 = d.moment_series(1, self.CTRL).value
        mu2 = d.moment_series(2, self.CTRL).value
        assert r.value == math.fsum([mu2, -2.0 * mu1 * mu1, mu1 * mu1])
        # still not converged here, but close to quadrature, not -109
        assert not r.converged
        assert r.value == pytest.approx(d.central_moment_quadrature(2), rel=2e-5)

    def test_diagnostic_names_a_nonzero_order(self):
        r = OEGammaDist(0.6, 0.05, 1.0).central_moment_series(2, self.CTRL)
        assert "order-1 raw-moment series" in r.diagnostic
        assert "order-0" not in r.diagnostic and "k=0" not in r.diagnostic

    def test_converged_when_every_component_converges(self, monkeypatch):
        d = OEGammaDist(0.6, 0.05, 1.0)
        values = {1: 0.5, 2: 1.25, 3: 4.0}
        monkeypatch.setattr(
            OEGammaDist, "moment_series",
            lambda self, m, ctrl=None: SeriesResult(values[m], (m, 10 * m), True),
        )
        r = d.central_moment_series(3)
        assert r.converged and r.diagnostic == ""
        assert r.terms_used == (3, 30)
        assert r.value == pytest.approx(4.0 - 3 * 0.5 * 1.25 + 2 * 0.5**3, rel=1e-15)
        assert d.central_moment_series(1).value == 0.0
        assert d.central_moment_series(0) == SeriesResult(1.0, (0, 0), True)

    def test_overflowed_raw_moments_give_nan(self):
        # moment_series(1) and (2) come back inf here, and inf - inf has
        # no value
        r = OEGammaDist(0.5, 1e200, 1.0).central_moment_series(2)
        assert math.isnan(r.value)
        assert r.terms_used == (3, 200)
        assert not r.converged
        assert r.diagnostic == (
            "the order-1 raw-moment series did not converge: "
            "shell k=2 is not finite; the expansion overflowed"
        )

    def test_recombination_past_double_range_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(
            OEGammaDist, "moment_series",
            lambda self, m, ctrl=None: SeriesResult(1e200, (m, 10 * m), True),
        )
        r = OEGammaDist(0.6, 0.05, 1.0).central_moment_series(2)
        assert math.isnan(r.value)
        assert not r.converged
        assert r.diagnostic == "the recombination of the raw moments left double range"


class TestWheatonLikelihood:
    def test_loglik_at_published_estimates(self, flood_values):
        ll, _ = oe_loglik_and_score(flood_values, *M2_PARAMS)
        assert ll == pytest.approx(-249.515, abs=0.01)
