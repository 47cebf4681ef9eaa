"""Exponential-base specialization: closed forms, agreement with the
generic path, the corrected analytic score, and the tail law."""

import math

import numpy as np
import pytest
import scipy.special as sp

from oddsgamma import (
    DataError,
    DivergenceError,
    GammaRatioDist,
    NumericalError,
    OEGammaDist,
    SeriesControl,
    make_exponential,
    oe_loglik_and_score,
    wheaton,
)

LN2 = math.log(2.0)
M2_PARAMS = (0.131, 0.179, 0.539)


class TestConstruction:
    def test_rejects_nonpositive(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, math.inf)]:
            with pytest.raises(ValueError, match="positive finite"):
                OEGammaDist(*bad)

    def test_support(self):
        assert OEGammaDist(1.0, 1.0, 1.0).support == (0.0, math.inf)


class TestClosedFormSubclass:
    """The exponential-base law is the family over Exp(lam) and overrides
    only what has a closed form there."""

    OWN = {
        "odds", "log_pdf", "sample",
        "moment_series", "mgf_series", "cf_series", "renyi_series",
        "_sum_analytic_shells", "as_family",
    }

    def test_defines_only_the_closed_forms(self):
        assert issubclass(OEGammaDist, GammaRatioDist)
        own = {
            name for name, v in vars(OEGammaDist).items()
            if not name.startswith("__") and (callable(v) or isinstance(v, property))
        }
        assert own == self.OWN

    def test_value_semantics(self):
        d = OEGammaDist(1, 2, 3)
        twin = OEGammaDist(1.0, 2.0, 3.0)
        assert repr(d) == "OEGammaDist(alpha=1.0, beta=2.0, lam=3.0)"
        assert d == twin
        assert hash(d) == hash(twin)
        assert type(d.as_family()) is GammaRatioDist
        assert d != d.as_family()

    def test_hazard_at_infinity_is_outside_support(self):
        with pytest.raises(ValueError, match="strictly inside the support"):
            OEGammaDist(1.0, 1.0, 1.0).hazard(np.inf)


class TestClosedForms:
    def test_cdf_at_log_two(self):
        assert OEGammaDist(1.0, 1.0, 1.0).cdf(LN2) == pytest.approx(
            math.exp(-1.0), rel=1e-13
        )

    def test_cdf_below_support(self):
        d = OEGammaDist(0.131, 0.179, 0.539)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-5.0) == 0.0

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
        d = OEGammaDist(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="strictly inside the support"):
            d.hazard(0.0)
        with pytest.raises(NumericalError, match="hazard overflow"):
            d.hazard(700.0)

    def test_quantile_at_exp_minus_one(self):
        assert OEGammaDist(1.0, 1.0, 1.0).quantile(math.exp(-1.0)) == pytest.approx(
            LN2, rel=1e-12
        )


class TestGenericAgreement:
    """The specialization must be indistinguishable from the generic
    construction on an exponential base."""

    def test_cdf_pdf_hazard_match(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            a, b, lam = rng.uniform(0.1, 3.0, size=3)
            oe = OEGammaDist(a, b, lam)
            gen = GammaRatioDist(a, b, make_exponential(lam))
            xs = rng.uniform(0.05, 20.0 / lam, size=20)
            assert np.allclose(oe.cdf(xs), gen.cdf(xs), rtol=1e-12, atol=1e-300)
            assert np.allclose(oe.pdf(xs), gen.pdf(xs), rtol=1e-12, atol=1e-300)
            for x in xs[:5]:
                surv = 1.0 - float(gen.cdf(x))
                if surv > 1e-12:
                    assert oe.hazard(float(x)) == pytest.approx(
                        gen.hazard(float(x)), rel=1e-11
                    )

    def test_fitted_point_matches_generic(self):
        oe = OEGammaDist(*M2_PARAMS)
        gen = GammaRatioDist(0.131, 0.179, make_exponential(0.539))
        assert oe.cdf(27.0) == pytest.approx(gen.cdf(27.0), rel=1e-12)

    def test_as_family_round_trip(self):
        oe = OEGammaDist(0.6, 0.05, 1.0)
        fam = oe.as_family()
        assert isinstance(fam, GammaRatioDist)
        assert fam.cdf(2.0) == pytest.approx(oe.cdf(2.0), rel=1e-12)


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

    def test_sample_pinned_stream(self):
        draws = OEGammaDist(*M2_PARAMS).sample(5, np.random.default_rng(7))
        assert np.allclose(
            draws,
            [6.510803697, 0.7279619261, 0.7046974722, 19.46995316, 15.73755529],
            rtol=1e-9,
        )


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
        assert r.converged
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
        with pytest.raises(DivergenceError):
            d.mgf_series(2.5)
        r = d.mgf_series(0.5, SeriesControl(40, 2000, 1e-8))
        if r.converged:
            assert r.value == pytest.approx(d.mgf(0.5), abs=1e-4)
        else:
            assert r.diagnostic

    def test_renyi_value(self):
        assert OEGammaDist(1.0, 1.0, 1.0).renyi_entropy(2.0) == pytest.approx(
            LN2, rel=1e-9
        )

    def test_renyi_domain(self):
        with pytest.raises(ValueError):
            OEGammaDist(1.0, 1.0, 1.0).renyi_entropy(1.0)

    def test_renyi_series_reports_gap(self):
        # the printed display's eta-independent exponent makes the series
        # disagree with the quadrature entropy; the diagnostic must say so
        # even when the sum itself converged
        d = OEGammaDist(1.0, 1.0, 1.0)
        r = d.renyi_series(2.0, SeriesControl(40, 2000, 1e-8))
        gap = abs(r.value - d.renyi_entropy(2.0))
        if gap > 1e-3:
            assert r.diagnostic
            assert "quadrature" in r.diagnostic

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
    expansions: the counts and flags fix where each inner sum stopped."""

    @pytest.mark.parametrize("prm, ctrl, eta, value, terms, converged", [
        ((0.131, 0.179, 0.539), SeriesControl(60, 2000, 1e-6), 0.5,
         2.7248021949778645, (4, 1090), True),
        ((2.5, 1.0, 1.0), SeriesControl(40, 2000, 1e-8), 0.5,
         -4.308290285642284, (7, 919), True),
        ((2.5, 1.0, 1.0), SeriesControl(), 2.0, 4.560777339655881, (12, 17), True),
        ((0.6, 0.05, 1.0), SeriesControl(), 0.5, -0.8670399106815463, (5, 200), False),
    ])
    def test_renyi_series(self, prm, ctrl, eta, value, terms, converged):
        r = OEGammaDist(*prm).renyi_series(eta, ctrl)
        assert r.value == pytest.approx(value, rel=1e-13)
        assert r.terms_used == terms
        assert r.converged is converged

    def test_moment_mgf_cf_series(self):
        d = OEGammaDist(0.6, 0.05, 1.0)
        cells = [
            (d.moment_series(2), 1.1684090110239669),
            (d.mgf_series(0.15), 0.9676912399823493),
            (d.cf_series(0.7), 0.7392217914744543 + 0.21277916064643515j),
        ]
        for r, value in cells:
            assert r.value == pytest.approx(value, rel=1e-13)
            assert r.terms_used[1] == 200
            assert not r.converged
        assert [r.terms_used[0] for r, _ in cells] == [13, 16, 16]


class TestWheatonLikelihood:
    def test_loglik_at_published_estimates(self, flood_values):
        ll, _ = oe_loglik_and_score(flood_values, *M2_PARAMS)
        assert ll == pytest.approx(-249.515, abs=0.01)
