"""Generic survival-odds gamma family: closed-form anchors, quadrature
against independent integration, series honesty, and sampling law."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from scipy import special

from oddsgamma import (
    DEFAULT_CONTROL,
    BaseDistribution,
    DivergenceError,
    GammaRatioDist,
    NumericalError,
    OEGammaDist,
    SeriesControl,
    make_exponential,
)
from oddsgamma.family import _running_binomial, _truncate_inner

EULER_GAMMA = 0.5772156649015329


def dist(alpha, beta, lam):
    return GammaRatioDist(alpha, beta, make_exponential(lam))


def assert_honest(result, reference):
    """Two-arm rule: a converged series must match quadrature; a
    non-converged one must explain itself."""
    if result.converged:
        assert abs(result.value - reference) <= max(1e-6, 1e-4 * abs(reference))
    else:
        assert result.diagnostic


class TestConstruction:
    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError, match="alpha"):
            dist(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="beta"):
            dist(1.0, -2.0, 1.0)

    def test_support_follows_base(self):
        assert dist(1.0, 1.0, 1.0).support == (0.0, math.inf)


class TestOdds:
    def test_exponential_median_gives_one(self):
        assert dist(1.0, 1.0, 1.0).odds(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_monotone_decreasing_to_zero(self):
        d = dist(0.5, 2.0, 1.3)
        xs = np.array([0.1, 1.0, 5.0, 20.0])
        w = d.odds(xs)
        assert np.all(np.diff(w) < 0.0)
        assert w[-1] < 1e-10


class TestCdf:
    def test_alpha_one_closed_form(self):
        # alpha=1 collapses to exp(-beta * odds)
        d = dist(1.0, 1.0, 1.0)
        assert d.cdf(math.log(2.0)) == pytest.approx(math.exp(-1.0), rel=1e-13)
        d2 = dist(1.0, 0.7, 2.2)
        for x in (0.2, 1.0, 4.0):
            assert d2.cdf(x) == pytest.approx(
                math.exp(-0.7 * d2.odds(x)), rel=1e-12
            )

    def test_below_support_is_zero(self):
        d = dist(0.131, 0.179, 0.539)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-3.0) == 0.0

    def test_against_direct_integration(self):
        # integrate the defining gamma integrand above the odds value
        a, b, lam, x = 0.131, 0.179, 0.539, 10.0
        d = dist(a, b, lam)
        w = d.odds(x)
        val, _ = scipy.integrate.quad(
            lambda t: t ** (a - 1.0) * math.exp(-b * t), b and w, 5000.0, limit=300
        )
        ref = val * b**a / math.gamma(a)
        assert d.cdf(x) == pytest.approx(ref, rel=1e-9)

    def test_monotone_nondecreasing(self):
        d = dist(0.6, 0.05, 1.0)
        xs = np.linspace(0.01, 30.0, 200)
        assert np.all(np.diff(d.cdf(xs)) >= 0.0)


class TestPdf:
    def test_closed_value_at_log_two(self):
        assert dist(1.0, 1.0, 1.0).pdf(math.log(2.0)) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-13
        )

    def test_outside_support_zero(self):
        d = dist(2.0, 1.0, 1.0)
        assert d.pdf(-1.0) == 0.0
        assert d.log_pdf(-1.0) == -math.inf

    def test_nan_in_nan_out(self):
        # a base may map nan anywhere; the family answers nan itself
        d = dist(0.5, 1.0, 1.0)
        for f in (d.odds, d.cdf, d.pdf, d.log_pdf):
            got = f(np.array([math.nan, 2.0]))
            assert np.isnan(got[0]) and np.isfinite(got[1]), f.__name__

    def test_log_pdf_consistent(self):
        d = dist(0.131, 0.179, 0.539)
        for x in (0.4, 2.0, 11.0, 40.0):
            assert d.log_pdf(x) == pytest.approx(math.log(d.pdf(x)), rel=1e-12)

    def test_normalizes(self):
        for prm in [(1.0, 1.0, 1.0), (0.131, 0.179, 0.539), (3.2, 2.5, 0.8)]:
            d = dist(*prm)
            hi = d.quantile(1.0 - 1e-13)
            val, _ = scipy.integrate.quad(d.pdf, 0.0, hi, limit=400)
            assert val == pytest.approx(1.0, abs=1e-8), prm


class TestHazard:
    def test_closed_value_at_log_two(self):
        expect = 2.0 * math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert dist(1.0, 1.0, 1.0).hazard(math.log(2.0)) == pytest.approx(
            expect, rel=1e-12
        )

    def test_identity_with_pdf_and_cdf(self):
        d = dist(0.131, 0.179, 0.539)
        for x in (0.3, 1.0, 5.0, 20.0):
            surv = 1.0 - d.cdf(x)
            if surv > 1e-12:
                assert d.hazard(x) * surv == pytest.approx(d.pdf(x), rel=1e-9)

    def test_requires_interior_point(self):
        with pytest.raises(ValueError, match="strictly inside"):
            dist(1.0, 1.0, 1.0).hazard(0.0)

    def test_deep_tail_overflow_is_reported(self):
        with pytest.raises(NumericalError, match="hazard overflow"):
            dist(1.0, 1.0, 1.0).hazard(700.0)


class TestQuantile:
    def test_closed_value(self):
        assert dist(1.0, 1.0, 1.0).quantile(math.exp(-1.0)) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_round_trips(self):
        for prm in [(0.131, 0.179, 0.539), (1.0, 1.0, 1.0), (3.2, 2.5, 0.8)]:
            d = dist(*prm)
            for p in (1e-6, 0.001, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6):
                assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-9), (prm, p)

    def test_limits(self):
        # the lower tail is reached logarithmically slowly: H ~ exp(-beta w)
        # with w ~ 1/(lam x), so tiny p still maps to positive x
        d = dist(0.6, 0.4, 1.1)
        q_lo = d.quantile(1e-200)
        assert 0.0 < q_lo < d.quantile(1e-12) < d.quantile(1e-4)
        assert d.quantile(1.0 - 1e-12) > d.quantile(0.999)

    def test_domain(self):
        d = dist(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="quantile requires 0 < p < 1"):
            d.quantile(0.0)
        with pytest.raises(ValueError, match="quantile requires 0 < p < 1"):
            d.quantile(1.0)

    def test_survival_side(self):
        d = dist(0.131, 0.179, 0.539)
        for s in (1e-9, 1e-4, 0.3, 0.9):
            x = d.quantile_sf(s)
            assert 1.0 - d.cdf(x) == pytest.approx(s, rel=1e-6, abs=1e-12)

    # cdf and survival levels on both sides of 1/2, down to the deep tail
    # that quantile_sf maps through the base's log_isf
    LEVELS = np.array([1e-300, 1e-200, 1e-30, 1e-9, 0.1, 0.5, 0.5000001, 0.7, 1.0 - 1e-12])

    @pytest.mark.parametrize("prm", [(0.131, 0.179, 0.539), (0.01, 1.0, 1.0), (3.2, 2.5, 0.8)])
    def test_arrays_match_scalars_bit_for_bit(self, prm):
        for d in (dist(*prm), OEGammaDist(*prm)):
            for name in ("quantile", "quantile_sf"):
                f = getattr(d, name)
                levels = self.LEVELS[::-1] if name == "quantile" else self.LEVELS
                got = f(levels)
                assert got.shape == levels.shape
                want = np.array([f(float(q)) for q in levels])
                assert np.array_equal(got, want), (prm, name)
                assert np.array_equal(f(levels.reshape(3, 3)), want.reshape(3, 3))

    def test_deep_survival_levels_are_distinct(self):
        # 1e-300 and 1e-200 are below the odds' double range here, so they
        # come from log space rather than collapsing onto one value
        d = dist(0.131, 0.179, 0.539)
        x = d.quantile_sf(np.array([1e-300, 1e-200, 1e-30]))
        assert np.all(np.isfinite(x)) and x[0] > x[1] > x[2]

    @pytest.mark.parametrize("name,var", [("quantile", "p"), ("quantile_sf", "s")])
    def test_array_domain(self, name, var):
        f = getattr(dist(1.0, 1.0, 1.0), name)
        for bad in (0.0, 1.0, -0.5, 2.0, math.nan):
            with pytest.raises(ValueError, match=f"{name} requires 0 < {var} < 1"):
                f(np.array([0.3, bad]))
            with pytest.raises(ValueError, match=f"{name} requires 0 < {var} < 1"):
                f(bad)

    def test_zero_dim_input_gives_a_float(self):
        d = dist(0.5, 1.0, 1.0)
        for f in (d.quantile, d.quantile_sf):
            got = f(np.array(0.3))
            assert type(got) is float
            assert got == f(0.3)


class TestSampling:
    def test_empty(self):
        out = dist(1.0, 1.0, 1.0).sample(0, np.random.default_rng(0))
        assert len(out) == 0

    def test_deterministic_given_seed(self):
        d = dist(0.131, 0.179, 0.539)
        a = d.sample(50, np.random.default_rng(123))
        b = d.sample(50, np.random.default_rng(123))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("prm", [(0.131, 0.179, 0.539), (2.0, 1.0, 1.0)])
    def test_ks_sanity(self, prm):
        # covers both the boosted sub-1 shape path and the squeeze path
        d = dist(*prm)
        draws = d.sample(20_000, np.random.default_rng(42))
        assert np.all(draws > 0.0)
        stat = scipy.stats.kstest(draws, lambda x: d.cdf(x))
        assert stat.pvalue > 0.01, prm


class TestTau:
    def test_total_probability(self):
        assert dist(1.0, 1.0, 1.0).tau(0, 0, 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_polynomial_weight(self):
        # integral of G^3 dG
        assert dist(1.0, 1.0, 1.0).tau(0, 0, 3.0) == pytest.approx(0.25, rel=1e-10)

    def test_mean_weight(self):
        assert dist(1.0, 1.0, 1.0).tau(1, 0, 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_density_weight(self):
        # integral of g dG = lam / 2 for an exponential base
        assert dist(1.0, 1.0, 1.0).tau(0, 1, 0.0) == pytest.approx(0.5, rel=1e-9)

    def test_divergence_named(self):
        with pytest.raises(DivergenceError, match=r"tau\(m=1, eta=0, r=-2\.131\)"):
            dist(1.0, 1.0, 1.0).tau(1, 0, -2.131)


class TestBatchedTau:
    """tau over a vector of r against closed forms for the exponential
    base: in u = G(x), x = -ln(1 - u)/lam and g(x) = lam (1 - u)."""

    LAM = 1.3

    @staticmethod
    def closed(m, eta, r, lam):
        psi = special.digamma(r + 2.0) + EULER_GAMMA
        if (m, eta) == (1, 0.0):
            return psi / ((r + 1.0) * lam), -2.0
        if (m, eta) == (2, 0.0):
            return (
                (special.polygamma(1, 1.0) - special.polygamma(1, r + 2.0) + psi**2)
                / ((r + 1.0) * lam**2)
            ), -3.0
        return lam / ((r + 1.0) * (r + 2.0)), -1.0

    @pytest.mark.parametrize("m, eta", [(1, 0.0), (2, 0.0), (0, 1.0)])
    @pytest.mark.parametrize("a", [0.6, 1.4, 2.3])
    def test_closed_forms_and_verdicts(self, m, eta, a):
        # the r of a moment shell, r = j - a - 1, reaching below each
        # integrability limit for the larger shapes
        r = np.arange(200.0) - a - 1.0
        got = dist(a, 1.0, self.LAM).tau(m, eta, r)
        want, limit = self.closed(m, eta, r, self.LAM)
        assert np.array_equal(np.isnan(got), r <= limit)
        ok = r > limit
        np.testing.assert_allclose(got[ok], want[ok], rtol=1e-9, atol=0.0)

    def test_scalar_r_keeps_scalar_contract(self):
        d = dist(0.6, 1.0, self.LAM)
        val = d.tau(1, 0, 0.4)
        assert isinstance(val, float)
        assert val == pytest.approx(self.closed(1, 0.0, 0.4, self.LAM)[0], rel=1e-9)
        with pytest.raises(DivergenceError, match=r"tau\(m=0, eta=1, r=-1\.5\) is not integrable"):
            d.tau(0, 1.0, -1.5)


class TestMoments:
    def test_order_zero_normalization(self):
        for prm in [(0.131, 0.179, 0.539), (2.0, 1.0, 1.0)]:
            assert dist(*prm).moment_quadrature(0) == pytest.approx(1.0, abs=1e-9)

    def test_mean_special_value(self):
        # alpha=2, beta=1, unit-rate base: the mean integral evaluates to
        # the Euler-Mascheroni constant
        assert dist(2.0, 1.0, 1.0).moment_quadrature(1) == pytest.approx(
            EULER_GAMMA, abs=1e-10
        )

    def test_mean_against_independent_quadrature(self):
        d = dist(0.131, 0.179, 0.539)
        ref, _ = scipy.integrate.quad(
            lambda x: x * d.pdf(x), 0.0, d.quantile(1.0 - 1e-13), limit=400
        )
        assert d.moment_quadrature(1) == pytest.approx(ref, rel=1e-8)
        assert d.moment_quadrature(1) == pytest.approx(12.2464364547, rel=1e-9)

    def test_central_moment_trivial_orders(self):
        d = dist(0.6, 0.05, 1.0)
        assert d.central_moment_quadrature(0) == pytest.approx(1.0, abs=1e-12)
        assert d.central_moment_quadrature(1) == pytest.approx(0.0, abs=1e-7)

    def test_variance_against_centered_integrand(self):
        d = dist(2.0, 1.0, 1.0)
        mu = d.moment_quadrature(1)
        ref, _ = scipy.integrate.quad(
            lambda x: (x - mu) ** 2 * d.pdf(x), 0.0, d.quantile(1.0 - 1e-13), limit=400
        )
        assert d.central_moment_quadrature(2) == pytest.approx(ref, rel=1e-8)

    def test_general_coefficient_order_two_is_one(self):
        assert dist(1.5, 0.2, 0.5).general_coefficient(2) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_rejects_bad_order(self):
        d = dist(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            d.moment_quadrature(-1)
        with pytest.raises(ValueError):
            d.moment_quadrature(1.5)


def lomax_base():
    """Unit Lomax base, sf(x) = 1/(1 + x): the family's survival decays
    like x^(-alpha), so moments of order alpha and above diverge."""
    no_params = lambda x: np.zeros((0,) + np.shape(x))
    return BaseDistribution(
        name="lomax",
        cdf=lambda x: np.asarray(x, dtype=float) / (1.0 + np.asarray(x, dtype=float)),
        pdf=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)) ** 2,
        log_pdf=lambda x: -2.0 * np.log1p(np.asarray(x, dtype=float)),
        quantile=lambda u: np.asarray(u, dtype=float) / (1.0 - np.asarray(u, dtype=float)),
        support=(0.0, math.inf),
        params=(),
        param_positive=(),
        d_cdf_dparams=no_params,
        d_logpdf_dparams=no_params,
        sf=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
        isf=lambda s: 1.0 / np.asarray(s, dtype=float) - 1.0,
    )


class TestMomentMemo:
    @pytest.fixture
    def expect_calls(self, monkeypatch):
        calls = []
        expect = GammaRatioDist._expect

        def counted(self, f, what, **kwargs):
            calls.append(what)
            return expect(self, f, what, **kwargs)

        monkeypatch.setattr(GammaRatioDist, "_expect", counted)
        return calls

    def test_moments_payload_runs_two_expectations(self, expect_calls):
        # raw moments 1..4 in one pass, Renyi in the other
        d = OEGammaDist(2.0, 1.0, 3.0)

        def payload():
            raw = [d.moment_quadrature(m) for m in (1, 2, 3, 4)]
            return raw + [d.general_coefficient(3), d.general_coefficient(4)]

        first = payload() + [d.renyi_entropy(2.0)]
        assert len(expect_calls) == 2
        assert payload() == first[:-1]
        assert len(expect_calls) == 2
        assert d.central_moment_quadrature(2) > 0.0
        assert len(expect_calls) == 2

    def test_memo_is_not_part_of_the_value(self):
        base = make_exponential(3.0)
        d, fresh = GammaRatioDist(2.0, 1.0, base), GammaRatioDist(2.0, 1.0, base)
        d.moment_quadrature(1)
        assert d == fresh
        assert hash(d) == hash(fresh)
        assert repr(d) == repr(fresh)

    def test_divergent_moment_raises_every_time(self, expect_calls):
        d = GammaRatioDist(1.5, 1.0, lomax_base())
        assert math.isfinite(d.moment_quadrature(1))
        for _ in range(2):
            with pytest.raises(DivergenceError, match="moment of order 2"):
                d.moment_quadrature(2)
        assert len(expect_calls) == 3

    def test_finite_order_survives_a_divergent_pass(self, expect_calls):
        # asked first, order 2 fails its pass; order 1 of that same pass
        # converged and is served from the memo
        d = GammaRatioDist(1.5, 1.0, lomax_base())
        with pytest.raises(DivergenceError, match="moment of order 2 does not exist: "):
            d.moment_quadrature(2)
        assert len(expect_calls) == 1
        assert d.moment_quadrature(1) == pytest.approx(2.0, rel=1e-6)
        assert len(expect_calls) == 1

    def test_order_zero_is_one(self):
        assert dist(2.0, 1.0, 3.0).moment_quadrature(0) == pytest.approx(1.0, abs=1e-10)

    def test_high_order_fills_every_lower_order_in_one_pass(self, expect_calls):
        d = OEGammaDist(2.0, 1.0, 3.0)
        top = d.moment_quadrature(6)
        assert len(expect_calls) == 1
        assert sorted(d._raw_moments) == [1, 2, 3, 4, 5, 6]
        assert d.moment_quadrature(6) == top
        assert len(expect_calls) == 1

    @pytest.mark.parametrize("method, m", [
        ("general_coefficient", 6),
        ("central_moment_quadrature", 7),
    ])
    def test_central_orders_above_four_run_one_pass(self, expect_calls, method, m):
        d = OEGammaDist(2.0, 1.0, 3.0)
        assert math.isfinite(getattr(d, method)(m))
        assert len(expect_calls) == 1
        assert sorted(d._raw_moments) == list(range(1, m + 1))

    def test_lowest_divergent_order_is_named(self, expect_calls):
        # every order >= 2 of a Lomax base with alpha 1.5 diverges
        d = GammaRatioDist(1.5, 1.0, lomax_base())
        with pytest.raises(DivergenceError, match="moment of order 2 does not exist: "):
            d.general_coefficient(5)
        assert d.moment_quadrature(1) == pytest.approx(2.0, rel=1e-6)

    # 40-digit mpmath in T-space: T ~ Gamma(5, rate 2), X = log1p(1/T)/10
    ONE_PASS_PINS = {
        "m1": 0.039080571775755236492,
        "m2": 0.001794255804879502954,
        "m3": 0.000097898943019699239273,
        "m4": 6.4010892444825212309e-6,
        "skewness": 1.5846424407493205417,
        "kurtosis": 7.5986047907571028319,
    }

    def test_one_pass_matches_mpmath(self):
        d = OEGammaDist(5.0, 2.0, 10.0)
        got = {f"m{m}": d.moment_quadrature(m) for m in (1, 2, 3, 4)}
        got["skewness"] = d.general_coefficient(3)
        got["kurtosis"] = d.general_coefficient(4)
        for key, want in self.ONE_PASS_PINS.items():
            assert got[key] == pytest.approx(want, rel=1e-9), key

    def test_inverse_work_per_payload(self, monkeypatch):
        # a deterministic work counter: the node maps' gamma inverses
        # for one moments payload (the one-pass memo inverts 2,880)
        from oddsgamma import family

        points = []
        for attr in ("_inv_reg_upper_gamma_vec", "_inv_reg_lower_gamma_vec"):
            inverse = getattr(family, attr)

            def counted(a, p, inverse=inverse):
                points.append(np.size(p))
                return inverse(a, p)

            monkeypatch.setattr(family, attr, counted)
        d = OEGammaDist(2.0, 1.0, 3.0)
        [d.moment_quadrature(m) for m in (1, 2, 3, 4)]
        d.general_coefficient(3)
        d.general_coefficient(4)
        d.renyi_entropy(2.0)
        assert 0 < sum(points) <= 3200


class TestMomentSeries:
    def test_honesty_small_matrix(self):
        ctrl = SeriesControl(k_max=60, j_max=2000, tail_tol=1e-6)
        for prm in [(0.6, 0.05, 1.0), (2.0, 1.0, 1.0)]:
            d = dist(*prm)
            for m in (1, 2):
                assert_honest(d.moment_series(m, ctrl), d.moment_quadrature(m))

    def test_order_zero_series_is_formally_divergent(self):
        # every shell fails term-by-term integrability at order zero, so
        # the evaluator must refuse to present a partial sum as converged
        r = dist(2.0, 1.0, 1.0).moment_series(0)
        assert not r.converged
        assert r.diagnostic

    def test_control_validation(self):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            SeriesControl(k_max=0, j_max=10, tail_tol=1e-10)
        with pytest.raises(ValueError):
            SeriesControl(k_max=10, j_max=10, tail_tol=-1.0)

    def test_default_control_exists(self):
        assert DEFAULT_CONTROL.k_max >= 1
        assert DEFAULT_CONTROL.j_max >= 1


class TestMgfCf:
    def test_mgf_at_zero(self):
        assert dist(0.131, 0.179, 0.539).mgf(0.0) == 1.0

    def test_cf_at_zero(self):
        assert dist(0.131, 0.179, 0.539).cf(0.0) == (1.0, 0.0)

    def test_mgf_against_independent_quadrature(self):
        # the weighted integrand's tail decays like exp((t - alpha*lam)x),
        # fatter than the density's own tail, so the oracle must run to
        # infinity rather than truncate at a density quantile; the
        # exponents are combined to keep huge probe points finite
        d = dist(1.0, 1.0, 1.0)
        for t in (-0.5, 0.25, 0.5):
            f = lambda x: float(np.exp(t * x + d.log_pdf(x)))
            ref, _ = scipy.integrate.quad(f, 0.0, np.inf, limit=400)
            assert d.mgf(t) == pytest.approx(ref, rel=1e-7), t
        assert d.mgf(0.5) == pytest.approx(2.1275595470, rel=1e-8)

    def test_mgf_domain_threshold(self):
        d = dist(2.0, 1.0, 1.0)
        with pytest.raises(DivergenceError, match="alpha \\* tail_rate = 2"):
            d.mgf(2.0)
        with pytest.raises(DivergenceError):
            d.mgf(2.5)

    def test_cf_value(self):
        re, im = dist(1.0, 1.0, 1.0).cf(1.0)
        assert re == pytest.approx(0.4061208563, rel=1e-8)
        assert im == pytest.approx(0.6220004401, rel=1e-8)

    def test_cf_conjugate_symmetry(self):
        d = dist(0.6, 0.05, 1.0)
        re_p, im_p = d.cf(0.7)
        re_m, im_m = d.cf(-0.7)
        assert re_p == pytest.approx(re_m, rel=1e-10)
        assert im_p == pytest.approx(-im_m, rel=1e-10)

    def test_series_forms_are_honest(self):
        d = dist(2.0, 1.0, 1.0)
        ctrl = SeriesControl(k_max=40, j_max=2000, tail_tol=1e-8)
        assert_honest(d.mgf_series(0.5, ctrl), d.mgf(0.5))
        rc = d.cf_series(1.0, ctrl)
        if rc.converged:
            re, im = d.cf(1.0)
            assert abs(rc.value - complex(re, im)) <= 1e-4
        else:
            assert rc.diagnostic

    def test_mgf_series_respects_domain(self):
        with pytest.raises(DivergenceError):
            dist(2.0, 1.0, 1.0).mgf_series(2.0)


class TestRenyi:
    def test_quadratic_order_closed_value(self):
        # at (1, 1, unit rate) the squared density integrates to 1/2
        assert dist(1.0, 1.0, 1.0).renyi_entropy(2.0) == pytest.approx(
            math.log(2.0), rel=1e-9
        )

    def test_against_independent_quadrature(self):
        # eta < 1 fattens the integrand's tail, so the oracle runs to
        # infinity; split at an interior point because the one-shot
        # infinite-range transform mishandles the flat-zero head
        d = dist(0.6, 0.05, 1.0)
        eta = 0.5
        f = lambda x: float(np.exp(eta * d.log_pdf(x)))
        ref = (
            scipy.integrate.quad(f, 0.0, 50.0, limit=400)[0]
            + scipy.integrate.quad(f, 50.0, np.inf, limit=400)[0]
        )
        assert d.renyi_entropy(eta) == pytest.approx(
            math.log(ref) / (1.0 - eta), rel=1e-7
        )

    def test_rescaling_shift(self):
        # halving the base rate doubles the variable: entropy grows by ln 2
        for eta in (0.5, 2.0):
            e1 = dist(0.7, 1.3, 1.1).renyi_entropy(eta)
            e2 = dist(0.7, 1.3, 0.55).renyi_entropy(eta)
            assert e2 - e1 == pytest.approx(math.log(2.0), abs=1e-9), eta

    def test_domain(self):
        d = dist(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="eta"):
            d.renyi_entropy(1.0)
        with pytest.raises(ValueError):
            d.renyi_entropy(-0.5)

    def test_series_is_honest(self):
        d = dist(2.0, 1.0, 1.0)
        r = d.renyi_series(2.0, SeriesControl(k_max=40, j_max=2000, tail_tol=1e-8))
        if r.converged and not r.diagnostic:
            assert r.value == pytest.approx(d.renyi_entropy(2.0), abs=1e-3)
        else:
            assert r.diagnostic


def _loop_binomial(s, n):
    """C(s, j), j < n, by the scalar running product the series once used."""
    out, binom = [], 1.0
    for j in range(n):
        if j > 0:
            binom *= (s - (j - 1)) / j
        out.append(binom)
    return out


def _loop_truncate(terms, ctrl):
    """The scalar two-small-terms stop the inner series loops once used."""
    partial, small_run = 0.0, 0
    for j, term in enumerate(terms):
        partial += term
        if abs(term) <= ctrl.tail_tol * max(abs(partial), np.finfo(float).tiny):
            small_run += 1
            if small_run >= 2 and j >= 1:
                return partial, j + 1, True
        else:
            small_run = 0
    return partial, len(terms), False


def _loop_tau_inner(d, k, ctrl, m, eta, r_of_j, log_pref_extra=0.0, eta_pow=None):
    """The scalar j loop _tau_inner once ran: one tau quadrature per term."""
    s_binom = eta_pow * (d.alpha - 1.0) + k if eta_pow is not None else d.alpha + k - 1.0
    pref = (-1.0 if k % 2 else 1.0) * float(np.exp(log_pref_extra))
    binom = _loop_binomial(s_binom, ctrl.j_max)
    partial, small_run = 0.0, 0
    for j in range(ctrl.j_max):
        r = r_of_j(j)
        try:
            tau_val = d.tau(m, eta, r)
        except DivergenceError:
            return (
                0.0, j + 1, False,
                f"term (k={k}, j={j}) needs tau(m={m}, eta={eta:.6g}, "
                f"r={r:.6g}), which is not integrable; the printed "
                "expansion is formal at these parameters",
            )
        term = pref * ((-1.0) ** j) * binom[j] * tau_val
        partial += term
        if abs(term) <= ctrl.tail_tol * max(abs(partial), np.finfo(float).tiny):
            small_run += 1
            if small_run >= 2 and j >= 1:
                return partial, j + 1, True, None
        else:
            small_run = 0
    return partial, ctrl.j_max, False, None


class TestBatchedTauInner:
    """_tau_inner asks tau for blocks of j at once; it must keep the
    scalar loop's stop, term count and first-non-integrable-j note."""

    @pytest.mark.parametrize("prm, k, m, eta, r_of_j, ctrl, eta_pow", [
        # the binomial C(1, j) ends at j = 1, so the sum stops at j = 3,
        # before tau(0, 0, r) stops being integrable at j = 5
        ((2.0, 1.0, 1.0), 0, 0, 0.0, lambda j: 3.5 - j, DEFAULT_CONTROL, None),
        # not integrable at j = 3, with no stop before it
        ((0.6, 0.05, 1.0), 1, 0, 0.0, lambda j: 1.5 - j, DEFAULT_CONTROL, None),
        # j_max = 2000: stops at j = 310, in the second block of j
        ((0.6, 0.05, 1.3), 0, 0, 1.0, lambda j: j - 0.5,
         SeriesControl(j_max=2000, tail_tol=1e-7), None),
        # j_max = 2000: not integrable at j = 302, in the second block
        ((0.6, 0.05, 1.3), 2, 0, 1.0, lambda j: 300.5 - j, SeriesControl(j_max=2000), None),
        # a moment shell at the default control, run to j_max
        ((0.6, 0.05, 1.0), 0, 1, 0.0, lambda j: j - 1.6, DEFAULT_CONTROL, None),
        # an entropy shell's binomial C(eta (alpha - 1) + k, j)
        ((0.6, 0.05, 1.3), 1, 0, 1.0, lambda j: j - 0.5, DEFAULT_CONTROL, 2.0),
    ])
    def test_matches_scalar_loop(self, prm, k, m, eta, r_of_j, ctrl, eta_pow):
        d = dist(*prm)
        log_pref = 0.3 * k - 0.7
        got = d._tau_inner(k, ctrl, m, eta, r_of_j, log_pref, eta_pow)
        want = _loop_tau_inner(d, k, ctrl, m, eta, r_of_j, log_pref, eta_pow)
        assert got[1:] == want[1:]
        # each tau carries the quadrature's absolute tolerance, and the
        # batched run refines its shared panels further than a scalar one
        assert got[0] == pytest.approx(want[0], rel=1e-10, abs=0.0)


class TestInnerTruncation:
    """The vectorised inner-sum helpers give the same floats and stops as
    the scalar loops they replace."""

    @pytest.mark.parametrize("s", [-1.6, -0.869, 0.4, 3.0, 7.25])
    def test_running_binomial_matches_loop(self, s):
        assert _running_binomial(s, 300).tolist() == _loop_binomial(s, 300)

    @pytest.mark.parametrize("ctrl", [
        DEFAULT_CONTROL, SeriesControl(tail_tol=1e-6), SeriesControl(tail_tol=1e-3),
    ])
    def test_truncate_inner_matches_loop(self, ctrl):
        rng = np.random.default_rng(5)
        j = np.arange(400.0)
        cases = [
            (-1.0) ** j * _running_binomial(-0.4, 400) / (j + 0.6) * 0.9**j,
            (-1.0) ** j * _running_binomial(2.5, 400) / (j - 3.5),
            rng.standard_normal(400) * np.exp(-0.2 * j),
            rng.standard_normal(400),
            np.array([3.0]),
        ]
        for terms in cases:
            assert _truncate_inner(terms, ctrl) == _loop_truncate(terms.tolist(), ctrl)


class TestCdfSeries:
    CONVERGED_CELLS = [
        ((0.5, 0.05, 1.0), (0.5, 1.0, 2.0)),
        ((1.5, 0.2, 0.5), (0.5, 1.0, 2.0, 5.0)),
        ((2.3, 0.8, 1.0), (0.5, 1.0, 2.0)),
    ]

    def test_sums_to_cdf_minus_one_where_converged(self):
        # term-by-term primitives drop the integration constant, so the
        # expansion's limit is cdf - 1
        ctrl = SeriesControl(k_max=80, j_max=4000, tail_tol=1e-12)
        for prm, xs in self.CONVERGED_CELLS:
            d = dist(*prm)
            for x in xs:
                r = d.cdf_series(x, ctrl)
                assert r.converged, (prm, x, r.diagnostic)
                assert r.value == pytest.approx(d.cdf(x) - 1.0, abs=1e-7), (prm, x)

    # (params, control, x, value, terms_used, converged): where the
    # vectorised inner sum stops, both when its tail test is met and when
    # it runs into j_max or k_max
    PINNED_CELLS = [
        ((0.6, 0.05, 1.0), DEFAULT_CONTROL, 1.0, -0.13258697131512304, (6, 39), True),
        ((0.6, 0.05, 1.0), SeriesControl(60, 2000, 1e-6), 4.0,
         -0.017008107382745344, (3, 313), True),
        ((2.5, 1.0, 1.0), DEFAULT_CONTROL, 4.0, -1.4119997218761616e-05, (6, 200), False),
        ((0.131, 0.179, 0.539), SeriesControl(5, 20, 1e-3), 0.3,
         -0.9687593202817056, (5, 7), False),
    ]

    @pytest.mark.parametrize("prm, ctrl, x, value, terms, converged", PINNED_CELLS)
    def test_pinned_truncation(self, prm, ctrl, x, value, terms, converged):
        r = dist(*prm).cdf_series(x, ctrl)
        assert r.value == pytest.approx(value, rel=1e-13)
        assert r.terms_used == terms
        assert r.converged is converged

    def test_refuses_integer_shape(self):
        with pytest.raises(ValueError, match="integer alpha"):
            dist(2.0, 1.0, 1.0).cdf_series(1.0)

    def test_requires_interior_point(self):
        with pytest.raises(ValueError, match="strictly inside"):
            dist(0.5, 1.0, 1.0).cdf_series(-1.0)
