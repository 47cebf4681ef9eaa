"""Generic survival-odds gamma family: closed-form anchors, quadrature
against independent integration, series honesty, and sampling law."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

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
    family,
    make_exponential,
    quadrature,
)
from oddsgamma.family import _TAU_BLOCK, _signed_binomial, _truncate_inner

from streams import numpy_sample

EULER_GAMMA = 0.5772156649015329
# 40-digit mpmath raw moments, entropies and mgf values with their
# ceilings: tests/make_moment_table.py
MOMENT_TABLE = json.loads((Path(__file__).parent / "data" / "moment_table.json").read_text())


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

    def test_zero_at_and_below_the_support(self):
        # log_pdf = -inf and sf = 1 there; no point raises
        d = dist(1.0, 1.0, 1.0)
        assert d.hazard(0.0) == 0.0
        assert np.array_equal(d.hazard(np.array([-np.inf, -3.0, 0.0])), np.zeros(3))

    def test_deep_tail_overflow_is_reported(self):
        # a normal sf keeps the hazard (-> lam = 1 in the tail); a
        # subnormal or zero sf reports nan for its own point only
        got = dist(1.0, 1.0, 1.0).hazard(np.array([700.0, 709.0, 720.0, 1.0]))
        assert got[0] == pytest.approx(1.0, rel=1e-13)
        assert np.isnan(got[1:3]).all()
        assert got[3] == dist(1.0, 1.0, 1.0).hazard(1.0)


class TestSurvival:
    def test_support_ends_and_nan(self):
        d = dist(0.131, 0.179, 0.539)
        assert d.sf(0.0) == 1.0 and d.sf(-2.0) == 1.0
        assert d.sf(math.inf) == 0.0
        assert math.isnan(d.sf(math.nan))
        got = d.sf(np.array([-1.0, 0.0, np.inf, np.nan]))
        assert got[:3].tolist() == [1.0, 1.0, 0.0] and np.isnan(got[3])

    def test_is_one_minus_cdf_in_the_head(self):
        # where cdf < 1/2 the subtraction 1 - cdf loses nothing
        rng = np.random.default_rng(2024)
        for _ in range(200):
            a, b, lam = np.exp(rng.uniform(math.log(0.05), math.log(5.0), size=3))
            d = dist(a, b, lam)
            x = rng.uniform(0.0, 20.0, 50) / lam
            c = d.cdf(x)
            head = c < 0.5
            assert np.all(np.abs(d.sf(x[head]) - (1.0 - c[head])) <= 1e-14), (a, b, lam)

    def test_model_m2_is_the_law_sf(self):
        from oddsgamma import get_model

        theta = (0.131, 0.179, 0.539)
        x = np.array([-1.0, 0.0, 0.3, 5.0, 27.0, 600.0, np.inf, np.nan])
        assert np.array_equal(
            get_model("m2").sf(x, theta), OEGammaDist(*theta).sf(x), equal_nan=True)


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

    @staticmethod
    def laws(prm):
        """The law on the exponential base, OE's own, and on the logistic
        and Lomax bases, whose log_isf is derived: there a scalar level
        reaches the base as a 0-d ln sf."""
        alpha, beta, _ = prm
        return (dist(*prm), OEGammaDist(*prm), GammaRatioDist(alpha, beta, logistic_base()),
                GammaRatioDist(alpha, beta, lomax_base()))

    @pytest.mark.parametrize("prm", [(0.131, 0.179, 0.539), (0.01, 1.0, 1.0), (3.2, 2.5, 0.8)])
    def test_arrays_match_scalars_bit_for_bit(self, prm):
        for d in self.laws(prm):
            for name in ("quantile", "quantile_sf"):
                f = getattr(d, name)
                levels = self.LEVELS[::-1] if name == "quantile" else self.LEVELS
                got = f(levels)
                assert got.shape == levels.shape
                want = np.array([f(float(q)) for q in levels])
                assert np.array_equal(got, want), (prm, d.base.name, name)
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

    @pytest.mark.parametrize("prm", [(0.131, 0.179, 0.539), (0.01, 1.0, 1.0), (3.2, 2.5, 0.8)])
    def test_scalar_levels_match_the_array_path_into_the_deep_tail(self, prm):
        # below about s = 1e-40 at the flood fit the odds underflow and x
        # comes from the base's log_isf; scalars take their own branch
        levels = np.logspace(-300.0, math.log10(0.999), 121)
        for d in self.laws(prm):
            for name in ("quantile_sf", "quantile"):
                f, q = getattr(d, name), levels
                got = np.array([f(float(v)) for v in q])
                assert np.array_equal(got, f(q)), (prm, d.base.name, name)
                assert all(type(f(float(v))) is float for v in q[:3])

    def test_zero_dim_input_gives_a_float(self):
        d = dist(0.5, 1.0, 1.0)
        for f in (d.quantile, d.quantile_sf):
            got = f(np.array(0.3))
            assert type(got) is float
            assert got == f(0.3)

    def test_scalar_kinds_give_one_value_and_one_message(self):
        # a Python float and a numpy float64 skip np.ndim; an int and a
        # 0-d array take it, to the same value and the same message
        d = dist(0.5, 1.0, 1.0)
        for f, name, var in ((d.quantile, "quantile", "p"), (d.quantile_sf, "quantile_sf", "s")):
            want = f(0.25)
            assert [f(np.float64(0.25)), f(np.array(0.25))] == [want, want]
            message = rf"^{name} requires 0 < {var} < 1, got 1\.0$"
            for bad in (1, 1.0, np.float64(1.0), np.array(1.0)):
                with pytest.raises(ValueError, match=message):
                    f(bad)


class TestSampling:
    @pytest.mark.parametrize("alpha", [0.05, 0.131, 0.96, 1.0, 1.5, 6.0])
    @pytest.mark.parametrize("law", ["oe", "family", "logistic"])
    def test_sample_is_numpys_gamma_stream(self, alpha, law):
        # bit for bit on every CPU: the same calls on the same generator,
        # then ln T - ln beta through the base's log_isf, which the
        # sampler maps a block at a time and the reference in one call;
        # the sizes end a call just short of, at and just past a block
        # edge, and one past two blocks
        d = OEGammaDist(alpha, 0.179, 0.539)
        if law == "family":
            d = d.as_family()
        elif law == "logistic":
            d = GammaRatioDist(alpha, 0.179, logistic_base())
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        block = family._MAP_BLOCK
        for n in (100_000, block - 1, block, block + 1, 2 * block + 1):
            assert np.array_equal(d.sample(n, rng), numpy_sample(d, ref_rng, n)), n
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_size_must_be_an_integer(self, n):
        # refused, not coerced: int(n) would draw 2 for 2.5 and 1 for True
        with pytest.raises(ValueError, match="sample size must be an integer >= 0"):
            dist(1.0, 1.0, 1.0).sample(n, np.random.default_rng(0))

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
        # covers both the boosted sub-1 shape path and the direct one
        d = dist(*prm)
        draws = d.sample(20_000, np.random.default_rng(42))
        assert np.all(draws > 0.0)
        stat = scipy.stats.kstest(draws, lambda x: d.cdf(x))
        assert stat.pvalue > 0.01, prm

    @pytest.mark.parametrize("alpha", [0.131, 2.0])
    def test_ks_on_a_base_without_log_isf(self, alpha):
        # draws go through the base's derived log_isf: quantile where
        # the survival level is above 1/2, isf at or below it
        d = GammaRatioDist(alpha, 1.0, logistic_base())
        draws = d.sample(200_000, np.random.default_rng(3))
        assert np.all(np.isfinite(draws))
        stat = scipy.stats.kstest(draws, lambda x: d.cdf(x))
        assert stat.pvalue > 0.01, alpha


def logistic_base():
    """Standard logistic base, G1 = expit, whose support is the real line."""
    return BaseDistribution(
        name="logistic",
        cdf=special.expit,
        log_pdf=lambda x: -np.logaddexp(0.0, x) - np.logaddexp(0.0, -x),
        quantile=special.logit,
        support=(-math.inf, math.inf),
        params=(),
        sf=lambda x: special.expit(-np.asarray(x, dtype=float)),
        isf=lambda s: -special.logit(s),
    )


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

    @pytest.mark.parametrize("eta, r, bad", [
        (math.nan, -0.5, "eta = nan"), (math.inf, -0.5, "eta = inf"),
        (0.0, math.nan, "r = nan"), (0.0, [-0.5, math.nan], "r = nan"),
        (0.0, [0.5, -math.inf, math.inf], "r = -inf"),
    ])
    def test_non_finite_arguments_raise(self, eta, r, bad):
        # not a divergence verdict, nor a 0 or nan column
        with pytest.raises(ValueError, match=f"^tau requires a finite .*, got {bad}$"):
            dist(1.0, 1.0, 1.0).tau(1, eta, r, errors_out=[])

    def test_empty_r_gives_an_empty_array(self):
        errors = []
        got = dist(0.6, 0.05, 1.0).tau(1, 0.0, np.array([]), errors_out=errors)
        assert got.shape == (0,) and errors == []

    def test_two_dimensional_r_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"scalar or 1-D r, got shape \(2, 3\)"):
            dist(0.6, 0.05, 1.0).tau(1, 0.0, np.zeros((2, 3)))

    def test_support_below_zero_keeps_the_sign(self):
        # x = logit(u), so tau(m, 0, r) is the integral of logit(u)^m u^r
        # over (0, 1)
        d = GammaRatioDist(1.0, 1.0, logistic_base())
        assert d.tau(1, 0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert d.tau(1, 0, 1.0) == pytest.approx(0.5, rel=1e-13)
        assert d.tau(2, 0, 0.0) == pytest.approx(math.pi**2 / 3.0, rel=1e-13)
        assert d.tau(1, 1, 0.0) == pytest.approx(0.0, abs=1e-15)


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
        if (m, eta) == (0, 0.0):
            return 1.0 / (r + 1.0), -1.0
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

    @pytest.mark.parametrize("m, eta, r", [(1, 0.0, -1.9), (1, 0.0, [-1.9]),
                                           (0, 1.0, -0.9), (0, 0.0, -0.9)])
    def test_near_the_integrability_limit(self, m, eta, r):
        # the integrand grows like u^-0.9 at u -> 0
        got = dist(0.6, 1.0, self.LAM).tau(m, eta, r)
        want = self.closed(m, eta, np.asarray(r), self.LAM)[0]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_unresolved_is_not_divergent(self):
        # integrable (closed form 77.69), but u^-0.99 leaves more beyond
        # the outermost node than the tolerance allows
        d = dist(0.6, 1.0, self.LAM)
        assert self.closed(1, 0.0, -1.99, self.LAM)[0] == pytest.approx(77.69, abs=5e-3)
        with pytest.raises(NumericalError, match=r"tau\(m=1, eta=0, r=-1\.99\) could not be "
                           r"resolved: .*unsummed") as info:
            d.tau(1, 0, -1.99)
        assert not isinstance(info.value, DivergenceError)
        assert np.isnan(d.tau(1, 0, [-1.99])).all()

    def test_vector_verdicts_tell_divergent_from_unresolved(self):
        # r = -2 diverges, r = -1.99 is integrable but unresolved (above)
        errors = []
        got = dist(0.6, 1.0, self.LAM).tau(1, 0, [-2.0, -1.99, 0.4], errors_out=errors)
        assert np.isnan(got[:2]).all() and np.isfinite(got[2])
        assert isinstance(errors[0], DivergenceError)
        assert isinstance(errors[1], NumericalError)
        assert not isinstance(errors[1], DivergenceError)
        assert errors[2] is None

    def test_unresolved_series_term_is_not_called_divergent(self):
        # tau(1, 0, -1.97) of this law is integrable (closed form 34.3)
        # but its integrand grows like u^-0.97, too fast for the nodes
        res = GammaRatioDist(0.97, 1.0, make_exponential(1.0)).moment_series(1)
        assert not res.converged and res.terms_used == (0, 1)
        assert res.diagnostic.startswith(
            "term (k=0, j=0) needs tau(m=1, eta=0, r=-1.97), which could not be resolved (")
        assert res.diagnostic.endswith("unsummed, above 1e-13 of 34.3); the series stops there")
        assert "not integrable" not in res.diagnostic


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
    return BaseDistribution(
        name="lomax",
        cdf=lambda x: np.asarray(x, dtype=float) / (1.0 + np.asarray(x, dtype=float)),
        log_pdf=lambda x: -2.0 * np.log1p(np.asarray(x, dtype=float)),
        quantile=lambda u: np.asarray(u, dtype=float) / (1.0 - np.asarray(u, dtype=float)),
        support=(0.0, math.inf),
        params=(),
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

    @staticmethod
    def payload(d):
        [d.moment_quadrature(m) for m in (1, 2, 3, 4)]
        d.general_coefficient(3)
        d.general_coefficient(4)
        d.renyi_entropy(2.0)

    def test_payload_inverts_no_gamma(self, monkeypatch):
        # the expectations take their nodes on the gamma scale: neither
        # pass calls an inverse of the incomplete gamma
        from oddsgamma import family

        calls = []
        for attr in ("_inv_reg_upper_gamma_vec", "_inv_reg_lower_gamma_vec",
                     "inv_reg_upper_gamma", "inv_reg_lower_gamma"):
            monkeypatch.setattr(family, attr, lambda *args, attr=attr: calls.append(attr))
        self.payload(OEGammaDist(2.0, 1.0, 3.0))
        assert calls == []

    def test_payload_integrand_values(self, monkeypatch):
        # a deterministic work counter: the moment and Renyi passes each
        # settle at tanh-sinh level 1, on the 49 + 49 nodes of each of
        # levels 0 and 1, which the integrand takes in one call, so the
        # integrands see 392 values in two calls
        from oddsgamma import family

        sizes = []
        engine = family.tanh_sinh

        def counted(f, abscissae):
            def g(x):
                sizes.append(x.size)
                return f(x)

            return engine(g, abscissae)

        monkeypatch.setattr(family, "tanh_sinh", counted)
        self.payload(OEGammaDist(2.0, 1.0, 3.0))
        assert sizes == [196, 196]


def scaled_lomax_base(c):
    """The unit Lomax base of lomax_base() with x scaled by c."""
    return BaseDistribution(
        name="lomax",
        cdf=lambda x: np.asarray(x, dtype=float) / (c + np.asarray(x, dtype=float)),
        log_pdf=lambda x: math.log(c) - 2.0 * np.log(c + np.asarray(x, dtype=float)),
        quantile=lambda u: c * np.asarray(u, dtype=float) / (1.0 - np.asarray(u, dtype=float)),
        support=(0.0, math.inf),
        params=(c,),
        sf=lambda x: c / (c + np.asarray(x, dtype=float)),
        isf=lambda s: c * (1.0 / np.asarray(s, dtype=float) - 1.0),
    )


class TestTanhSinhExpectations:
    """The expectation rule is accurate relative to the size of the
    answer at every scale, and its verdicts do not depend on the scale.

    References are 30-digit mpmath integrals over v = ln T, with
    X = log1p(e^-v)/lam and T ~ Gamma(alpha, rate beta), split at
    ln(alpha/beta) - k/alpha for k = 160, 80, 40, 20, 10, 5, 2, 0 and at
    ln(alpha/beta) + 1, 3, 9 (mpmath.quad); Renyi integrals are of
    f_T(T)^eta (lam T (1 + T))^(eta - 1) dT. The mgf is in closed form,
    E (1 + 1/T)^r = beta^alpha Gamma(alpha - r) U(alpha - r, alpha + 1,
    beta) / Gamma(alpha) with r = t/lam (mpmath.hyperu).
    """

    # OEGammaDist(0.131, 0.179, 1)
    UNIT = {
        1: 6.6008292490967613643,
        2: 99.183890992477032016,
        3: 2267.8340293879073345,
        4: 69235.37208587364405,
        "skewness": 2.1193506182022111135,
        "kurtosis": 9.5676957720422815815,
        "renyi2": 2.3343802239326965663,
        "renyi05": 3.3295157826908643446,
    }

    @pytest.mark.parametrize("lam", [10.0**k for k in range(-6, 7)])
    def test_scale_equivariance(self, lam):
        d = OEGammaDist(0.131, 0.179, lam)
        for m in (1, 2, 3, 4):
            got = lam**m * d.moment_quadrature(m)
            assert got == pytest.approx(self.UNIT[m], rel=1e-12, abs=0.0), m
        assert d.general_coefficient(3) == pytest.approx(
            self.UNIT["skewness"], rel=1e-12, abs=0.0)
        assert d.general_coefficient(4) == pytest.approx(
            self.UNIT["kurtosis"], rel=1e-12, abs=0.0)
        log_lam = math.log(lam)
        assert d.renyi_entropy(2.0) + log_lam == pytest.approx(self.UNIT["renyi2"], abs=1e-12)
        assert d.renyi_entropy(0.5) + log_lam == pytest.approx(self.UNIT["renyi05"], abs=1e-12)

    @pytest.mark.parametrize("c", [10.0**k for k in range(-12, 4)])
    def test_scaled_lomax_verdicts(self, c):
        # X = c/T with T ~ Gamma(1.5, 1): E X = 2c, and E X^2 = c^2 E T^-2
        # diverges, at every scale
        d = GammaRatioDist(1.5, 1.0, scaled_lomax_base(c))
        for _ in range(2):
            with pytest.raises(DivergenceError, match="moment of order 2 does not exist: "):
                d.moment_quadrature(2)
        assert d.moment_quadrature(1) / c == pytest.approx(2.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha, kept", [(5e-4, "no node"), (1e-3, "only one node")])
    def test_nodes_off_the_support_at_the_median(self, alpha, kept):
        # the derived log_isf reads isf(0), the top of the support, once
        # ln(T/beta) < -745: at alpha = 5e-4 already at the gamma median,
        # T(u = 1/2), which both sides share, so neither side keeps a
        # node; at 1e-3 the head keeps that node alone. Either way the
        # mean raises and names the side
        d = GammaRatioDist(alpha, 1.0, dataclasses.replace(make_exponential(1.0), log_isf=None))
        with pytest.raises(NumericalError, match=f"order 1: {kept} of the u side lies inside"):
            d.moment_quadrature(1)

    @pytest.mark.parametrize("t, re, im", [
        (1.0, 0.057040439556620784069, 0.14016601256619804372),
        (5.0, -0.021505898137954687863, 0.033988280912829271986),
    ])
    def test_cf_at_the_flood_fit(self, t, re, im):
        # E (1 + 1/T)^(i t/lam) by the closed form with complex r = i t/lam;
        # the integrand turns about t/(alpha lam) times per unit of ln(1/s)
        # in the tail, which takes the rule to deeper levels
        got = OEGammaDist(0.131, 0.179, 0.539).cf(t)
        assert got == pytest.approx((re, im), rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("theta, edge_ref, inner_ref", [
        ((2.0, 1.0, 1.0), 502.41743289033724591, 6.9673543515196177),
        ((0.131, 0.179, 1.0), 849.72514014391306, None),
    ])
    def test_mgf_near_the_domain_edge(self, theta, edge_ref, inner_ref):
        # at t = (1 - 1e-3) alpha lam the integrand behaves like
        # (1 - u)^-0.999: integrable, but a part too large to drop lies
        # beyond any double-precision node, so the rule either resolves it
        # or says so; it never reports a truncated sum or a divergence
        d = OEGammaDist(*theta)
        rate = theta[0] * theta[2]
        try:
            value = d.mgf((1.0 - 1e-3) * rate)
        except DivergenceError:
            pytest.fail("an integrable mgf was called divergent")
        except NumericalError as exc:
            assert "unsummed" in str(exc)
        else:
            assert value == pytest.approx(edge_ref, rel=1e-9, abs=0.0)
        if inner_ref is not None:
            assert d.mgf(0.9 * rate) == pytest.approx(inner_ref, rel=1e-12, abs=0.0)


class TestMomentTable:
    """Raw moments 1-4, renyi_entropy(2) and mgf(alpha lam / 2) of
    OEGammaDist against the 40-digit mpmath table, alpha from 1e-3 to
    200, each within the table's stored ceiling: relative, the entropy's
    relative to max(1, |entropy|)."""

    CEILINGS = MOMENT_TABLE["ceilings"]
    ALPHAS = sorted({row[0] for row in MOMENT_TABLE["cells"]})

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_within_ceilings(self, alpha):
        misses = []
        for row in MOMENT_TABLE["cells"]:
            if row[0] != alpha:
                continue
            a, b, lam = row[:3]
            m1, m2, m3, m4, renyi2, mgf = (float(v) for v in row[3:])
            d = OEGammaDist(a, b, lam)
            checks = [("moments", d.moment_quadrature(m), want, abs(want))
                      for m, want in enumerate((m1, m2, m3, m4), 1)]
            checks.append(("renyi2", d.renyi_entropy(2.0), renyi2, max(1.0, abs(renyi2))))
            checks.append(("mgf", d.mgf(a * lam / 2.0), mgf, abs(mgf)))
            for name, got, want, scale in checks:
                if not abs(got - want) <= self.CEILINGS[name] * scale:
                    misses.append((name, a, b, lam, got, want))
        assert misses == []


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
        # term counts are integers; a tail_tol of 1 or more calls a shell
        # as large as the sum a converged tail
        for bad in (math.nan, 200.5, 60.0, True, "60"):
            with pytest.raises(ValueError, match="k_max must be at least 1 and an integer"):
                SeriesControl(k_max=bad)
            with pytest.raises(ValueError, match="j_max must be at least 1 and an integer"):
                SeriesControl(j_max=bad)
        for bad in (0.0, 1.0, 2.0, math.inf, math.nan, "0.1", None, 1j):
            with pytest.raises(ValueError, match=r"tail_tol must lie in \(0, 1\)"):
                SeriesControl(tail_tol=bad)
        assert SeriesControl(k_max=np.int64(5), j_max=1, tail_tol=0.5).k_max == 5

    def test_default_control_exists(self):
        assert DEFAULT_CONTROL.k_max >= 1
        assert DEFAULT_CONTROL.j_max >= 1


class TestMgfCf:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_is_a_value_error(self, t):
        # not a divergence: the integrand is never formed
        oe = OEGammaDist(0.6, 0.05, 1.0)
        for d in (oe, oe.as_family()):
            for name in ("mgf", "cf", "mgf_series", "cf_series"):
                with pytest.raises(ValueError, match=f"{name} requires a finite t"):
                    getattr(d, name)(t)

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


class TestExpSeriesVerdict:
    """The mgf/cf series sum t^m/m! times the order-m moment expansion,
    and the order-0 one's (k = 0, j = 0) term needs tau(0, 0,
    -(alpha + 1)), the integral of u^-(alpha+1) over (0, 1), which
    diverges for every base and alpha > 0. So every evaluation, on every
    law, OEGammaDist included, is that component's verdict, reached with
    one tau call."""

    @pytest.fixture
    def tau_calls(self, monkeypatch):
        calls = []
        tau = GammaRatioDist.tau

        def spy(self, m, eta, r, errors_out=None):
            calls.append((m, eta, np.atleast_1d(r).tolist()))
            return tau(self, m, eta, r, errors_out=errors_out)

        monkeypatch.setattr(GammaRatioDist, "tau", spy)
        return calls

    @pytest.mark.parametrize(
        "make_dist",
        [lambda a: GammaRatioDist(a, 0.7, make_exponential(1.0)),
         lambda a: GammaRatioDist(a, 0.7, lomax_base()),
         lambda a: GammaRatioDist(a, 0.7, scaled_lomax_base(3.0)),
         lambda a: GammaRatioDist(a, 0.7, logistic_base()),
         lambda a: OEGammaDist(a, 0.7, 1.0)],
        ids=["exponential", "lomax", "lomax3", "logistic", "oe-exponential"],
    )
    @pytest.mark.parametrize("alpha", [1e-3, 0.131, 2.0, 30.0])
    def test_every_evaluation_is_the_order_zero_verdict(self, tau_calls, make_dist, alpha):
        d = make_dist(alpha)
        base = d.base
        # the tau expansion's own order-0 verdict; OEGammaDist's
        # moment_series is an analytic expansion that does not call tau
        part = GammaRatioDist.moment_series(d, 0)
        note = f"order-0 component failed: {part.diagnostic}"
        assert part.diagnostic
        for method, t in ((d.mgf_series, -0.3), (d.mgf_series, 0.01), (d.cf_series, 2.0)):
            tau_calls.clear()
            if method == d.mgf_series and t >= alpha * (base.tail_rate or math.inf):
                with pytest.raises(DivergenceError, match="mgf undefined"):
                    method(t)
                assert tau_calls == []
                continue
            r = method(t)
            assert math.isnan(r.value)
            assert (r.terms_used, r.converged, r.diagnostic) == (part.terms_used, False, note)
            assert tau_calls == [(0, 0.0, [-(alpha + 1.0)])]

    @pytest.mark.parametrize("ctrl", [
        None, SeriesControl(tail_tol=0.1), SeriesControl(tail_tol=0.5),
        SeriesControl(tail_tol=0.9), SeriesControl(60, 200, 0.1),
    ])
    @pytest.mark.parametrize("prm", [(0.6, 0.05, 1.0), (0.131, 0.179, 0.539),
                                     (2.5, 1.0, 1.0), (5.0, 2.0, 1.0)])
    def test_oe_is_its_family_at_every_tail(self, tau_calls, prm, ctrl):
        # OEGammaDist's own expansions, whose inner terms fall only like
        # j^(k+alpha-1), claimed convergence under a loose tail_tol: at
        # the flood fit under SeriesControl(60, 200, 0.1), mgf_series(
        # 0.00706) gave 1.0338, where the mgf is 1.0959
        d = OEGammaDist(*prm)
        for name, t in (("mgf_series", 0.1 * d.alpha * d.lam), ("cf_series", 0.7)):
            tau_calls.clear()
            r = getattr(d, name)(t, ctrl)
            assert tau_calls == [(0, 0.0, [-(d.alpha + 1.0)])]
            ref = getattr(d.as_family(), name)(t, ctrl)
            assert math.isnan(r.value) and math.isnan(ref.value)
            assert r.terms_used == ref.terms_used == (0, 1)
            assert r.converged is ref.converged is False
            assert r.diagnostic == ref.diagnostic

    def test_pinned_verdict(self):
        r = dist(2.0, 1.0, 1.0).cf_series(1.0)
        assert math.isnan(r.value)
        assert r.terms_used == (0, 1)
        assert not r.converged
        assert r.diagnostic == (
            "order-0 component failed: term (k=0, j=0) needs tau(m=0, eta=0, r=-3), "
            "which is not integrable; the printed expansion is formal at these parameters"
        )

    def test_bad_arguments_raise(self):
        d = dist(2.0, 1.0, 1.0)
        for method in (d.mgf_series, d.cf_series):
            with pytest.raises(ValueError):
                method("half")
            with pytest.raises(TypeError):
                method(1j)


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

    @pytest.mark.parametrize("alpha, eta", [(0.5, 0.6), (1.0, 0.4), (2.0, 0.2)])
    def test_divergent_order_is_named(self, alpha, eta):
        # on the Lomax base h ~ x^-(1 + alpha), so the integral of h^eta
        # diverges where eta (1 + alpha) <= 1
        d = GammaRatioDist(alpha, 1.0, lomax_base())
        with pytest.raises(DivergenceError, match=(
                rf"renyi entropy undefined for eta={eta:.6g}: the integral of h\^eta diverges")):
            d.renyi_entropy(eta)

    def test_domain(self):
        d = dist(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="eta"):
            d.renyi_entropy(1.0)
        with pytest.raises(ValueError):
            d.renyi_entropy(-0.5)

    @pytest.mark.parametrize("eta", [0.0, -1.0, 1.0, math.nan])
    def test_one_order_rule(self, eta):
        # the quadrature entropy and both series reject an order by one
        # rule, naming the entry point
        d = OEGammaDist(1.0, 1.0, 1.0)
        messages = {}
        for who, call in [
            ("renyi_entropy", d.renyi_entropy),
            ("renyi_series", d.renyi_series),
            ("renyi_series", d.as_family().renyi_series),
        ]:
            with pytest.raises(ValueError) as exc:
                call(eta)
            messages.setdefault(who, set()).add(str(exc.value))
        assert messages == {
            who: {f"{who} requires eta > 0, eta != 1, got {eta}"}
            for who in ("renyi_entropy", "renyi_series")
        }

    def test_infinite_order_is_rejected(self):
        # not a divergence verdict from the quadrature or the series
        d = OEGammaDist(2.0, 1.0, 3.0)
        for who, call in [
            ("renyi_entropy", d.renyi_entropy),
            ("renyi_entropy", d.as_family().renyi_entropy),
            ("renyi_series", d.renyi_series),
            ("renyi_series", d.as_family().renyi_series),
        ]:
            with pytest.raises(ValueError) as exc:
                call(math.inf)
            assert str(exc.value) == f"{who} requires a finite eta, got eta = inf"

    # 40-digit mpmath: log(E h^(eta - 1))/(1 - eta) at the float eta,
    # the expectation an integral over s = ln T with T = beta w(X) ~
    # Gamma(alpha, 1) and h(X) = f_T(T) lam T (1 + T/beta)
    NEAR_ONE = {
        (0.131, 0.179, 0.539): {
            1 - 1e-9: 3.4616583672134861679, 1 + 1e-9: 3.4616583658025016248,
            1 - 1e-6: 3.4616590720005718961, 1 + 1e-6: 3.4616576610160672527,
        },
        (2.0, 1.0, 3.0): {
            1 - 1e-9: -0.94418095839208921208, 1 + 1e-9: -0.94418095933799878007,
            1 - 1e-6: -0.94418048590991320388, 1 + 1e-6: -0.94418143181945540921,
        },
    }

    # the exponential base's order-2 entropy in closed form, from
    # E h(X) = lam * integral of T (1 + T/beta) f_Gamma(T)^2 dT:
    # 2 ln Gamma(alpha) - ln Gamma(2 alpha) + alpha ln 4
    # - log1p(alpha/beta) - ln lam, by 40-digit mpmath, with ceilings on
    # the error relative to max(1, |H|) at today's errors; (2, 1, 3) is
    # exact with numpy's AVX-512 kernels and one ulp off without them.
    # At alpha = 2215.897948974487 the gamma-scale head weight dips
    # below the normal range and recovers, and the nan node this leaves
    # at level 3 moves the head's cut inward for levels 3 on; the sums
    # of levels 0-2 stand
    RENYI2 = {
        (1e-3, 1.0, 1.0): (7.601287611036383736, 1.2e-15),
        (0.131, 0.179, 0.539): (2.9524199320058363999, 2.5e-16),
        (2.0, 1.0, 3.0): (-1.2163953243244931459, 2.5e-16),
        (30.0, 1.0, 1.0): (-3.8649072980019001632, 2e-15),
        (300.0, 0.179, 0.539): (-8.3926711758260184766, 2.2e-14),
        (2215.897948974487, 1.0, 1.0): (-10.290002140847947528, 2e-13),
        (1e4, 1e3, 1.0): (-5.7375408353018217239, 1.5e-12),
    }

    @pytest.mark.parametrize("prm", list(RENYI2))
    def test_order_two_closed_form(self, prm):
        want, ceiling = self.RENYI2[prm]
        got = OEGammaDist(*prm).renyi_entropy(2.0)
        assert abs(got - want) <= ceiling * max(1.0, abs(want)), (got, want)

    @pytest.mark.usefixtures("avx512_bits")
    def test_order_two_bits_where_the_head_weight_underflows(self):
        # the gamma-scale head weight dips below the normal range and
        # recovers at this alpha, so one interior head node is nan and
        # moves the head's cut inward at level 3; without AVX-512 the
        # last hex digits read 68ff
        got = OEGammaDist(2215.897948974487, 1.0, 1.0).renyi_entropy(2.0)
        assert got.hex() == "-0x1.4947b291d68f8p+3"

    @pytest.mark.parametrize("prm", list(NEAR_ONE))
    def test_near_order_one(self, prm):
        # log(E h^(eta-1))/(1 - eta) cancels as eta -> 1 unless the
        # integrand is expm1 of (eta - 1) ln h
        d = OEGammaDist(*prm)
        for eta, want in self.NEAR_ONE[prm].items():
            assert d.renyi_entropy(eta) == pytest.approx(want, rel=1e-12, abs=0.0), eta

    def test_series_is_honest(self):
        d = dist(2.0, 1.0, 1.0)
        # formal at every parameter on this base: column j = 0 of shell 0
        # needs tau(0, eta - 1, -eta(alpha + 1)), which is not integrable
        r = d.renyi_series(2.0, SeriesControl(k_max=40, j_max=2000, tail_tol=1e-8))
        assert math.isnan(r.value) and not r.converged
        assert "not integrable" in r.diagnostic


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


# three points of the benchmark's series design (seed 101, ops 0, 1, 4)
# and the r of each series' aborting term, pinned when tau ran on an
# adaptive Gauss-Legendre engine with a Cauchy window verdict, before
# any j = 0 column was ruled on ahead of the sum; the tanh-sinh
# verdicts reproduce them
SERIES_DESIGN_PINS = [
    ((0.1424794840723003, 0.14194181322263508, 1.1988089867236236),
     [-2.14248, -3.14248, -2.28496]),
    ((0.45542855490186324, 0.6520044250425144, 0.6901259619132698),
     [-2.45543, -3.45543, -2.91086]),
    ((0.8162849940598352, 0.3416106640508418, 0.9617457502925538),
     [-2.81628, -3.81628, -3.63257]),
]


def _series_op(d):
    return [d.moment_series(1), d.moment_series(2), d.renyi_series(2.0)]


class TestSeriesDesignPins:
    """moment_series(1), moment_series(2) and renyi_series(2) at design
    points of the benchmark's series workload: every one aborts at the
    j = 0 term of one shell, k* = max(0, ceil(m - alpha)) for the
    moments, and sums no shell."""

    @pytest.mark.parametrize("prm, r0", SERIES_DESIGN_PINS)
    def test_pinned_results(self, prm, r0):
        results = _series_op(dist(*prm))
        terms = [(1, 1), (2, 1), (0, 1)]
        tau_args = [(1, 1, 0), (2, 2, 0), (0, 0, 1)]  # (k, m, eta) of the aborting shell
        for res, used, r, (k, m, eta) in zip(results, terms, r0, tau_args):
            assert math.isnan(res.value)
            assert res.terms_used == used
            assert res.converged is False
            assert res.diagnostic == (
                f"term (k={k}, j=0) needs tau(m={m}, eta={eta}, r={r}), which is not "
                "integrable; the printed expansion is formal at these parameters"
            )

    @pytest.mark.parametrize("prm, r0", SERIES_DESIGN_PINS)
    def test_short_controls(self, prm, r0):
        # the verdict is the law's, not the truncation's: a k_max at or
        # below the first formal shell k* sums no shell either, and the
        # result is shell k*'s note
        d = dist(*prm)
        for ctrl in (SeriesControl(k_max=1), SeriesControl(k_max=2, j_max=50)):
            for m, k, r in ((1, 1, r0[0]), (2, 2, r0[1])):
                res = d.moment_series(m, ctrl)
                assert math.isnan(res.value) and res.converged is False
                assert res.terms_used == (k, 1)
                assert res.diagnostic.startswith(
                    f"term (k={k}, j=0) needs tau(m={m}, eta=0, r={r}), which is not integrable")

    @pytest.mark.parametrize("prm", [prm for prm, _ in SERIES_DESIGN_PINS])
    def test_first_moment_integrates_no_block(self, monkeypatch, prm):
        # moment_series(1) asks tau for the column 0 of shells 0 and 1
        # in one call, and for nothing else: shell 1's ends it
        seen = []
        tau = GammaRatioDist.tau

        def spy(self, m, eta, r, errors_out=None):
            seen.append(np.size(r))
            return tau(self, m, eta, r, errors_out)

        monkeypatch.setattr(GammaRatioDist, "tau", spy)
        assert dist(*prm).moment_series(1).terms_used == (1, 1)
        assert seen == [2]


class TestSeriesWork:
    """Integrand values (nodes times columns) counted through the module
    global family.tanh_sinh, which every tau quadrature, the j = 0 rule
    included, calls: a deterministic count that shows a regression noisy
    timings hide."""

    @pytest.fixture
    def runs(self, monkeypatch):
        engine = family.tanh_sinh
        seen = []  # per tanh_sinh run, the value shape of each level

        def counted(f, abscissae):
            shapes = []
            seen.append(shapes)

            def g(x):
                y = f(x)
                shapes.append(y.shape)
                return y
            return engine(g, abscissae)

        monkeypatch.setattr(family, "tanh_sinh", counted)
        return seen

    def test_aborting_shell_evaluates_one_column_at_level_zero(self, runs):
        d = dist(*SERIES_DESIGN_PINS[0][0])
        # renyi_series(2) weighs x^0, so the rule's first call is shell
        # 0's column 0 alone, r = -2 (alpha + 1), which diverges at the
        # rule's first level: one integrand call, at the nodes of levels
        # 0 and 1, which tanh_sinh takes together
        res = d.renyi_series(2.0, SeriesControl(k_max=2))
        assert res.terms_used == (0, 1) and res.diagnostic.startswith("term (k=0, j=0)")
        [[(n, columns)]] = runs
        assert columns == 1
        assert 0 < n <= 2 * sum(quadrature.tanh_sinh_levels(lv).size for lv in (0, 1))
        # moment_series(1) rules on shells 0 and 1 in one call, which
        # runs until shell 0's column settles at level 1, the integrand's
        # first call; shell 1's ends the series
        runs.clear()
        res = d.moment_series(1, SeriesControl(k_max=2))
        assert res.terms_used == (1, 1) and res.diagnostic.startswith("term (k=1, j=0)")
        assert [[columns for _, columns in shapes] for shapes in runs] == [[2]]

    def test_series_op_value_count(self, runs):
        # only the j = 0 columns the verdicts need: 1,176 values in 3
        # tanh_sinh runs, one per series, as the rule's first call takes
        # shells 0..m, and 3 integrand calls, as each run's first call
        # takes levels 0 and 1 (renyi_series(2)'s, which fails at level
        # 0, adds level 1's 98 values). 1,078 values in 3 runs and 5 calls
        # when a call took one level; 1,078 in 5 runs when the rule's
        # first call took shell 0 alone. Before
        # every shell's j = 0 column was ruled on ahead of the sum it
        # took 78,890 in 7 runs (moment_series(2) summed shells 0 and 1
        # to j_max before aborting at shell 2), before shell 1's alone
        # was 156,898 in 8, before the shells shared their tau columns
        # 236,082 in 9, and on the adaptive Gauss-Legendre engine before
        # that 921,975.
        _series_op(dist(*SERIES_DESIGN_PINS[0][0]))
        assert sum(math.prod(shape) for shapes in runs for shape in shapes) == 1_176
        assert len(runs) == 3

    def test_series_op_evaluates_the_base_once_per_level(self, runs):
        # every tau of the op reads log G1 (and log g1) at an integrand
        # call's nodes from one memo per distribution: the base's cdf runs
        # once per call index reached (1, the nodes of levels 0 and 1),
        # where each integrand call ran it (3)
        a, b, lam = SERIES_DESIGN_PINS[0][0]
        base = make_exponential(lam)
        calls = {"cdf": 0, "log_pdf": 0}

        def counted(name):
            def call(x):
                calls[name] += 1
                return getattr(base, name)(x)
            return call

        d = GammaRatioDist(a, b, dataclasses.replace(
            base, cdf=counted("cdf"), log_pdf=counted("log_pdf")))
        results = _series_op(d)
        assert sum(len(shapes) for shapes in runs) == 3
        assert len(d._base_abscissae) == 2
        assert calls["cdf"] == 1
        assert 0 < calls["log_pdf"] <= calls["cdf"]
        assert [(r.terms_used, r.diagnostic) for r in results] == [
            (r.terms_used, r.diagnostic) for r in _series_op(dist(a, b, lam))]

    @pytest.mark.parametrize("prm", [prm for prm, _ in SERIES_DESIGN_PINS])
    def test_second_moment_k1_shell_integrates_only_its_probe(self, runs, prm):
        # shell 2's column 0 is not integrable: the column 0 of shells
        # 0-2 is ruled on in one three-column run
        assert dist(*prm).moment_series(2).terms_used == (2, 1)
        assert [{columns for _, columns in shapes} for shapes in runs] == [{3}]

    # (law, order (None: renyi_series(0.3)), control, result) where no
    # shell's j = 0 column below k_max is nan. When such shells were
    # summed the first case returned converged=True at 3,566.3, where
    # moment_quadrature(6) is 2.998e7; now each is shell k*'s note, as
    # at the default control
    UNCHANGED = [
        ((0.131, 0.7, 1.3), 6, SeriesControl(5, 2000, 1e-3),
         ("nan", (6, 1), False, "term (k=6, j=0) needs tau(m=6, eta=0, r=-7.131), "
          "which is not integrable; the printed expansion is formal at these parameters")),
        ((0.6, 0.7, 1.3), 3, SeriesControl(3, 200, 1e-6),
         ("nan", (3, 1), False, "term (k=3, j=0) needs tau(m=3, eta=0, r=-4.6), "
          "which is not integrable; the printed expansion is formal at these parameters")),
        ((0.131, 0.7, 1.3), 6, SeriesControl(6, 200, 1e-6),
         ("nan", (6, 1), False, "term (k=6, j=0) needs tau(m=6, eta=0, r=-7.131), "
          "which is not integrable; the printed expansion is formal at these parameters")),
        (SERIES_DESIGN_PINS[0][0], 2, SeriesControl(k_max=2),
         ("nan", (2, 1), False, "term (k=2, j=0) needs tau(m=2, eta=0, r=-3.14248), "
          "which is not integrable; the printed expansion is formal at these parameters")),
        ((0.5, 0.7, 1.3), None, SeriesControl(k_max=1),
         ("nan", (1, 1), False, "term (k=1, j=0) needs tau(m=0, eta=-0.7, r=-1.45), "
          "which is not integrable; the printed expansion is formal at these parameters")),
    ]

    @staticmethod
    def _unchanged(prm, m, ctrl):
        d = dist(*prm)
        return d.renyi_series(0.3, ctrl) if m is None else d.moment_series(m, ctrl)

    @pytest.mark.parametrize("prm, m, ctrl, want", UNCHANGED)
    def test_sum_without_a_nan_column_is_unchanged(self, prm, m, ctrl, want):
        # the verdict depends on the law, not on k_max: a short control
        # gives the default control's result
        res = self._unchanged(prm, m, ctrl)
        assert math.isnan(res.value)
        assert (res.terms_used, res.converged, res.diagnostic) == want[1:]
        default = self._unchanged(prm, m, None)
        assert (default.terms_used, default.converged, default.diagnostic) == want[1:]

    @pytest.mark.parametrize("prm, m, ctrl, want", UNCHANGED)
    def test_sum_without_a_nan_column_keeps_its_bits(self, prm, m, ctrl, want):
        # no shell is summed, so no kernel's last bits reach the value
        assert self._unchanged(prm, m, ctrl).value.hex() == want[0]

    # integrand values of each UNCHANGED case: only the j = 0 rule's
    # columns, where summing shells 0..k_max-1, each asking tau for its
    # own columns, took the parametrised count. The last case's rule
    # ends at level 0, yet evaluates level 1's nodes in the same
    # integrand call: 588 values, 392 when a call took one level
    @pytest.mark.parametrize("prm, m, ctrl, summed, values", [
        pytest.param(prm, m, ctrl, summed, values, id=f"prm{i}-{m}-ctrl{i}-{summed}")
        for i, ((prm, m, ctrl, _), summed, values) in enumerate(zip(
            UNCHANGED, [502_740, 235_788, 314_776, 157_192, 78_596],
            [1_372, 784, 1_372, 588, 588]))])
    def test_summed_shells_value_count(self, runs, prm, m, ctrl, summed, values):
        self._unchanged(prm, m, ctrl)
        count = sum(math.prod(shape) for shapes in runs for shape in shapes)
        assert count == values < summed

    def test_huge_k_max_ends_at_the_first_formal_shell(self, runs):
        # the rule reads the column 0 of shells 0-2 in one call and stops
        # at shell 2's nan column: one run
        res = dist(*SERIES_DESIGN_PINS[0][0]).moment_series(2, SeriesControl(k_max=100_000))
        assert math.isnan(res.value) and res.converged is False
        assert res.terms_used == (2, 1) and res.diagnostic.startswith("term (k=2, j=0)")
        assert len(runs) == 1

    def test_series_op_maps_each_level_through_the_base_once(self, runs):
        # every tau of the op, the j = 0 rule's included, reads the
        # base's abscissae from one memo per distribution: the three
        # series' rule calls share it, and levels 0 and 1 are mapped in
        # one quantile and one isf call
        a, b, lam = SERIES_DESIGN_PINS[0][0]
        base = make_exponential(lam)
        calls = {"quantile": [], "isf": []}

        def counted(name):
            def call(s):
                calls[name].append(len(s))
                return getattr(base, name)(s)
            return call

        d = GammaRatioDist(a, b, dataclasses.replace(
            base, quantile=counted("quantile"), isf=counted("isf")))
        _series_op(d)
        assert len(runs) == 3
        assert sorted(d._base_abscissae) == [0, 1]
        both = quadrature.tanh_sinh_levels(0).size + quadrature.tanh_sinh_levels(1).size
        assert calls == {"quantile": [both], "isf": [both]}


# 7 x 4 x 3 points over alpha 0.1-6, beta 0.05-5, lambda 0.5-2
SERIES_GRID = [
    (a, b, lam)
    for a in (0.1, 0.25, 0.5, 1.0, 1.5, 3.0, 6.0)
    for b in (0.05, 0.3, 1.0, 5.0)
    for lam in (0.5, 1.0, 2.0)
]


# the exponential-base laws of the series honesty grid: 7 x 4 x 4
EXP_SERIES_GRID = [
    (a, b, lam)
    for a in (0.01, 0.131, 0.6, 1.5, 2.5, 5.0, 30.0)
    for b in (1e-6, 1e-3, 0.05, 1.0)
    for lam in (1e-3, 0.539, 1.0, 10.0)
]


class TestExpSeriesGrid:
    """On the exponential base x^m ~ (u/lam)^m as u -> 0, so shell k's
    column 0, tau(m, 0, -k - (alpha + 1)), is not integrable from
    k* = max(0, ceil(m - alpha)) on, and the order-2 entropy's,
    tau(0, 1, -2 (alpha + 1) - k), at every shell. The j = 0 columns
    are ruled on before any shell is summed, so every moment and
    entropy series there is the note of shell k*, with a nan value. The
    tail test once called 200 of these cells converged, off quadrature
    by 6.9e-4 to 2.7 relative."""

    @pytest.mark.parametrize("ctrl", [None, SeriesControl(60, 20000, 1e-6),
                                      SeriesControl(60, 2000, 0.1)])
    def test_every_series_is_its_first_formal_shell(self, ctrl):
        misses = []
        for a, b, lam in EXP_SERIES_GRID:
            d = dist(a, b, lam)
            for m in (1, 2, 3, 6, None):
                if m is None:
                    k, res = 0, d.renyi_series(2.0, ctrl)
                    head = f"term (k=0, j=0) needs tau(m=0, eta=1, r={-2.0 * (a + 1.0):.6g}), "
                else:
                    k, res = max(0, math.ceil(m - a)), d.moment_series(m, ctrl)
                    head = f"term (k={k}, j=0) needs tau(m={m}, eta=0, r={-k - (a + 1.0):.6g}), "
                if not (math.isnan(res.value) and res.converged is False
                        and res.terms_used == (k, 1) and res.diagnostic.startswith(head)):
                    misses.append(((a, b, lam), m, res))
        assert misses == []


class TestFirstFailingTau:
    """The j = 0 rule batches its columns, m + 1 in its first tau call,
    and each column's verdict does not depend on the others in its call,
    so a series ends where the scalar tau of its first failing j = 0
    column raises, whatever the batch held."""

    @pytest.mark.parametrize("base", [lambda: make_exponential(0.539), lomax_base,
                                      logistic_base], ids=["exponential", "lomax", "logistic"])
    def test_verdict_is_the_first_failing_scalar_tau(self, base):
        misses = []
        for a in (0.131, 0.6, 1.5, 2.5):
            d = GammaRatioDist(a, 0.7, base())
            # (result, m, eta, c): shell k's column 0 is tau(m, eta, -k - c)
            cases = [(d.moment_series(m), m, 0.0, a + 1.0) for m in (1, 2, 3, 6)]
            cases += [(d.renyi_series(eta), 0, eta - 1.0, eta * (a + 1.0)) for eta in (2.0, 0.3)]
            for res, m, eta, c in cases:
                k, err = _first_failing_column(d, m, eta, c)
                note = res.diagnostic
                if k is None:
                    ok = math.isnan(res.value) and NOT_SUMMED in note
                else:
                    ok = (math.isnan(res.value) and res.terms_used == (k, 1)
                          and note.startswith(f"term (k={k}, j=0) needs ")
                          and ("not integrable" in note) == isinstance(err, DivergenceError))
                if not ok:
                    misses.append((a, m, eta, k, res))
        assert misses == []

    @pytest.mark.parametrize("ctrl", [SeriesControl(k_max=1), SeriesControl(k_max=100_000)])
    def test_no_failing_column_below_the_cap(self, monkeypatch, ctrl):
        # a tau that rules every column integrable leaves no verdict
        # below the cap, whatever k_max: the rule asks for _TAU_BLOCK
        # columns, sums no shell and says so
        asked = []

        def integrable(self, m, eta, r, errors_out=None):
            asked.append(np.size(r))
            errors_out.extend([None] * np.size(r))
            return np.ones(np.size(r))

        monkeypatch.setattr(GammaRatioDist, "tau", integrable)
        res = dist(0.6, 0.7, 1.3).moment_series(1, ctrl)
        assert math.isnan(res.value) and res.converged is False
        assert res.terms_used == (_TAU_BLOCK, 1)
        assert res.diagnostic == (
            f"no shell k < {_TAU_BLOCK} has a non-integrable j = 0 column "
            f"tau(m=1, eta=0, r=-k-1.6); {NOT_SUMMED}")
        assert sum(asked) == _TAU_BLOCK


def power_base(c):
    """G1 = x^c on (0, 1): x^m ~ u^(m/c) at the head u = G1 -> 0."""
    return BaseDistribution(
        name=f"power({c})",
        cdf=lambda x: np.asarray(x, dtype=float) ** c,
        log_pdf=lambda x: math.log(c) + (c - 1.0) * np.log(np.asarray(x, dtype=float)),
        quantile=lambda u: np.asarray(u, dtype=float) ** (1.0 / c),
        support=(0.0, 1.0),
        params=(c,),
        sf=lambda x: -np.expm1(c * np.log(np.asarray(x, dtype=float))),
        isf=lambda s: np.exp(np.log1p(-np.asarray(s, dtype=float)) / c),
    )


class TestSeriesCensus:
    """Shell k's j = 0 column of the order-m moment series is
    tau(m, 0, -k - (alpha + 1)), the integral of x(u)^m u^(-k - alpha - 1).
    Where G1 ~ x^c at a head at 0 it is not integrable from
    k* = max(0, ceil(m/c - alpha)) on (c = 1 on the exponential base),
    and on the unit Lomax (whose mean diverges) and the logistic (whose
    head is at -inf) from k* = 0. That formula is the oracle: at every
    control each result is nan and names shell k* as not integrable, or
    an earlier, barely integrable shell as not resolved."""

    # alpha log-uniform on [0.01, 30], beta on [0.01, 10]
    LAWS = np.exp(np.random.default_rng(2015).uniform(
        np.log([0.01, 0.01]), np.log([30.0, 10.0]), size=(25, 2))).tolist()
    # (base, c of a head G1 ~ x^c at 0, or None where k* = 0)
    BASES = [(lambda: make_exponential(0.539), 1.0), (lomax_base, None),
             (logistic_base, None), (lambda: power_base(0.2), 0.2),
             (lambda: power_base(0.5), 0.5)]

    def test_every_moment_series_is_the_oracle_shell(self):
        misses, cells = [], 0
        for make, c in self.BASES:
            for a, b in self.LAWS:
                d = GammaRatioDist(a, b, make())
                for m in (1, 2, 4):
                    k_star = 0 if c is None else max(0, math.ceil(m / c - a))
                    for ctrl in (None, SeriesControl(k_max=1), SeriesControl(k_max=2)):
                        res = d.moment_series(m, ctrl)
                        k, note = res.terms_used[0], res.diagnostic
                        cells += 1
                        ok = (math.isnan(res.value) and res.converged is False
                              and note.startswith(f"term (k={k}, j=0) needs tau(m={m}, eta=0, ")
                              and ((k == k_star and "not integrable" in note)
                                   or (k < k_star and "could not be resolved" in note)))
                        if not ok:
                            misses.append((d.base.name, a, b, m, ctrl, k_star, res))
        assert cells == 1_125
        assert misses == []


NOT_SUMMED = "the family's expansion is not summed, and the quadrature path gives the value"


def _first_failing_column(d, m, eta, c):
    """(k, its exception) for the first shell k < _TAU_BLOCK whose scalar
    tau(m, eta, -k - c) raises, or (None, None)."""
    for k in range(_TAU_BLOCK):
        try:
            d.tau(m, eta, -k - c)
        except (DivergenceError, NumericalError) as err:
            return k, err
    return None, None


class TestSeriesGolden:
    """Digests of series results and tau columns, pinned from the
    engine's output: a change to the quadrature's bookkeeping or to how
    tau forms its integrand must leave every bit and verdict in place."""

    @pytest.fixture(scope="class")
    def results(self):
        points = SERIES_GRID + [prm for prm, _ in SERIES_DESIGN_PINS]
        results = [res for prm in points for res in _series_op(dist(*prm))]
        assert len(results) == 261
        return results

    def test_series_results_digest(self, results):
        # all 261 results (every one nan today): value bits, converged
        # and diagnostic, which skipping a shell whose sum cannot change
        # the verdict must leave in place
        digest = hashlib.sha256()
        for res in results:
            digest.update(repr((float(res.value).hex(), res.converged,
                                res.diagnostic)).encode())
        assert digest.hexdigest() == (
            "750e87b14d314d5ad379253d31844eefaec46d7aa3808b2ad0d745f048f9b6be")

    def test_series_terms_digest(self, results):
        # terms_used of the same 261 results
        digest = hashlib.sha256()
        for res in results:
            digest.update(repr(res.terms_used).encode())
        assert digest.hexdigest() == (
            "40be4c0eadff44b6bd2a56e7db824552709c0da5eb940e175c924708cd1adcc8")

    @pytest.mark.usefixtures("avx512_bits")
    def test_tau_columns_digest(self):
        # 200-column tau blocks over the same points and a logistic base
        # (whose odd powers of x take the sign path): value bits and the
        # type and message of every verdict
        digest = hashlib.sha256()
        points = SERIES_GRID + [prm for prm, _ in SERIES_DESIGN_PINS]
        cases = [dist(*prm) for prm in points]
        cases += [GammaRatioDist(a, 1.0, logistic_base()) for a in (0.131, 0.5, 2.0, 30.0)]
        j = np.arange(200.0)
        for d in cases:
            a = d.alpha
            for m, eta, r in ((1, 0.0, j - (a + 1.0)), (2, 0.0, j - (a + 1.0)),
                              (0, 1.0, j - 2.0 * (a + 1.0)), (3, 0.5, j - a)):
                errors = []
                values = d.tau(m, eta, r, errors_out=errors)
                verdicts = [None if e is None else (type(e).__name__, str(e)) for e in errors]
                digest.update(repr(([v.hex() for v in values.tolist()], verdicts)).encode())
        assert digest.hexdigest() == (
            "b1a58dc0fe6abf0f3cb3c1964c7c8a484212bf55367fc568fecc2e5f1e61fe37")


class TestInnerTruncation:
    """The vectorised inner-sum helpers give the same floats and stops as
    the scalar loops they replace."""

    @pytest.mark.parametrize("s", [-1.6, -0.869, 0.4, 3.0, 7.25])
    def test_running_binomial_matches_loop(self, s):
        # flipping the sign (-1)^j back is exact
        binom = _signed_binomial(0, 0.0, s, 300) * (-1.0) ** np.arange(300.0)
        assert binom.tolist() == _loop_binomial(s, 300)

    @pytest.mark.parametrize("ctrl", [
        DEFAULT_CONTROL, SeriesControl(tail_tol=1e-6), SeriesControl(tail_tol=1e-3),
    ])
    def test_truncate_inner_matches_loop(self, ctrl):
        rng = np.random.default_rng(5)
        j = np.arange(400.0)
        cases = [
            _signed_binomial(0, 0.0, -0.4, 400) / (j + 0.6) * 0.9**j,
            _signed_binomial(0, 0.0, 2.5, 400) / (j - 3.5),
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
        ((2.5, 1.0, 1.0), DEFAULT_CONTROL, 4.0, -1.4119997218569058e-05, (6, 200), False),
        ((0.131, 0.179, 0.539), SeriesControl(5, 20, 1e-3), 0.3,
         -0.9687593202817056, (5, 7), False),
    ]

    @pytest.mark.parametrize("prm, ctrl, x, value, terms, converged", PINNED_CELLS)
    def test_pinned_truncation(self, prm, ctrl, x, value, terms, converged):
        r = dist(*prm).cdf_series(x, ctrl)
        # the (2.5, 1, 1) cell cancels about 1e4-fold, which magnifies
        # an ulp of np.exp on another CPU to about 1e-12
        assert r.value == pytest.approx(value, rel=1e-10, abs=0.0)
        assert r.terms_used == terms
        assert r.converged is converged

    def test_refuses_integer_shape(self):
        with pytest.raises(ValueError, match="integer alpha"):
            dist(2.0, 1.0, 1.0).cdf_series(1.0)

    def test_requires_interior_point(self):
        with pytest.raises(ValueError, match="strictly inside"):
            dist(0.5, 1.0, 1.0).cdf_series(-1.0)

    def test_requires_a_scalar_point(self):
        with pytest.raises(ValueError, match=r"scalar x, got shape \(1,\)"):
            dist(0.5, 1.0, 1.0).cdf_series(np.array([1.0]))


class TestFirstCallOfLevelsZeroAndOne:
    """tanh_sinh takes the nodes of levels 0 and 1 in one call of f, and
    the node memos build both levels in one pass: every step is
    elementwise, so each node keeps the bits of a one-level build, and
    the Renyi constant, read off the first call, keeps its bits."""

    ALPHAS = [0.01, 0.6, 9.99, 10.0, 300.0]
    BASES = {"exponential": lambda: make_exponential(1.3), "lomax": lomax_base}

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_nodes_keep_the_one_level_bits(self, alpha, base):
        d = GammaRatioDist(alpha, 0.7, self.BASES[base]())
        for level in (0, 1):
            # the build of one level alone, on _gamma_scale's nodes of it
            log_t, log_weight = family._gamma_scale(alpha, (level,))
            with np.errstate(over="ignore", under="ignore"):
                weight = np.exp(log_weight)
            x = d._inside(d._x_of_log_odds(log_t - math.log(d.beta)))
            x[~(weight >= np.finfo(float).tiny)] = np.nan
            n = x.size // 2
            want = (x[:n], x[n:], weight[:n], weight[n:])
            assert [a.tobytes() for a in d._nodes(level)] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_base_nodes_keep_the_one_level_bits(self, alpha, base):
        d = GammaRatioDist(alpha, 0.7, self.BASES[base]())
        for level in (0, 1):
            s = quadrature.tanh_sinh_levels(level)
            want = (d._inside(d.base.quantile(s)), d._inside(d.base.isf(s)))
            assert [a.tobytes() for a in d._base_nodes(level)] == [a.tobytes() for a in want]

    # (law, eta, the value's hex with numpy's AVX-512 kernels), the hex
    # that of c read off a public log_pdf call at the node u = 1/2
    RENYI = [
        (lambda: OEGammaDist(2.0, 1.0, 3.0), 2.0, "-0x1.3765af18fb239p+0"),
        (lambda: OEGammaDist(0.02, 0.5, 3.0), 0.5, "0x1.0c9fccb95ed38p+2"),
        (lambda: GammaRatioDist(1.5, 1.0, lomax_base()), 1.0 + 1e-9, "0x1.49b9e5da36b64p+0"),
    ]

    def test_renyi_calls_no_public_log_pdf(self, monkeypatch):
        calls = []
        log_pdf = GammaRatioDist.log_pdf

        def spy(self, x):
            calls.append(x)
            return log_pdf(self, x)

        monkeypatch.setattr(GammaRatioDist, "log_pdf", spy)
        for law, eta, _ in self.RENYI:
            assert math.isfinite(law().renyi_entropy(eta))
        assert calls == []

    @pytest.mark.parametrize("law, eta, want", RENYI)
    def test_renyi_keeps_its_bits(self, avx512_bits, law, eta, want):
        assert law().renyi_entropy(eta).hex() == want

    @pytest.mark.parametrize("law, eta, want", RENYI)
    def test_renyi_keeps_its_value(self, law, eta, want):
        assert law().renyi_entropy(eta) == pytest.approx(float.fromhex(want), rel=1e-15)


class TestSeriesControlArgument:
    # every series method of both classes, with a valid first argument
    CALLS = [("moment_series", 1), ("central_moment_series", 2), ("mgf_series", 0.1),
             ("cf_series", 1.0), ("renyi_series", 2.0), ("cdf_series", 1.0)]

    @pytest.mark.parametrize("family_law", [False, True])
    @pytest.mark.parametrize("method, arg", CALLS)
    def test_a_control_that_is_not_one_raises(self, family_law, method, arg):
        d = OEGammaDist(0.6, 0.7, 1.3)
        d = d.as_family() if family_law else d
        with pytest.raises(TypeError, match=f"^{method} requires a SeriesControl or None, "
                                            "got 'junk'$"):
            getattr(d, method)(arg, "junk")
        getattr(d, method)(arg, None)
        getattr(d, method)(arg, SeriesControl(k_max=2))


class TestCentralMomentSeriesStops:
    def test_first_nan_order_ends_the_recombination(self, monkeypatch):
        # the order-1 series is nan (shell 1's j = 0 column is not
        # integrable), so orders 2-4 cannot change the value or the note:
        # one tanh_sinh run, and the order-1 part's terms_used
        runs = []
        engine = family.tanh_sinh

        def counted(f, abscissae):
            runs.append(f)
            return engine(f, abscissae)

        monkeypatch.setattr(family, "tanh_sinh", counted)
        d = dist(0.6, 0.7, 1.3)
        res = d.central_moment_series(4)
        assert len(runs) == 1
        first = d.moment_series(1)
        assert math.isnan(res.value) and res.converged is False
        assert res.terms_used == first.terms_used == (1, 1)
        assert res.diagnostic == ("the order-1 raw-moment series did not converge: "
                                  + first.diagnostic)
