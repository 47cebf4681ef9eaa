"""Baseline distribution bundle: the exponential factory and the
derived survival-side defaults."""

import math

import numpy as np
import pytest

from oddsgamma import BaseDistribution, make_exponential


@pytest.fixture
def exp07():
    return make_exponential(0.7)


class TestExponentialFactory:
    def test_cdf_pdf_closed_forms(self, exp07):
        x = np.array([0.3, 1.3, 5.0])
        assert np.allclose(exp07.cdf(x), -np.expm1(-0.7 * x), rtol=1e-15)
        assert np.allclose(exp07.log_pdf(x), math.log(0.7) - 0.7 * x, rtol=1e-15)

    def test_outside_support(self, exp07):
        assert exp07.cdf(-1.0) == 0.0
        assert exp07.log_pdf(-1.0) == -math.inf
        assert exp07.sf(-1.0) == 1.0

    def test_nan_in_nan_out(self, exp07):
        # nan fails the x <= 0 test as it fails x > 0: no support-edge value
        for f in (exp07.cdf, exp07.sf, exp07.log_pdf):
            assert math.isnan(f(math.nan)), f
            got = f(np.array([math.nan, 1.0, -1.0]))
            assert np.isnan(got[0]) and np.isfinite(got[1]), f
            assert got[2] == f(-1.0), f

    def test_survival_side_exact(self, exp07):
        # sf is a plain exponential; isf(s) = -ln(s)/lam without 1-u loss
        assert exp07.sf(10.0) == pytest.approx(math.exp(-7.0), rel=1e-15)
        s = 1e-300
        x = exp07.isf(s)
        assert exp07.sf(x) == pytest.approx(s, rel=1e-12)

    def test_quantile_round_trip(self, exp07):
        for u in (1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-12):
            assert exp07.cdf(exp07.quantile(u)) == pytest.approx(u, rel=1e-9)

    def test_quantile_endpoints(self, exp07):
        assert exp07.quantile(0.0) == 0.0
        assert exp07.quantile(1.0) == math.inf
        with pytest.raises(ValueError):
            exp07.quantile(1.5)

    # lam x at lam = 1/2 for lam x in {Y0 - 1 ulp, Y0, Y0 + 1 ulp, 709.78,
    # 745}: Y0 = 5.56268464626801e-309 is the least lam x where the odds
    # 1/expm1(lam x) are finite, expm1 overflows past 709.78, and past
    # 745 the odds lie below the least subnormal. 1/expm1(lam x) by
    # 40-digit mpmath on these floats; the first exceeds the largest
    # double by more than half an ulp, so it rounds to inf
    ODDS_X = [1.1125369292536007e-308, 1.1125369292536017e-308, 1.1125369292536027e-308,
              1419.56, 1490.0]
    ODDS_PINS = ["1.797693134862315907729305e+308", "1.797693134862314311057058e+308",
                 "1.79769313486231271438481e+308", "5.577796105262744838925638e-309",
                 "2.82235073047193707635344e-324"]

    def test_odds_against_mpmath(self):
        base = make_exponential(0.5)
        got = base.odds(np.array(self.ODDS_X))
        assert got[0] == math.inf
        for g, pin in zip(got[1:], self.ODDS_PINS[1:]):
            want = float(pin)
            # within one rounding, or one step of the least subnormal
            assert abs(g - want) <= max(2.0 ** -52 * want, 2.0 ** -1074), (g, pin)
        assert [float(base.odds(v)) for v in self.ODDS_X] == got.tolist()

    def test_odds_edges(self, exp07):
        got = exp07.odds(np.array([-math.inf, -1.0, -0.0, 0.0, math.nan, math.inf]))
        assert got[:4].tolist() == [math.inf] * 4
        assert math.isnan(got[4]) and got[5] == 0.0
        x = np.array([1e-3, 0.5, 3.0, 40.0])
        assert np.array_equal(exp07.odds(x), 1.0 / np.expm1(0.7 * x))

    @pytest.mark.parametrize("lam", [0.7, 0.539, 3.0, 1e-3, 1e3])
    def test_log_isf_is_the_negated_level_over_lam(self, lam):
        # the bits of -np.asarray(ln s, dtype=float) / lam, nan signs
        # included, for arrays and for float, numpy-scalar and 0-d levels
        rng = np.random.default_rng(20261022)
        edge = [0.0, -0.0, -math.inf, math.nan, -math.nan, -5e-324, -4.9e-314,
                -2.2250738585072014e-308, -1e-300, -745.0, -1e300]
        levels = np.concatenate([edge, -rng.exponential(1.0, 200_000)
                                 * 10.0 ** rng.integers(-12, 6, 200_000)])
        base = make_exponential(lam)

        def bits(a):
            return np.asarray(a, dtype=float).view(np.uint64).tolist()

        want = -np.asarray(levels, dtype=float) / lam
        assert bits(base.log_isf(levels)) == bits(want)
        for v in edge + levels[len(edge):len(edge) + 200].tolist():
            for level in (v, np.float64(v), np.array(v)):
                got = base.log_isf(level)
                assert np.ndim(got) == 0 and bits(got) == bits(-np.asarray(v) / lam), v

    def test_metadata(self, exp07):
        assert exp07.name == "exponential"
        assert exp07.support == (0.0, math.inf)
        assert exp07.params == (0.7,)
        assert exp07.tail_rate == 0.7

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="positive and finite"):
            make_exponential(-1.0)
        with pytest.raises(ValueError):
            make_exponential(0.0)
        with pytest.raises(ValueError):
            make_exponential(math.inf)


class TestBundleDefaults:
    def _minimal(self, **overrides):
        fields = dict(
            name="toy",
            cdf=lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0),
            log_pdf=lambda x: np.where(
                (np.asarray(x) > 0.0) & (np.asarray(x) < 1.0), 0.0, -np.inf
            ),
            quantile=lambda u: np.asarray(u, dtype=float),
            support=(0.0, 1.0),
            params=(),
        )
        fields.update(overrides)
        return BaseDistribution(**fields)

    def test_derived_sf_and_isf(self):
        d = self._minimal()
        assert float(d.sf(0.25)) == pytest.approx(0.75, rel=1e-15)
        assert float(d.isf(0.25)) == pytest.approx(0.75, rel=1e-15)
        assert d.tail_rate is None

    def test_derived_log_sf_and_log_isf(self):
        d = self._minimal()
        assert float(d.log_sf(0.25)) == pytest.approx(math.log(0.75), rel=1e-15)
        assert float(d.log_sf(1.0)) == -math.inf
        # above ln s = -ln 2 through quantile(1 - s), at or below it
        # through isf(s); below double range s rounds to 0, the top
        levels = np.log([0.75, 0.5, 0.25, 1e-300]).tolist() + [-1e4]
        got = d.log_isf(np.array(levels))
        np.testing.assert_allclose(got, [0.25, 0.5, 0.75, 1.0, 1.0], rtol=1e-15)
        assert [float(d.log_isf(v)) for v in levels] == got.tolist()

    def test_derived_odds(self):
        # sf/cdf, +inf where cdf = 0, nan for nan
        d = self._minimal()
        x = np.array([0.25, 0.6, 1.0, 2.0, 0.0, -1.0, math.nan])
        got = d.odds(x)
        c, s = d.cdf(x[:4]), d.sf(x[:4])
        assert np.array_equal(got[:4], s / c)
        assert got[:4].tolist() == [3.0, 0.4 / 0.6, 0.0, 0.0]
        assert got[4] == got[5] == math.inf and math.isnan(got[6])
        assert float(d.odds(0.25)) == 3.0

    def test_derived_odds_keep_a_subnormal_cdf(self):
        # no clamp of cdf: a subnormal cdf gives its own quotient, or inf
        # where that overflows
        tiny = np.array([1e-310, 5e-324, 2.5e-308])
        got = self._minimal().odds(tiny)
        assert got[0] == got[1] == math.inf
        assert got[2] == (1.0 - 2.5e-308) / 2.5e-308

    def test_supplied_odds_are_kept(self):
        def odds(x):
            return np.full(np.shape(x), 7.0)

        assert self._minimal(odds=odds).odds is odds

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError, match="empty support"):
            self._minimal(support=(1.0, 1.0))
