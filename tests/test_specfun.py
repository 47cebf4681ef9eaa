"""Special-function layer: values against independent references and
inverse round trips including deep tails."""

import bisect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp

from oddsgamma import OEGammaDist, get_model, specfun, wheaton
from oddsgamma.specfun import (
    _MAP_BLOCK,
    _lgam1p,
    _log_gamma_vec,
    _shape_terms,
    _sq_trigamma,
    _reg_lower_gamma_vec,
    _reg_upper_gamma_vec,
    digamma,
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    log_gamma,
    reg_lower_gamma,
    reg_upper_gamma,
)

EULER_GAMMA = 0.5772156649015329


def _log_minus_digamma(a):
    """log a - psi(a), the left side of the gamma shape equation: the
    first of specfun's shape terms."""
    return _shape_terms(a)[0]


class TestLogGamma:
    def test_matches_stdlib_lgamma(self):
        for a in (0.05, 0.131, 0.5, 1.0, 2.0, 7.3, 50.0, 171.0):
            assert log_gamma(a) == pytest.approx(math.lgamma(a), rel=1e-14)

    def test_recurrence(self):
        # ln Gamma(a+1) = ln Gamma(a) + ln a
        for a in (0.1, 0.7, 3.4, 12.0):
            assert log_gamma(a + 1.0) == pytest.approx(
                log_gamma(a) + math.log(a), rel=1e-13
            )

    def test_half_integer_closed_form(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    # mpmath.loggamma at 40 digits: below about 1e-308 scipy's gammaln
    # overflows to inf
    @pytest.mark.parametrize("a, ref", [(1e-310, 713.8013788281542),
                                        (5e-324, 744.4400719213812)])
    def test_subnormal_shape(self, a, ref):
        assert log_gamma(a) == pytest.approx(ref, rel=1e-15)

    def test_oe_log_pdf_at_a_subnormal_shape(self):
        # ln h = -ln Gamma(alpha) + alpha ln w + ln(1 + w) - w with
        # w = 1/expm1(x) at alpha = 1e-310, beta = lambda = 1, from mpmath
        got = OEGammaDist(1e-310, 1.0, 1.0).log_pdf(np.array([0.01, 0.5, 2.0, 10.0]))
        ref = [-808.69204614077371387, -714.41012078112377481, -713.8124830130349717,
               -713.8013788291848043]
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)

    def test_rejects_bad_shape(self):
        for a in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="requires a > 0"):
                log_gamma(a)


class TestDigamma:
    def test_at_one_is_minus_euler(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    def test_recurrence(self):
        # psi(a+1) = psi(a) + 1/a
        for a in (0.05, 0.3, 1.9, 8.0):
            assert digamma(a + 1.0) == pytest.approx(digamma(a) + 1.0 / a, rel=1e-12)

    def test_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-13)


class TestLogMinusDigamma:
    # log a - psi(a) from mpmath at 40 digits; 9.5 is the last point
    # below the asymptotic series, 10 the first on it
    PINS = {
        0.01: 95.95571527188058312944498,
        1.0: 0.5772156649015328606065121,
        9.5: 0.05355392220354561742446492,
        10.0: 0.05083250392732457637053529,
        37.5: 0.0133925883800267191324501,
        1e3: 0.0005000833333250000039682498,
        1e8: 5.000000008333333333333333e-9,
    }

    @pytest.mark.parametrize("a", sorted(PINS))
    def test_against_mpmath(self, a):
        assert _log_minus_digamma(a) == pytest.approx(self.PINS[a], rel=1e-14, abs=0.0)

    def test_elementwise_over_an_array(self):
        # the profile scan of m2 takes a whole grid of shapes at once,
        # on both sides of the switch to the series
        a = np.array(sorted(self.PINS))
        got = _log_minus_digamma(a)
        assert got.shape == a.shape
        np.testing.assert_allclose(got, [self.PINS[v] for v in a], rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(got, [_log_minus_digamma(v) for v in a])
        np.testing.assert_array_equal(_sq_trigamma(a), [_sq_trigamma(v) for v in a])


class TestScalarArguments:
    # the fits call both helpers on one shape at a time; a scalar comes
    # back as a numpy scalar with the bits of its entry in an array, here
    # one that straddles the switch to the series at a = 10
    POINTS = (1e-300, 0.01, 0.5, 9.999, 10.0, 1e8, math.nan)

    @pytest.mark.parametrize("f", [_log_minus_digamma, _sq_trigamma])
    def test_scalar_is_its_array_entry(self, f):
        entries = f(np.array(self.POINTS))
        for a, entry in zip(self.POINTS, entries):
            got = f(a)
            assert type(got) is np.float64, a
            assert got.tobytes() == entry.tobytes(), a
            assert f(np.array(a)).tobytes() == entry.tobytes(), a


class TestSqTrigamma:
    # a^2 psi'(a) from mpmath at 60 digits; past a ~ 1.3e154 the form
    # 1 + a * a * psi'(a + 1) overflows in a * a
    PINS = {
        0.01: 1.000162121352831322012336,
        1.0: 1.644934066848226436472415,
        1e8: 100000000.5000000016666667,
        1e155: 1e155,
        1e300: 1e300,
    }

    @pytest.mark.parametrize("a", sorted(PINS))
    def test_against_mpmath(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sq_trigamma(a)
        assert got == pytest.approx(self.PINS[a], rel=1e-14, abs=0.0)


class TestRegularizedGamma:
    def test_complement(self):
        for a in (0.131, 1.0, 4.2):
            for x in (0.01, 0.5, 1.0, 5.0, 20.0):
                assert reg_upper_gamma(a, x) + reg_lower_gamma(a, x) == pytest.approx(
                    1.0, abs=1e-14
                )

    def test_exponential_special_case(self):
        # Q(1, x) = exp(-x)
        for x in (0.1, 1.0, 3.0, 30.0):
            assert reg_upper_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)

    def test_half_shape_is_erfc(self):
        for x in (0.2, 1.0, 4.0):
            assert reg_upper_gamma(0.5, x) == pytest.approx(
                sp.erfc(math.sqrt(x)), rel=1e-13
            )

    def test_at_zero(self):
        assert reg_upper_gamma(2.0, 0.0) == 1.0
        assert reg_lower_gamma(2.0, 0.0) == 0.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            reg_upper_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(-2.0, 1.0)

    @pytest.mark.parametrize("f, arg", [(reg_upper_gamma, 1.0), (reg_lower_gamma, 1.0),
                                        (inv_reg_upper_gamma, 0.5), (inv_reg_lower_gamma, 0.5)])
    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_rejects_a_shape_that_is_not_finite(self, f, arg, a):
        # Q(inf, 1) was nan with a RuntimeWarning, and P(inf, 1) was 0.0
        # where scipy's Q is 1
        with pytest.raises(ValueError, match="requires a > 0 and finite"):
            f(a, arg)



# Shapes for the in-house series branch of Q: tiny, the flood fit's
# alpha, and around a = 1 up to the largest shape the branch serves.
EDGE_SHAPES = [1e-4, 1e-3, 0.01, 0.131, 0.5, 0.9, 1.0, 1.2]


def _edge_xs(a):
    """The branch edges x = 0.5, 1.1 and a/1.1, each with its neighbours
    one ulp either side, then 1e-300 and the smallest subnormal."""
    xs = []
    for t in (0.5, 1.1, a / 1.1):
        xs += [np.nextafter(t, 0.0), t, np.nextafter(t, 2.0)]
    return np.array(xs + [1e-300, 5e-324])


# Q(a, x) at EDGE_SHAPES x _edge_xs(a), in _edge_xs order, pinned offline
# with mpmath at 50 digits: gammainc(a, x, inf, regularized=True) on the
# exact binary values of the floats.
Q_EDGES = {
    0.0001: [
        5.598029295740172e-05, 5.5980292957401714e-05, 5.59802929574017e-05,
        1.860112677492648e-05, 1.8601126774926474e-05, 1.8601126774926467e-05,
        0.0008724799705731714, 0.0008724799705731714, 0.0008724799705731714,
        0.06669183642388278, 0.07168697704199797,
    ],
    0.001: [
        0.00056006665647075, 0.0005600666564707498, 0.0005600666564707497,
        0.00018619450885552088, 0.00018619450885552083,
        0.00018619450885552075, 0.0064069671328062065, 0.0064069671328062065,
        0.0064069671328062065, 0.4985238019891134, 0.5247259425733098,
    ],
    0.01: [
        0.0056267561939671844, 0.0056267561939671844, 0.005626756193967183,
        0.0018802413150754852, 0.0018802413150754845, 0.0018802413150754839,
        0.04055885396583026, 0.04055885396583026, 0.040558853965830255,
        0.9989942934714996, 0.9994119569575315,
    ],
    0.131: [
        0.0776636471087954, 0.07766364710879539, 0.07766364710879538,
        0.027778934555541434, 0.027778934555541424, 0.027778934555541413,
        0.20537198677375126, 0.20537198677375126, 0.20537198677375124, 1.0,
        1.0,
    ],
    0.5: [
        0.31731050786291415, 0.3173105078629141, 0.31731050786291404,
        0.13801073756865959, 0.13801073756865953, 0.1380107375686595,
        0.3403557423852016, 0.3403557423852016, 0.34035574238520155, 1.0, 1.0,
    ],
    0.9: [
        0.5555935040389729, 0.5555935040389729, 0.5555935040389728,
        0.29200298499684113, 0.2920029849968411, 0.292002984996841,
        0.3939415766389408, 0.39394157663894075, 0.39394157663894075, 1.0,
        1.0,
    ],
    1.0: [
        0.6065306597126334, 0.6065306597126334, 0.6065306597126333,
        0.3328710836980796, 0.33287108369807955, 0.33287108369807944,
        0.40289032152913307, 0.402890321529133, 0.40289032152913296, 1.0, 1.0,
    ],
    1.2: [
        0.6962998597584569, 0.6962998597584569, 0.6962998597584568,
        0.4145530204158764, 0.4145530204158763, 0.4145530204158762,
        0.4179247642278878, 0.41792476422788777, 0.41792476422788766, 1.0,
        1.0,
    ],
}

# ln Gamma(1 + a) on the helper's domain 0 < a < 3/2, pinned offline with
# mpmath.loggamma(1 + a) at 50 digits.
LGAM1P = {
    1e-08: -5.772156566768626e-09,
    0.0001: -5.7713342220477625e-05,
    0.01: -0.005690307946069646,
    0.131: -0.0623292166011349,
    0.4999: -0.12078588195849393,
    0.5: -0.12078223763524522,
    0.5001: -0.12077858396397449,
    0.9: -0.038984275923083324,
    1.0: 0.0,
    1.2: 0.09694746679063876,
    1.4999: 0.2846125572606828,
}


# Q(a, x) on the igam_series side of that branch's edges, as (x, Q)
# pairs pinned offline with mpmath at 40 digits: gammainc(a, x, inf,
# regularized=True) on the exact binary values of the floats. x is the
# float below exp(-0.4/a) at a <= 0.5, the largest x with 1.1 x < a at
# 0.6 <= a <= 1.2, and 1.1 and 1e-300 above a = 1.21, where every
# x <= 1.1 takes igam_series.
Q_IGAM_EDGES = {
    0.001: [(1.9151695967140055e-174, 0.3292934744095541)],
    0.01: [(4.248354255291588e-18, 0.3258547535172789)],
    0.131: [(0.04719652016133999, 0.290421599502961)],
    0.5: [(0.4493289641172215, 0.343141824951321)],
    0.6: [(0.5454545454545453, 0.35763129912295755)],
    0.9: [(0.818181818181818, 0.3939415766389408)],
    1.0: [(0.909090909090909, 0.40289032152913307)],
    1.2: [(1.0909090909090906, 0.4179247642278878)],
    1.5: [(1.1, 0.5319483712104883), (1e-300, 1.0)],
    3.0: [(1.1, 0.9004162814033052), (1e-300, 1.0)],
    20.0: [(1.1, 1.0), (1e-300, 1.0)],
}


@pytest.fixture
def scipy_inputs(monkeypatch):
    """The x arrays that special.gammaincc and special.gammainc receive
    while a test runs."""
    seen = []
    for name in ("gammaincc", "gammainc"):
        def spy(a, x, f=getattr(sp, name)):
            seen.append(np.array(x, dtype=float))
            return f(a, x)

        monkeypatch.setattr(specfun.special, name, spy)
    return seen


# every edge of Q's Taylor rows, the row top the last, with the floats
# either side: the row a point takes, on either side of an edge, and the
# continued fraction past the top
ROW_EDGE_XS = np.array([e if d is None else np.nextafter(e, d) for e in specfun._ROW_EDGES[1:]
                        for d in (0.0, None, np.inf)])


def _scipy_served(a, x):
    """The points the kernel leaves to scipy: x > 1.1 inside scipy's
    uniform asymptotic window (20 < a, |x - a| < 0.3 a), and every
    x > 1.1 above a = 170."""
    far = (x > 1.1) & (x < np.inf)
    if a > 170.0:
        return far
    return far & (np.abs(x - a) / a < 0.3) if a > 20.0 else far & False


class TestDeferredSpecial:
    """scipy.special is one handle, imported at its first lookup; a name
    patched on it is seen by every module that calls scipy.special, which
    is specfun alone: ln Gamma, psi, the trigamma term and the normal cdf
    and quantile are the package's own."""

    def test_one_handle(self):
        from oddsgamma import expgamma, family, gof, models

        for module in (expgamma, family, gof, models):
            assert not hasattr(module, "special"), module.__name__

    def test_lookup_is_the_module_attribute(self):
        assert specfun.special.gammaincc is sp.gammaincc
        assert "gammaincc" in vars(specfun.special)

    def test_fit_optimize_is_the_same_kind_of_handle(self):
        from oddsgamma import fit
        import scipy.optimize

        assert type(fit.optimize) is type(specfun.special)
        assert fit.optimize.minimize is scipy.optimize.minimize

    def test_patch_reaches_other_modules(self, scipy_inputs):
        from oddsgamma import get_model

        # rho x = 40 lies in scipy's window at a = 40, and 400 does not
        get_model("m1").sf(np.array([500.0, 5000.0]), (40.0, 0.08))
        assert [x.tolist() for x in scipy_inputs] == [[40.0]]


def _series_points(seen):
    x = np.concatenate(seen) if seen else np.empty(0)
    return x[(x > 0.0) & (x <= 1.1)]


PAIR = [_reg_upper_gamma_vec, _reg_lower_gamma_vec]


class TestUpperGammaKernel:
    """The incomplete gamma pair: scipy's power series at 0 < x <= 1.1,
    Legendre's continued fraction and the igam series above, in numpy;
    scipy only in its uniform asymptotic window and above a = 170."""

    @pytest.mark.parametrize("a", EDGE_SHAPES)
    def test_branch_edges_against_mpmath(self, a):
        xs = _edge_xs(a)
        got = _reg_upper_gamma_vec(a, xs)
        for x, q, ref in zip(xs, got, Q_EDGES[a]):
            assert q == pytest.approx(ref, rel=1e-13), (a, x)
            assert reg_upper_gamma(a, x) == q, (a, x)

    def test_dense_grid_matches_scipy(self):
        # scipy is the reference where Q takes scipy's algorithm,
        # 1 - igam_series at x <= 1.1. Elsewhere the reference is the
        # mpmath table (TestGammaTable): above x = 1.1, where scipy is
        # 4e-15 to 1.4e-14 off, and on the igamc_series route, whose
        # x^a/Gamma(a) and ln Gamma(1 + a) the kernel takes to a few ulp,
        # where scipy loses up to 6e-15 at a = 1e-4 and, cutting a zeta
        # series at 40 terms, up to 3e-14 at a = 1/2.
        xs = np.concatenate([np.geomspace(1e-300, 1e3, 2000), np.linspace(1e-3, 1.1, 1000)])
        xs = xs[xs <= 1.1]
        for a in np.geomspace(1e-4, 20.0, 200):
            igamc = (xs >= math.exp(-0.4 / a)) & ((xs <= 0.5) | (1.1 * xs >= a))
            x = xs[~igamc] if a <= 1.21 else xs
            got = _reg_upper_gamma_vec(a, x)
            ref = sp.gammaincc(a, x)
            pos = ref > 0.0
            rel = np.abs(got[pos] - ref[pos]) / ref[pos]
            assert rel.max(initial=0.0) <= 4e-15, (a, x[pos][np.argmax(rel)])
            assert np.array_equal(got[~pos], ref[~pos]), a

    @pytest.mark.parametrize("a", [1e-4, 0.131, 1.0, 1.2, 3.0, 40.0, 300.0])
    def test_exact_edges(self, a):
        edges = np.array([0.0, np.inf, np.nan, -1.0])
        q, p = (f(a, edges) for f in PAIR)
        assert q[0] == 1.0 and q[1] == 0.0 and np.isnan(q[2:]).all()
        assert p[0] == 0.0 and p[1] == 1.0 and np.isnan(p[2:]).all()
        assert np.isnan(_reg_upper_gamma_vec(a, np.nan))
        assert np.isnan(_reg_lower_gamma_vec(a, np.nan))

    def test_no_runtime_warning_escapes(self):
        edges = [0.0, 5e-324, 1e-300, np.inf, np.nan]
        xs = np.concatenate([edges, np.geomspace(1e-12, 1e3, 400)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (1e-300, 1e-4, 0.131, 0.9, 1.2, 5.0, 40.0, 170.0, 300.0):
                for f in PAIR:
                    f(a, xs)
                    for x in edges:
                        f(a, x)
                        f(a, np.array([x]))

    def test_keeps_shape(self):
        xs = np.full((2, 3), 0.3)
        for f, g in zip(PAIR, (reg_upper_gamma, reg_lower_gamma)):
            assert f(0.1, xs).shape == (2, 3)
            assert np.ndim(f(0.1, 0.3)) == 0
            assert float(f(0.1, 0.3)) == g(0.1, 0.3)
            assert f(0.1, np.empty((0, 2))).shape == (0, 2)

    def test_cdf_goes_through_the_kernel(self):
        x = np.geomspace(0.01, 60.0, 200)
        oe = OEGammaDist(0.131, 0.179, 0.539)
        for d in (oe, oe.as_family()):
            want = _reg_upper_gamma_vec(d.alpha, d.beta * d.odds(x))
            assert np.array_equal(d.cdf(x), want)

    def test_survivals_and_m1_go_through_the_pair(self):
        # the family's sf and m1's cdf are the kernel's P, m1's sf its Q
        x = np.concatenate([np.geomspace(0.01, 60.0, 200), [-1.0, 0.0, np.inf, np.nan]])
        d = OEGammaDist(0.131, 0.179, 0.539).as_family()
        want = _reg_lower_gamma_vec(d.alpha, d.beta * d.odds(x))
        assert np.array_equal(d.sf(x), want, equal_nan=True)
        m1 = get_model("m1")
        for a, rho in ((0.84, 0.0687), (0.131, 2.0), (1.2, 0.05), (3.0, 0.5)):
            g = rho * np.maximum(x, 0.0)
            cdf = np.where(x <= 0.0, 0.0, _reg_lower_gamma_vec(a, g))
            assert np.array_equal(m1.cdf(x, (a, rho)), cdf, equal_nan=True)
            sf = np.where(x <= 0.0, 1.0, _reg_upper_gamma_vec(a, g))
            assert np.array_equal(m1.sf(x, (a, rho)), sf, equal_nan=True)

    def test_lower_kernel_leaves_scipy_only_the_window(self):
        xs = np.concatenate([np.geomspace(1e-300, 1e3, 500), [0.0, np.inf, np.nan]])
        for a in (1e-4, 0.131, 1.2, 20.0, 40.0, 170.0, 300.0):
            served = _scipy_served(a, xs)
            for f, ref in zip(PAIR, (sp.gammaincc, sp.gammainc)):
                got = f(a, xs)
                assert np.array_equal(got[served], ref(a, xs[served])), a
            assert reg_lower_gamma(a, 0.3) == float(_reg_lower_gamma_vec(a, 0.3))

    @pytest.mark.parametrize("a", sorted(Q_IGAM_EDGES))
    def test_igam_branch_edges_against_mpmath(self, a, scipy_inputs):
        xs, refs = np.array(Q_IGAM_EDGES[a]).T
        got = _reg_upper_gamma_vec(a, xs)
        assert _series_points(scipy_inputs).size == 0
        for x, q, ref in zip(xs, got, refs):
            assert q == pytest.approx(ref, rel=1e-13, abs=0.0), (a, x)

    def test_series_points_never_reach_scipy(self, scipy_inputs):
        # scipy receives exactly the points of its window and those above
        # a = 170 past x = 1.1, for Q and for P, whether the grid comes in
        # one call or in calls of 72 points, of two or of one
        grid = np.concatenate([np.geomspace(1e-300, 1e3, 2000), np.linspace(1e-3, 1.1, 1000),
                               [0.0, np.inf, np.nan]])
        for size in (grid.size, 72, 2, 1):
            # calls of one or two points take every third point
            xs = grid if size > 2 else grid[::3]
            for a in (1e-4, 0.131, 0.9, 1.2, 3.0, 20.0, 40.0, 300.0):
                want = xs[_scipy_served(a, xs)]
                for f in PAIR:
                    scipy_inputs.clear()
                    for i in range(0, xs.size, size):
                        f(a, xs[i:i + size])
                    seen = np.concatenate(scipy_inputs) if scipy_inputs else np.empty(0)
                    assert np.array_equal(seen, want), (a, size, f.__name__)

    @pytest.mark.parametrize("a", [1e-4, 0.131, 0.9, 1.2, 3.0, 40.0])
    def test_scalar_matches_array(self, a):
        xs = np.concatenate([np.geomspace(1e-6, 1e3, 1536), ROW_EDGE_XS])
        for f, g in zip(PAIR, (reg_upper_gamma, reg_lower_gamma)):
            got = f(a, xs)
            one = np.array([g(a, x) for x in xs])
            assert np.array_equal(got, one), (a, g.__name__)

    @pytest.mark.parametrize("a", [1e-4, 0.131, 0.9, 1.2, 3.0, 20.0, 40.0])
    def test_chunked_calls_match_one_call(self, a):
        # chunks of 1 and 2 run the Taylor rows and the continued
        # fraction in Python floats and the igam series as accumulations,
        # as 72 does for most shapes; the whole grid runs them as numpy
        # loops
        xs = np.concatenate([np.geomspace(1e-8, 1e3, 1531), [0.0, 0.5, 1.1, np.inf, np.nan],
                             ROW_EDGE_XS])
        for f in PAIR:
            whole = f(a, xs)
            for size in (1, 2, 7, 72, 767, 768):
                parts = [f(a, xs[i:i + size]) for i in range(0, xs.size, size)]
                assert np.array_equal(np.concatenate(parts), whole, equal_nan=True), (a, size)
            # a call of more than two blocks, every route's points and the
            # exact edges shuffled together, in calls that split its blocks
            pick = np.random.default_rng(0).integers(0, xs.size, 2 * _MAP_BLOCK + 1000)
            long = f(a, xs[pick])
            assert np.array_equal(long, whole[pick], equal_nan=True), a
            for size in (_MAP_BLOCK - 1, _MAP_BLOCK, _MAP_BLOCK + 1):
                parts = [f(a, xs[pick[i:i + size]]) for i in range(0, pick.size, size)]
                assert np.array_equal(np.concatenate(parts), long, equal_nan=True), (a, size)

    def test_row_index_is_bisects(self):
        # the array kernel reads a point's Taylor row off its bits, the
        # scalar one bisects the edges: the same row on either side of
        # every edge and across each row
        xs = np.concatenate([ROW_EDGE_XS[:-1], np.geomspace(np.nextafter(1.1, 2.0),
                                                            ROW_EDGE_XS[-3], 4001)])
        want = [bisect.bisect_right(specfun._ROW_EDGES, x) - 1 for x in xs.tolist()]
        assert specfun._row_index(xs).tolist() == want

    def test_wheaton_cdf_does_not_depend_on_its_call(self):
        x = np.asarray(wheaton().values)
        d = OEGammaDist(0.131, 0.179, 0.539)
        padded = d.cdf(np.concatenate([x, np.full(800, 200.0)]))
        assert np.array_equal(d.cdf(x), padded[:x.size])

    def test_numpy_series_raise_no_runtime_warning(self):
        edges = [5e-324, 1e-300]
        xs = np.concatenate([edges, np.geomspace(1e-12, 1.1, 400)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (1e-300, 1e-4, 0.131, 0.9, 1.2, 5.0, 1e300):
                for f in PAIR:
                    f(a, xs)
                    for x in edges:
                        f(a, x)

    def test_lgam1p_against_mpmath(self):
        for a, ref in LGAM1P.items():
            assert _lgam1p(a) == pytest.approx(ref, rel=2e-16, abs=1e-300), a

    def test_lgam1p_beats_gammaln_at_small_shape(self):
        # gammaln(1 + a) loses the digits of a that 1 + a rounds away
        ref = LGAM1P[1e-08]
        assert _lgam1p(1e-8) == pytest.approx(ref, rel=1e-15)
        assert abs(sp.gammaln(1.0 + 1e-8) - ref) > 1e-9 * abs(ref)

    def test_zeta_literals_are_scipys(self):
        # _ZETA[n - 2] = zeta(n), the Taylor coefficients behind _lgam2p
        n = np.arange(2.0, 32.0)
        assert len(specfun._ZETA) == n.size
        assert np.array_equal(specfun._ZETA, sp.zeta(n))

    def test_zeta_literals_are_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for n, zeta_n in enumerate(specfun._ZETA, start=2):
                assert zeta_n == float(mpmath.zeta(n)), n


# 40-digit mpmath values of Q, P, ln Gamma, psi, the shape terms and the
# normal cdf and quantile, with the ceilings of the last five rows:
# tests/make_gamma_table.py
GAMMA_TABLE = json.loads((Path(__file__).parent / "data" / "gamma_table.json").read_text())
_TINY = 2.2250738585072014e-308


def _rel_error(got, ref):
    """|got - ref| / ref, with ref floored at the smallest normal float,
    below which a result keeps its absolute, not its relative, digits."""
    return abs(got - ref) / max(ref, _TINY)


class TestGammaTable:
    """The pair and ln Gamma against the table. Where the kernel computes
    Q and P itself the ceiling is 4e-15, which scipy's Q misses by up to
    1.4e-14 above x = 1.1 and 3e-14 at a = 1/2 below. Where scipy
    computes them, x > 1.1 above a = 170, it is scipy's own error, from
    its rounded exponent a ln x - x - ln Gamma(a) or its Lanczos factor
    (x/(a + 6.02))^a: up to 2^-51 (a + |ln v|)."""

    @pytest.fixture(scope="class")
    def cells(self):
        rows = {}
        for a, x, q, p in GAMMA_TABLE["gamma"]:
            rows.setdefault(a, []).append((x, float(q), float(p)))
        return rows

    def test_grid_crosses_both_edges(self, cells):
        for a, rows in cells.items():
            xs = [x for x, _, _ in rows]
            assert min(xs) <= 1.1 < max(xs), a
            assert min(xs) < a <= max(xs) or a > 20.0, a

    def test_grid_holds_the_row_edges(self, cells):
        # below a = 9 every edge of the Taylor rows and the float below it
        for a, rows in cells.items():
            if a < 9.0:
                xs = {x for x, _, _ in rows}
                assert set(ROW_EDGE_XS.reshape(-1, 3)[:, :2].flat) <= xs, a

    def test_pair_within_ceilings(self, cells):
        for a, rows in cells.items():
            xs, qs, ps = (np.array(col) for col in zip(*rows))
            for f, refs in zip(PAIR, (qs, ps)):
                got = f(a, xs)
                for x, v, ref in zip(xs, got, refs):
                    ceiling = 4e-15
                    if a > 170.0 and x > 1.1:
                        ceiling = max(ceiling, 2.0 ** -51 * (a - math.log(max(ref, _TINY))))
                    assert _rel_error(v, ref) <= ceiling, (f.__name__, a, x, v, ref)

    def test_log_gamma_within_1e15(self):
        shapes = np.array([a for a, _ in GAMMA_TABLE["log_gamma"]])
        for a, got, (_, ref) in zip(shapes, _log_gamma_vec(shapes), GAMMA_TABLE["log_gamma"]):
            ref = float(ref)
            assert got == log_gamma(a), a
            assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref)), a


def _table_rows(name):
    """(arguments, references) of one table row, references as floats,
    +-inf past the float range."""
    args, refs = zip(*GAMMA_TABLE[name])
    return np.array(args), np.array([float(r) for r in refs])


def _within(got, refs, ceiling, scale):
    """Where got misses its reference by more than ceiling * scale, as
    (argument index, got, reference); an infinite reference asks for
    the infinity of its sign."""
    bad = []
    for i, (v, ref, sc) in enumerate(zip(got, refs, scale)):
        ok = v == ref if math.isinf(ref) else abs(v - ref) <= ceiling * sc
        if not ok:
            bad.append((i, v, ref))
    return bad


class TestShapeTable:
    """psi, log a - psi(a) and a^2 psi'(a + 1) against the table on
    [5e-324, 1e6], each within its stored ceiling (see
    tests/make_gamma_table.py), no looser than scipy.special's error on
    the same shapes."""

    CEILINGS = GAMMA_TABLE["ceilings"]

    def test_digamma(self):
        a, refs = _table_rows("digamma")
        got = [specfun._digamma(v) for v in a.tolist()]
        scale = np.maximum(1.0, np.abs(refs))
        assert _within(got, refs, self.CEILINGS["digamma"], scale) == []
        assert [digamma(v) for v in a.tolist()] == got

    def test_log_minus_digamma(self):
        a, refs = _table_rows("log_minus_digamma")
        got = _log_minus_digamma(a)
        scale = np.maximum(np.abs(refs), _TINY)
        assert _within(got, refs, self.CEILINGS["log_minus_digamma"], scale) == []

    def test_sq_trigamma(self):
        # the table holds a^2 psi'(a + 1), which _sq_trigamma adds to 1;
        # a^2 underflows below a ~ 1e-154
        a, refs = _table_rows("sq_trigamma1")
        got = specfun._shape_terms(a)[1]
        scale = np.maximum(np.abs(refs), _TINY) + 5e-324 / self.CEILINGS["sq_trigamma1"]
        assert _within(got, refs, self.CEILINGS["sq_trigamma1"], scale) == []
        np.testing.assert_array_equal(_sq_trigamma(a), 1.0 + got)

    @pytest.mark.parametrize("a", [5e-324, 1e-320, 4e-309, 1e-308, 1e300])
    def test_float_edges_raise_no_warning(self, a):
        # 1/a overflows below about 5.6e-309, where psi and log a - psi(a)
        # are past the float range too; n/a for n <= 10 overflows below
        # about 1.8e-307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalars = (specfun._digamma(a), _log_minus_digamma(a), _sq_trigamma(a))
            arrays = (_log_minus_digamma(np.array([a, 1.0])), _sq_trigamma(np.array([a, 1.0])))
        psi, log_minus, sq = scalars
        assert arrays[0][0] == log_minus and arrays[1][0] == sq
        if a > 1.0:
            # log a - psi(a) = 1/(2a) + 1/(12 a^2) + ..., and a^2 psi'(a)
            # = a + 1/2 + 1/(6a) + ...
            assert psi == pytest.approx(math.log(a), rel=1e-16)
            assert (log_minus, sq) == (0.5 / a, a)
            return
        # psi(a) = -1/a - gamma + O(a), and a^2 psi'(a) = 1 + O(a^2)
        assert sq == 1.0
        if a < 1.0 / np.finfo(float).max:
            assert (psi, log_minus) == (-np.inf, np.inf)
        else:
            assert psi == pytest.approx(-1.0 / a, rel=1e-15)
            assert log_minus == pytest.approx(1.0 / a, rel=1e-15)

    def test_scalars_are_their_array_entries(self):
        # the fits run these one shape at a time in Python floats, and
        # the profile scan over an array: both take the same steps
        a = np.concatenate([np.geomspace(5e-324, 1e300, 2000),
                            [0.5, 1.4999999999999998, 1.5, 2.5, 9.999999999999998, 10.0,
                             np.nan, np.inf]])
        log_minus, trig = specfun._shape_terms(a)
        log_gamma_values = _log_gamma_vec(a[np.isfinite(a)])
        for i, v in enumerate(a.tolist()):
            got = specfun._shape_terms(v)
            assert got[0].tobytes() == log_minus[i].tobytes(), v
            assert got[1].tobytes() == trig[i].tobytes(), v
        for v, entry in zip(a[np.isfinite(a)].tolist(), log_gamma_values):
            assert np.float64(specfun._log_gamma(v)).tobytes() == entry.tobytes(), v


def _backward_cf(a, x, n):
    """Legendre's continued fraction for Q(a, x) Gamma(a) e^x x^-a, n terms
    deep, summed from its tail."""
    t = 0.0
    for j in range(n, 0, -1):
        t = j * (a - j) / (x + (2 * j + 1 - a) + t)
    return 1.0 / (x + 1.0 - a + t)


def _forward_series(a, x, n):
    """1 + sum_{j=1}^{n-1} x^j/((a+1)...(a+j)), the igam series' sum."""
    term = total = 1.0
    for j in range(1, n):
        term *= x / (a + j)
        total += term
    return total


def _within_an_ulp(short, deep):
    return abs(short - deep) <= math.ulp(deep)


class TestTermCounts:
    """Each route's term count against the same recurrence 40 terms
    deeper: the terms the count leaves out move the value by at most an
    ulp."""

    @pytest.mark.parametrize("a", [1e-4, 0.131, 0.9, 1.0, 1.5, 3.7, 9.5, 19.9, 20.5, 50.0,
                                   100.0, 170.0])
    def test_continued_fraction(self, a):
        edge = 1.3 * a if a > 20.0 else max(a, 1.1)
        edge = math.nextafter(edge, math.inf)
        xs = np.array([edge * f for f in (1.0, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 20.0, 1e3)])
        terms = specfun._cf_terms(specfun._shape(a), xs)
        for x, n in zip(xs.tolist(), terms.tolist()):
            assert _within_an_ulp(_backward_cf(a, x, n), _backward_cf(a, x, n + 40)), (a, x, n)

    @pytest.mark.parametrize("a", [1e-4, 0.131, 0.9, 1.2, 3.0, 20.0, 40.0, 170.0])
    def test_igam_series(self, a):
        # each count is taken at its route's largest x: 1.1 for P; above
        # 1.1, a, or the window's edge, or for P 8 if larger; and the last
        # x <= 1.1 off the igamc_series route for Q
        k = specfun._shape(a)
        top = 0.7 * a if a > 20.0 else a
        tops = [(1.1, k.near_terms), (top, k.q_far_terms), (max(8.0, top), k.p_far_terms)]
        for x, n in tops:
            assert _within_an_ulp(_forward_series(a, x, n), _forward_series(a, x, n + 40)), (a, x)
        # Q's igam route sums by Horner
        coef = list(k.upper_coefs)
        q_top = min(a / 1.1, 1.1) if a > 0.55 else max(math.exp(-0.4 / a), 5e-324)
        deeper = coef[:]
        for _ in range(40):
            deeper.append(deeper[-1] / (a + len(deeper)))
        assert _within_an_ulp(np.polyval(coef[::-1], q_top), np.polyval(deeper[::-1], q_top)), a

    @pytest.mark.parametrize("a", [1e-4, 0.131, 0.9, 1.2])
    def test_igamc_series(self, a):
        # the sum runs by Horner over (-1)^n/(n! (a + n)), n = 1..count
        k = specfun._shape(a)
        n = len(k.igamc_coefs)
        fac, deeper = 1.0, []
        for j in range(1, n + 41):
            fac /= -j
            deeper.append(fac / (a + j))
        assert k.igamc_coefs == deeper[n - 1::-1]

        def total(coef):
            s = 0.0
            for c in reversed(coef):
                s = s * 1.1 + c
            return s * 1.1

        assert _within_an_ulp(total(deeper[:n]), total(deeper)), a

    @pytest.mark.parametrize("a", [1e-4, 0.131, 0.9, 1.0, 1.5, 3.7])
    def test_taylor_rows(self, a):
        # each row the shape takes, at both ends of the x it serves,
        # against the same row 40 orders longer by the same recurrence;
        # its order-0 term, the continued fraction at the anchor, against
        # the fraction 40 terms past its count
        k = specfun._shape(a)
        edges = specfun._ROW_EDGES
        for i, x0 in enumerate(specfun._ROW_ANCHORS):
            top = math.nextafter(edges[i + 1], 0.0)
            if top < a:
                continue
            row = k.row(i)
            depth = specfun._cf_count(k, x0)
            assert _within_an_ulp(row[-1], _backward_cf(a, x0, depth + 40)), (a, i)
            f = row[::-1]
            for n in range(len(f) - 1, len(f) + 39):
                f.append(((x0 - a - n) * f[n] + f[n - 1]) / (x0 * (n + 1)))
            low = max(edges[i], math.nextafter(1.1, 2.0), a)
            for x in (low, top):
                short = np.polyval(row, x - x0)
                deep = np.polyval(f[::-1], x - x0)
                assert _within_an_ulp(short, deep), (a, i, x)


# deep-tail grid: flat regions are where an absolute residual criterion lies
TAIL_SHAPES = [0.05, 0.131, 0.5, 1.0, 2.0, 7.3, 50.0]
TAIL_PROBS = [1e-15, 1e-12, 1e-9, 1e-4, 0.1, math.exp(-1.0), 0.5, 0.9, 0.999,
              1.0 - 1e-9, 1.0 - 1e-12]

# Roots x of Q(a, x) = p and P(a, x) = s on the TAIL_SHAPES x TAIL_PROBS grid,
# in TAIL_PROBS order, pinned offline with mpmath at 50 digits: findroot on
# gammainc(a, x, regularized=True) (upper) and gammainc(a, 0, x,
# regularized=True) (lower) in t = ln x, with every residual below 1e-30
# relative. The probabilities are the exact binary values of the floats.
Q_ROOTS = {
    0.05: [
        28.360249007335996, 21.697659250396554, 15.116740080176799,
        4.6241008221004057, 0.076317113909188453, 6.064298436509371e-5,
        5.5738784407462475e-7, 5.8446320572864887e-21, 5.8446320572866483e-61,
        5.8446287513378569e-181, 5.8420467343590646e-241,
    ],
    0.131: [
        29.596614405776108, 22.90387511462144, 16.279289895774185,
        5.6136724879595583, 0.3792492622155748, 0.019056448418010546,
        0.0031378330930977212, 1.4446972260292889e-8, 7.8091049731498012e-24,
        1.2333162379930054e-69, 1.5496650743017282e-92,
    ],
    0.5: [
        32.215231760061829, 25.422063955909078, 18.662446525681165,
        7.5683526133116985, 1.3527717270477072, 0.40540743939586956,
        0.22746821155978638, 0.0078953870467156089, 7.8539857463124633e-7,
        7.8539811897229488e-19, 7.8536341506508976e-25,
    ],
    1.0: [
        34.538776394910685, 27.631021115928548, 20.723265836946411,
        9.2103403719761827, 2.3025850929940456, 0.99999999999999997,
        0.69314718055994531, 0.10536051565782628, 0.0010005003335835344,
        9.9999997221806851e-10, 9.9997787828037847e-13,
    ],
    2.0: [
        38.207648230599483, 31.099873195769151, 23.939727865573973,
        11.756371222495419, 3.889720169867429, 2.1461932206205825,
        1.6783469900166607, 0.53181160838961195, 0.045402017769489577,
        4.4722025597905566e-5, 1.4141985865206263e-6,
    ],
    7.3: [
        52.464901120830362, 44.550226324486156, 36.405722307149806,
        21.796224475993704, 10.905489412610778, 7.8950635491909528,
        6.96950911787562, 4.1214137935582182, 1.6518810695503864,
        0.20969550339397603, 0.080142513524583182,
    ],
    50.0: [
        128.3174868335762, 116.9052839796039, 104.658799353271,
        80.659328479523716, 59.249001905531052, 52.082176258376364,
        49.667064617994228, 41.179067906178572, 30.958969603468313,
        18.454648952328671, 15.042074384368722,
    ],
}
P_ROOTS = {
    0.05: [
        5.8446320572867329e-301, 5.8446320572866766e-241, 5.8446320572866414e-181,
        5.8446320572865651e-81, 5.8446320572865211e-21, 1.2046684550517812e-9,
        5.5738784407462475e-7, 0.076317113909188504, 2.7364585987286756,
        15.116740106874814, 21.697680480762633,
    ],
    0.131: [
        1.9478155369948066e-115, 1.549926788278627e-92, 1.2333165042568958e-69,
        1.8155719924638463e-31, 1.4446972260292919e-8, 0.00030078422701608579,
        0.0031378330930977212, 0.37924926221557493, 3.6343881311569795,
        16.279289922694834, 22.903896458367359,
    ],
    0.5: [
        7.8539816339744843e-31, 7.8539816339744828e-25, 7.8539816339744841e-19,
        7.8539816750978358e-9, 0.0078953870467156133, 0.11459804398173594,
        0.22746821155978638, 1.3527717270477075, 5.4137830853313653,
        18.66244655325936, 25.422085666224587,
    ],
    1.0: [
        1.0000000000000006e-15, 1.0000000000005e-12, 1.0000000005000001e-9,
        0.00010000500033335834, 0.10536051565782631, 0.45867514538708191,
        0.69314718055994531, 2.3025850929940459, 6.9077552789821362,
        20.723265865228343, 27.631043237893359,
    ],
    2.0: [
        4.4721360216662476e-8, 1.4142142290401938e-6, 4.472202623032764e-5,
        0.014209237621777501, 0.53181160838961204, 1.2850732075235632,
        1.6783469900166607, 3.8897201698674293, 9.2334134764515847,
        23.939727895037286, 31.099896029053797,
    ],
    7.3: [
        0.030926589273539124, 0.080142758754724968, 0.20969550422738371,
        1.1334730036229819, 4.1214137935582185, 6.119577055126131,
        6.96950911787562, 10.905489412610778, 18.535037027899158,
        36.405722341130704, 44.550251985685796,
    ],
    50.0: [
        12.458236001841268, 15.04208379308092, 18.454648968590991,
        27.862299225250847, 41.179067906178573, 47.327837493174949,
        49.667064617994228, 59.249001905531053, 74.724626389519353,
        104.65879940567221, 116.90532168255424,
    ],
}


class TestUpperInverse:
    def test_exponential_case(self):
        # a=1 reduces to -ln p; the residual target lives in p-space, so
        # x-space accuracy is the p-residual divided by the local density
        assert inv_reg_upper_gamma(1.0, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-9)
        assert inv_reg_upper_gamma(1.0, 0.01) == pytest.approx(math.log(100.0), rel=1e-9)

    def test_p_one_maps_to_zero(self):
        assert inv_reg_upper_gamma(2.0, 1.0) == 0.0

    @pytest.mark.parametrize("a", TAIL_SHAPES)
    def test_round_trip_relative(self, a):
        for p in TAIL_PROBS:
            x = inv_reg_upper_gamma(a, p)
            assert reg_upper_gamma(a, x) == pytest.approx(p, rel=1e-9), (a, p)

    @pytest.mark.parametrize("a", TAIL_SHAPES)
    def test_against_scipy_oracle(self, a):
        # the reference is the mpmath root table, not the scipy inverse
        # that inv_reg_upper_gamma wraps
        for p, ref in zip(TAIL_PROBS, Q_ROOTS[a]):
            assert inv_reg_upper_gamma(a, p) == pytest.approx(ref, rel=1e-7), (a, p)

    def test_rejects_p_zero(self):
        with pytest.raises(ValueError, match=r"requires 0 < p <= 1, got 0\.0"):
            inv_reg_upper_gamma(2.0, 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="requires a > 0"):
            inv_reg_upper_gamma(-1.0, 0.5)


class TestLowerInverse:
    @pytest.mark.parametrize("a", TAIL_SHAPES)
    def test_round_trip_relative(self, a):
        for s in TAIL_PROBS:
            x = inv_reg_lower_gamma(a, s)
            assert reg_lower_gamma(a, x) == pytest.approx(s, rel=1e-9), (a, s)

    @pytest.mark.parametrize("a", TAIL_SHAPES)
    def test_against_scipy_oracle(self, a):
        # the reference is the mpmath root table, not the scipy inverse
        # that inv_reg_lower_gamma wraps
        for s, ref in zip(TAIL_PROBS, P_ROOTS[a]):
            assert inv_reg_lower_gamma(a, s) == pytest.approx(ref, rel=1e-7), (a, s)

    def test_s_zero_maps_to_zero(self):
        assert inv_reg_lower_gamma(3.0, 0.0) == 0.0

    def test_inverses_are_complements(self):
        # invP(a, s) = invQ(a, 1-s) wherever 1-s is exact
        for a in (0.131, 2.0):
            for s in (0.5, 0.75, 0.9):
                assert inv_reg_lower_gamma(a, s) == pytest.approx(
                    inv_reg_upper_gamma(a, 1.0 - s), rel=1e-12
                )
