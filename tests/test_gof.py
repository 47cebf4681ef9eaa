"""Information criteria and EDF statistic tests.

Closed forms pin the n=1 plain statistics; a probability-integral
simulation under a known true model checks that the plain statistics
calibrate against the standard 5% critical values; the modified variant
is pinned by frozen flood-study values computed once and kept as a
regression anchor.
"""

import json
import math
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from oddsgamma import DataError, get_model, gof, gof_report, info_criteria, mle_fit
from oddsgamma.expgamma import OEGammaDist
from oddsgamma.gof import GofReport, anderson_darling, cramer_von_mises

# 40-digit mpmath values of the normal quantile and cdf, with their
# ceilings: tests/make_gamma_table.py
TABLE = json.loads((Path(__file__).parent / "data" / "gamma_table.json").read_text())
_TINY = 2.2250738585072014e-308


class TestNormalTable:
    """The normal quantile (Wichura's AS 241, as the standard library
    evaluates it) and cdf (erfc(-y/sqrt(2))/2) that the modified EDF
    statistics use, against the table within its stored ceilings."""

    def test_quantile(self):
        p, refs = (np.array(col, dtype=float) for col in zip(*TABLE["ndtri"]))
        got = gof._ndtri(p)
        # relative, and absolute at p = 1/2, where the quantile is 0
        err = np.abs(got - refs) / np.where(refs == 0.0, 1.0, np.abs(refs))
        assert err.max() <= TABLE["ceilings"]["ndtri"], p[err.argmax()]
        assert got[p == 0.5].tolist() == [0.0]

    def test_quantile_is_normal_dist_inv_cdf(self):
        # the same bits as the public method whose function _ndtri maps
        p = np.array([row[0] for row in TABLE["ndtri"]], dtype=float)
        want = [NormalDist().inv_cdf(v) for v in p.tolist()]
        assert gof._ndtri(p).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    def test_cdf(self):
        # rounding y / sqrt(2) moves erfc(-y / sqrt(2)) by about y^2 ulp;
        # the table reaches y = -38, where Phi is subnormal
        y, refs = (np.array(col, dtype=float) for col in zip(*TABLE["ndtr"]))
        got = gof._ndtr(y)
        err = np.abs(got - refs) / (np.maximum(1.0, y * y) * np.maximum(refs, _TINY))
        assert err.max() <= TABLE["ceilings"]["ndtr"], y[err.argmax()]

    def test_cdf_inverts_the_quantile(self):
        p = np.concatenate([np.geomspace(1e-12, 0.5, 50), 1.0 - np.geomspace(1e-12, 0.5, 50)])
        np.testing.assert_allclose(gof._ndtr(gof._ndtri(p)), p, rtol=1e-12, atol=0.0)


class TestInfoCriteria:
    def test_lockstep_formulas(self):
        ll, k, n = -249.515, 3, 72
        aic, aicc, bic, hqic = info_criteria(ll, k, n)
        assert aic == pytest.approx(2 * k - 2 * ll, abs=1e-12)
        assert aicc == pytest.approx(aic + 2 * k * (k + 1) / (n - k - 1), abs=1e-12)
        assert bic == pytest.approx(k * math.log(n) - 2 * ll, abs=1e-12)
        assert hqic == pytest.approx(2 * k * math.log(math.log(n)) - 2 * ll, abs=1e-12)

    def test_frozen_point(self):
        aic, aicc, bic, hqic = info_criteria(0.0, 1, 100)
        assert aic == 2.0
        assert aicc == pytest.approx(2.0408163265306123, abs=1e-15)
        assert bic == pytest.approx(4.605170185988092, abs=1e-15)
        assert hqic == pytest.approx(3.0543592516158022, abs=1e-15)

    def test_zero_parameters_have_no_penalty(self):
        aic, aicc, bic, hqic = info_criteria(-10.0, 0, 50)
        assert aic == aicc == bic == hqic == 20.0

    def test_aicc_needs_enough_points(self):
        with pytest.raises(ValueError, match=r"AICc undefined for n <= k \+ 1 \(n=4, k=3\)"):
            info_criteria(-1.0, 3, 4)

    def test_hqic_needs_three_points(self):
        with pytest.raises(ValueError, match=r"HQIC undefined for n < 3 \(n=2\)"):
            info_criteria(-1.0, 0, 2)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="parameter count must be >= 0"):
            info_criteria(-1.0, -2, 10)


class TestPlainStatistics:
    def test_single_point_closed_forms(self):
        # n=1, u=1/2: A2 = -1 - (ln u + ln(1-u)) = 2 ln 2 - 1, W2 = 1/12
        assert anderson_darling([0.5]) == pytest.approx(2 * math.log(2) - 1, abs=1e-15)
        assert cramer_von_mises([0.5]) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_order_invariance(self):
        rng = np.random.default_rng(21)
        u = rng.uniform(0.01, 0.99, size=40)
        shuffled = rng.permutation(u)
        assert anderson_darling(u) == anderson_darling(shuffled)
        assert cramer_von_mises(u) == cramer_von_mises(shuffled)

    def test_perfect_grid_minimizes_w2(self):
        # the plain W2 lower bound 1/(12n) is attained on the midpoint grid
        n = 25
        grid = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        assert cramer_von_mises(grid) == pytest.approx(1.0 / (12.0 * n), abs=1e-15)

    def test_extreme_values_inflate_a2(self):
        # one point at 1e-12 adds about -ln(1e-12)/n ~ 1.4 to A2
        good = anderson_darling(np.linspace(0.05, 0.95, 20))
        bad = anderson_darling(np.concatenate(
            [np.linspace(0.05, 0.95, 19), [1e-12]]))
        assert bad > good + 1.0

    def test_subnormal_value_takes_its_own_log(self):
        # the log of every positive double is finite: a subnormal PIT
        # value enters A2 as it is, with no clamp and no warning
        z = np.array([1e-320, 0.5, 0.9])
        logs = np.log(z) + np.log(1.0 - z[::-1])
        plain = float(-3 - np.add.reduce(np.array([1.0, 3.0, 5.0]) * logs) / 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert anderson_darling(z) == plain
        assert np.log(1e-320) < np.log(1e-300)


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="at least one probability value"):
            anderson_darling([])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, np.nan, np.inf])
    def test_out_of_open_interval_rejected(self, bad):
        with pytest.raises(DataError, match="probability value out of \\(0,1\\) at index 1"):
            cramer_von_mises([0.5, bad, 0.7])

    def test_message_prints_the_plain_number(self):
        with pytest.raises(DataError) as err:
            anderson_darling(np.array([0.5, 1.0]))
        assert str(err.value) == "probability value out of (0,1) at index 1: 1.0"

    def test_modified_needs_two_values(self):
        with pytest.raises(DataError, match="requires at least 2 values"):
            anderson_darling([0.5], modified=True)

    def test_modified_rejects_degenerate_values(self):
        with pytest.raises(DataError, match="zero variance after transform"):
            cramer_von_mises([0.3, 0.3, 0.3], modified=True)


class TestModifiedVariant:
    def test_standardization_absorbs_location_scale(self):
        # values compressed into (0.2, 0.8) blow the plain statistic up,
        # while the normal-transform standardization mostly removes the
        # location/scale distortion before scoring
        rng = np.random.default_rng(33)
        u = rng.uniform(0.0, 1.0, size=200)
        shifted = u * 0.6 + 0.2
        a_plain = anderson_darling(shifted)
        a_mod = anderson_darling(shifted, modified=True)
        assert a_plain > 5.0
        assert a_mod < a_plain / 3.0

    def test_multipliers_applied(self):
        # at large n the modified statistic approaches the plain statistic
        # of the standardized values; at small n the multiplier shows up
        u = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        n = u.size
        a_mod = anderson_darling(u, modified=True)
        w_mod = cramer_von_mises(u, modified=True)
        assert a_mod > 0.0 and w_mod > 0.0
        # recompute the plain forms of the standardized values directly
        from scipy import special
        y = special.ndtri(u)
        z = np.sort(special.ndtr((y - y.mean()) / y.std(ddof=1)))
        coeff = 2.0 * np.arange(1, n + 1) - 1.0
        a_plain = -n - np.sum(coeff * (np.log(z) + np.log(1 - z[::-1]))) / n
        w_plain = np.sum((z - coeff / (2 * n)) ** 2) + 1 / (12 * n)
        assert a_mod == pytest.approx(a_plain * (1 + 0.75 / n + 2.25 / n ** 2), rel=1e-12)
        assert w_mod == pytest.approx(w_plain * (1 + 0.5 / n), rel=1e-12)


class TestGofReport:
    FROZEN = {
        "m1": (0.75185869, 0.13061260),
        "m2": (0.45145970, 0.07568377),
        "m6": (0.78544220, 0.13798966),
    }

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    def test_flood_statistics_frozen(self, fits, alias):
        _, rep, _ = fits[alias]
        a_ref, w_ref = self.FROZEN[alias]
        assert isinstance(rep, GofReport)
        assert rep.a_squared == pytest.approx(a_ref, abs=5e-6)
        assert rep.w_squared == pytest.approx(w_ref, abs=5e-6)
        assert rep.n == 72

    def test_criteria_consistent_with_info_criteria(self, fits):
        res, rep, _ = fits["m2"]
        aic, aicc, bic, hqic = info_criteria(res.loglik, rep.k, rep.n)
        assert (rep.aic, rep.aicc, rep.bic, rep.hqic) == (aic, aicc, bic, hqic)

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    def test_edf_statistics_are_the_public_functions(self, flood_values, alias):
        # gof_report standardizes the PIT values once for both statistics;
        # each must keep the bits of its public function, on the flood
        # data and on 20 seeded resamples of the m2 fit
        model = get_model(alias)
        samples = [flood_values] + [
            OEGammaDist(0.131, 0.179, 0.539).sample(72, np.random.default_rng(seed))
            for seed in range(20)]
        for x in samples:
            res = mle_fit(model, x)
            rep = gof_report(model, x, res.theta_hat, res.loglik)
            u = model.cdf(np.sort(x), np.array(res.theta_hat))
            assert rep.a_squared == anderson_darling(u, modified=True)
            assert rep.w_squared == cramer_von_mises(u, modified=True)

    def test_reported_k_is_model_k(self, fits):
        assert fits["m1"][1].k == 3  # displayed parameters, not optimized ones
        assert fits["m6"][1].k == 2

    def test_empty_data_rejected(self, fits):
        with pytest.raises(DataError, match="gof_report requires at least one"):
            gof_report(get_model("m2"), np.array([]), (1.0, 1.0, 1.0), -1.0)


class TestCalibration:
    def test_plain_statistics_under_the_true_model(self):
        # PIT values of samples from the true law are uniform, so the
        # plain statistics should stay below the 5% simple-hypothesis
        # critical values in at least ~95% of replications
        dist = OEGammaDist(0.131, 0.179, 0.539)
        a_pass = w_pass = 0
        reps = 100
        for i in range(reps):
            x = dist.sample(500, np.random.default_rng(5000 + i))
            u = np.clip(dist.cdf(np.sort(x)), 1e-15, 1 - 1e-15)
            if anderson_darling(u) < 2.492:
                a_pass += 1
            if cramer_von_mises(u) < 0.461:
                w_pass += 1
        assert a_pass >= 90
        assert w_pass >= 90
