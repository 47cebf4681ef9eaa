"""Model registry and descriptor tests.

Each fittable model's log-density and cdf are checked against an
independent reference (scipy.stats for the two competitors, the
generic survival-odds family for the proposed model), and every
analytic score is validated against central finite differences of its
own log-likelihood.
"""

import numpy as np
import pytest
from scipy import stats

from oddsgamma import DataError, get_model, list_models
from oddsgamma.expgamma import OEGammaDist
from oddsgamma.family import GammaRatioDist
from oddsgamma.base import make_exponential
from oddsgamma.models import (
    FittableModel,
    MODEL_ALIASES,
    oe_gamma_model,
    weibull_model,
    zb_gamma_exp_model,
)


class TestRegistry:
    def test_aliases_resolve(self):
        assert get_model("m1").name == "zb-gamma-exp"
        assert get_model("m2").name == "oe-gamma"
        assert get_model("m6").name == "weibull"

    def test_full_names_resolve(self):
        for full in ("zb-gamma-exp", "oe-gamma", "weibull"):
            assert get_model(full).name == full

    def test_lookup_is_case_insensitive(self):
        assert get_model("M2").name == "oe-gamma"
        assert get_model("WEIBULL").name == "weibull"

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(KeyError, match="unknown model 'm7'"):
            get_model("m7")
        with pytest.raises(KeyError, match="m1, m2, m6"):
            get_model("nope")

    def test_list_models_sorted(self):
        names = list_models()
        assert names == sorted(names)
        assert set(names) == {"oe-gamma", "weibull", "zb-gamma-exp"}

    def test_alias_table_targets_exist(self):
        for target in MODEL_ALIASES.values():
            assert target in list_models()


class TestDescriptor:
    def test_k_below_dimension_rejected(self):
        with pytest.raises(ValueError, match="reported k cannot be below"):
            FittableModel(
                name="bad", k=1,
                param_names=("a", "b"),
                log_pdf=lambda x, t: x,
                cdf=lambda x, t: x,
                initial_guess=lambda d: np.ones(2),
            )

    def test_n_free_and_k(self):
        assert oe_gamma_model().n_free == 3
        assert oe_gamma_model().k == 3
        assert zb_gamma_exp_model().n_free == 2
        assert zb_gamma_exp_model().k == 3
        assert weibull_model().n_free == 2
        assert weibull_model().k == 2

    def test_default_display_rows(self):
        model = weibull_model()
        rows = model.display_params([0.9, 0.086], [0.07, 0.01])
        assert rows == [("shape", 0.9, 0.07), ("rate", 0.086, 0.01)]

    def test_zb_display_split(self):
        # the gamma competitor shows its fitted rate rho as beta*lambda
        # with lambda pinned by convention, so lambda carries no error
        model = zb_gamma_exp_model()
        rows = model.display_params([0.8, 0.068], [0.1, 0.012])
        names = [r[0] for r in rows]
        assert names == ["alpha", "beta", "lambda"]
        alpha_row, beta_row, lam_row = rows
        assert alpha_row[1] == pytest.approx(0.8)
        assert lam_row[1] == pytest.approx(1.96)
        assert lam_row[2] == 0.0
        assert beta_row[1] * lam_row[1] == pytest.approx(0.068, rel=1e-12)
        assert beta_row[2] * lam_row[1] == pytest.approx(0.012, rel=1e-12)


class TestZbGammaExp:
    THETA = (0.84, 0.0687)

    def test_log_pdf_matches_gamma_reference(self):
        x = np.array([0.5, 1.0, 5.0, 27.0, 64.0])
        ours = zb_gamma_exp_model().log_pdf(x, self.THETA)
        ref = stats.gamma.logpdf(x, self.THETA[0], scale=1.0 / self.THETA[1])
        assert np.allclose(ours, ref, rtol=1e-12)

    def test_cdf_matches_gamma_reference(self):
        x = np.array([0.5, 1.0, 5.0, 27.0, 64.0])
        ours = zb_gamma_exp_model().cdf(x, self.THETA)
        ref = stats.gamma.cdf(x, self.THETA[0], scale=1.0 / self.THETA[1])
        assert np.allclose(ours, ref, rtol=1e-12)

    def test_outside_support(self):
        model = zb_gamma_exp_model()
        assert model.log_pdf(np.array([-1.0, 0.0]), self.THETA).tolist() == [
            -np.inf, -np.inf]
        assert model.cdf(np.array([-1.0, 0.0]), self.THETA).tolist() == [0.0, 0.0]

    def test_cdf_nan_in_nan_out(self):
        got = zb_gamma_exp_model().cdf(np.array([np.nan, 1.0]), self.THETA)
        assert np.isnan(got[0]) and 0.0 < got[1] < 1.0

    def test_log_pdf_nan_in_nan_out(self):
        got = zb_gamma_exp_model().log_pdf(np.array([np.nan, 1.0, 0.0]), self.THETA)
        assert np.isnan(got[0]) and np.isfinite(got[1]) and got[2] == -np.inf

    def test_initial_guess_moment_match(self, flood_values):
        a0, rho0 = zb_gamma_exp_model().initial_guess(flood_values)
        assert a0 > 0 and rho0 > 0
        mean = flood_values.mean()
        var = flood_values.var(ddof=1)
        assert a0 == pytest.approx(mean * mean / var, rel=1e-12)
        assert rho0 == pytest.approx(a0 / mean, rel=1e-12)


class TestWeibull:
    THETA = (0.9, 0.086)

    def test_log_pdf_matches_reference(self):
        x = np.array([0.3, 1.0, 4.0, 12.0, 40.0])
        ours = weibull_model().log_pdf(x, self.THETA)
        ref = stats.weibull_min.logpdf(x, self.THETA[0], scale=1.0 / self.THETA[1])
        assert np.allclose(ours, ref, rtol=1e-12)

    def test_cdf_matches_reference(self):
        x = np.array([0.3, 1.0, 4.0, 12.0, 40.0])
        ours = weibull_model().cdf(x, self.THETA)
        ref = stats.weibull_min.cdf(x, self.THETA[0], scale=1.0 / self.THETA[1])
        assert np.allclose(ours, ref, rtol=1e-12)

    def test_outside_support(self):
        model = weibull_model()
        assert np.all(model.log_pdf(np.array([-2.0, 0.0]), self.THETA) == -np.inf)
        assert np.all(model.cdf(np.array([-2.0, 0.0]), self.THETA) == 0.0)

    def test_cdf_nan_in_nan_out(self):
        got = weibull_model().cdf(np.array([np.nan, 1.0]), self.THETA)
        assert np.isnan(got[0]) and 0.0 < got[1] < 1.0

    def test_log_pdf_nan_in_nan_out(self):
        got = weibull_model().log_pdf(np.array([np.nan, 1.0, 0.0]), self.THETA)
        assert np.isnan(got[0]) and np.isfinite(got[1]) and got[2] == -np.inf

    def test_initial_guess_rank_regression(self, flood_values):
        k0, lam0 = weibull_model().initial_guess(flood_values)
        assert 0.5 < k0 < 2.0
        assert 0.01 < lam0 < 1.0

    def test_initial_guess_single_point(self):
        k0, lam0 = weibull_model().initial_guess([4.0])
        assert k0 == 1.0
        assert lam0 == pytest.approx(0.25)


class TestProposedModel:
    THETA = (0.131, 0.179, 0.539)

    def test_log_pdf_delegates_to_distribution(self, flood_values):
        ours = oe_gamma_model().log_pdf(flood_values, self.THETA)
        ref = OEGammaDist(*self.THETA).log_pdf(flood_values)
        assert np.array_equal(ours, ref)

    def test_cdf_matches_generic_family(self):
        x = np.array([0.5, 2.0, 9.0, 30.0])
        ours = oe_gamma_model().cdf(x, self.THETA)
        generic = GammaRatioDist(self.THETA[0], self.THETA[1],
                                 make_exponential(self.THETA[2]))
        ref = np.array([generic.cdf(v) for v in x])
        assert np.allclose(ours, ref, rtol=1e-11)

    def test_initial_guess_uses_median_rate(self, flood_values):
        a0, b0, lam0 = oe_gamma_model().initial_guess(flood_values)
        assert (a0, b0) == (0.5, 1.0)
        assert lam0 == pytest.approx(1.0 / np.median(flood_values), rel=1e-12)


def _fd_gradient(fun, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = h * max(1.0, abs(theta[i]))
        up = theta.copy();  up[i] += step
        dn = theta.copy();  dn[i] -= step
        grad[i] = (fun(up) - fun(dn)) / (2.0 * step)
    return grad


class TestAnalyticScores:
    CASES = [
        ("m1", (0.84, 0.0687)),
        ("m1", (2.3, 0.4)),
        ("m2", (0.131, 0.179, 0.539)),
        ("m2", (0.7, 0.9, 0.12)),
        ("m6", (0.9, 0.086)),
        ("m6", (1.7, 0.21)),
    ]

    @pytest.mark.parametrize("alias,theta", CASES)
    def test_loglik_consistent_with_log_pdf(self, flood_values, alias, theta):
        model = get_model(alias)
        ll, _ = model.analytic_score(flood_values, np.asarray(theta))
        assert ll == pytest.approx(
            float(np.sum(model.log_pdf(flood_values, theta))), rel=1e-12)

    @pytest.mark.parametrize("alias,theta", CASES)
    def test_gradient_matches_finite_differences(self, flood_values, alias, theta):
        model = get_model(alias)

        def ll_only(t):
            return model.analytic_score(flood_values, t)[0]

        _, grad = model.analytic_score(flood_values, np.asarray(theta))
        fd = _fd_gradient(ll_only, theta)
        scale = max(1.0, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / scale <= 1e-6


class TestDataValidation:
    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    def test_empty_data_rejected(self, alias):
        model = get_model(alias)
        with pytest.raises(DataError, match="at least one observation"):
            model.initial_guess(np.array([]))

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    def test_nonpositive_data_rejected(self, alias):
        model = get_model(alias)
        with pytest.raises(DataError, match="finite and strictly positive"):
            model.initial_guess(np.array([1.0, -2.0, 3.0]))

    def test_score_rejects_nan(self):
        model = get_model("m1")
        with pytest.raises(DataError, match="finite and strictly positive"):
            model.analytic_score(np.array([1.0, np.nan]), (1.0, 1.0))
