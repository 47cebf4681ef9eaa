"""Model registry and descriptor tests.

Each fittable model's log-density and cdf are checked against an
independent reference (scipy.stats for the two competitors, the
generic survival-odds family for the proposed model), and every
analytic score is validated against central finite differences of its
own log-likelihood.
"""


import numpy as np
import pytest
from scipy import special, stats

from oddsgamma import (
    DataError,
    get_model,
    gof_report,
    list_models,
    mle_fit,
    oe_loglik_and_score,
    standard_errors,
)
from oddsgamma.fit import negative_log_lik
from oddsgamma import data as data_module
from oddsgamma import expgamma as expgamma_module
from oddsgamma import fit as fit_module
from oddsgamma import gof as gof_module
from oddsgamma.expgamma import OEGammaDist
from oddsgamma.family import GammaRatioDist
from oddsgamma.base import make_exponential
from oddsgamma import models
from oddsgamma.models import (
    FittableModel,
    MODEL_ALIASES,
    oe_gamma_model,
    weibull_model,
    zb_gamma_exp_model,
)
from oddsgamma.specfun import _shape_terms


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
                sf=lambda x, t: 1.0 - x,
                analytic_score=lambda x, t: (0.0, np.zeros(2), np.zeros((2, 2))),
                exact_mle=lambda x: (np.ones(2), 0, None),
            )

    @pytest.mark.parametrize("missing", ["analytic_score", "exact_mle"])
    def test_likelihood_equations_are_required(self, missing):
        fields = dict(name="bare", k=1, param_names=("a",), log_pdf=None, cdf=None, sf=None,
                      analytic_score=None, exact_mle=None)
        del fields[missing]
        with pytest.raises(TypeError, match=missing):
            FittableModel(**fields)

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


class TestScalarSolves:
    """The fits solve one shape, and profile one lambda, at a time: a
    scalar comes back as numpy scalars with the bits of a one-entry
    array."""

    @pytest.mark.parametrize("a", [1e-300, 0.01, 0.5, 9.999, 10.0, 1e8, np.nan])
    def test_gamma_shape_scalar_is_its_array_entry(self, a):
        s = float(_shape_terms(a)[0])
        got, steps, solved = models._gamma_shape(s)
        entry, array_steps, array_solved = models._gamma_shape(np.array([s]))
        assert type(got) is np.float64
        assert got.tobytes() == entry[0].tobytes()
        assert (steps, solved) == (array_steps, array_solved)

    @pytest.mark.parametrize("lam", [0.01, 0.5389212676467791, 3.0, 50.0])
    def test_oe_profile_scalar_is_its_array_entry(self, flood_values, lam):
        got = models._oe_profile(flood_values, lam)
        entries = models._oe_profile(flood_values, np.array([lam]))
        for value, entry in zip(got, entries):
            assert np.ndim(value) == 0 and entry.shape == (1,)
            assert np.float64(value).tobytes() == entry[0].tobytes()


class TestSurvival:
    """sf is 1 - cdf in the body and keeps its digits where cdf rounds to 1."""

    @pytest.mark.parametrize("alias, theta, ref", [
        ("m1", (0.84, 0.0687), lambda x: stats.gamma.sf(x, 0.84, scale=1.0 / 0.0687)),
        # odds w = e^(-lam x) to 1e-70 here, and P(a, g) = g^a / Gamma(a + 1)
        # to O(g) for g = beta w ~ 1e-71
        ("m2", (0.131, 0.179, 0.539),
         lambda x: np.exp(0.131 * (np.log(0.179) - 0.539 * x) - special.gammaln(1.131))),
        ("m6", (0.9, 0.086), lambda x: np.exp(-((0.086 * x) ** 0.9))),
    ])
    def test_sf_against_cdf_and_tail(self, alias, theta, ref):
        model = get_model(alias)
        body = np.array([0.5, 5.0, 27.0, 64.0])
        assert np.allclose(model.sf(body, theta), 1.0 - model.cdf(body, theta),
                           rtol=1e-12, atol=1e-15)
        got = model.sf(np.array([-1.0, 0.0, np.nan]), theta)
        assert got[:2].tolist() == [1.0, 1.0] and np.isnan(got[2])
        tail = np.array([300.0, 600.0])
        assert np.allclose(model.sf(tail, theta), ref(tail), rtol=1e-12, atol=0.0)


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
        ll = model.analytic_score(flood_values, np.asarray(theta))[0]
        assert ll == pytest.approx(
            float(np.sum(model.log_pdf(flood_values, theta))), rel=1e-12)

    @pytest.mark.parametrize("alias,theta", CASES)
    def test_gradient_matches_finite_differences(self, flood_values, alias, theta):
        model = get_model(alias)

        def ll_only(t):
            return model.analytic_score(flood_values, t)[0]

        grad = model.analytic_score(flood_values, np.asarray(theta))[1]
        fd = _fd_gradient(ll_only, theta)
        scale = max(1.0, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / scale <= 1e-6


def _m2_h_ll_sign_slip(x, theta, H):
    """H with + beta sum y w (1 + w), the last term of H_ll, written
    with a minus."""
    _, beta, lam = theta
    y = lam * x
    w = 1.0 / np.expm1(y)
    out = H.copy()
    out[2, 2] -= 2.0 * beta * float(np.sum(y * w * (1.0 + w)))
    return out


def _m6_h_kl_sign_slip(x, theta, H):
    """H with H_kl = k (n - sum t (1 + u)) written as k (n + sum t (1 + u))."""
    k, lam = theta
    u = k * np.log(lam * x)
    out = H.copy()
    out[0, 1] = out[1, 0] = k * (x.size + float(np.sum(np.exp(u) * (1.0 + u))))
    return out


class TestAnalyticHessians:
    """Each shipped score returns the Hessian in log coordinates,
    phi = log theta, from its one pass over the data. It must match
    central differences of the log-coordinate gradient theta * score,
    a one-sign slip in an entry must fail that check (in the style of
    acceptance criterion 8), and every entry stays finite where a
    parameter sits near the float limits, where the product
    theta_i theta_j d2 loglik / d theta_i d theta_j overflows."""

    BOX = {
        "m1": ((0.1, 3.0), (0.01, 1.0)),
        "m2": ((0.1, 3.0), (0.05, 2.0), (0.05, 2.0)),
        "m6": ((0.3, 3.0), (0.01, 1.0)),
    }

    @staticmethod
    def _fd_hessian(model, data, theta, h=1e-5):
        phi = np.log(theta)

        def g_phi(p):
            t = np.exp(p)
            return t * model.analytic_score(data, t)[1]

        out = np.empty((phi.size, phi.size))
        for i in range(phi.size):
            e = np.zeros(phi.size)
            e[i] = h
            out[:, i] = (g_phi(phi + e) - g_phi(phi - e)) / (2.0 * h)
        return out

    SLIPS = {"m2": _m2_h_ll_sign_slip, "m6": _m6_h_kl_sign_slip}

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    def test_matches_differenced_gradient(self, flood_values, alias):
        model = get_model(alias)
        slip = self.SLIPS.get(alias)
        rng = np.random.default_rng(1414)
        errors = []
        for _ in range(50):
            theta = np.array([rng.uniform(lo, hi) for lo, hi in self.BOX[alias]])
            H = model.analytic_score(flood_values, theta)[2]
            fd = self._fd_hessian(model, flood_values, theta)
            scale = max(1.0, float(np.max(np.abs(fd))))
            rel = float(np.max(np.abs(H - fd))) / scale
            if not rel <= 1e-6:
                errors.append(f"off by rel {rel:.2e} at {theta.round(4).tolist()}")
            if not np.array_equal(H, H.T):
                errors.append(f"not symmetric at {theta.round(4).tolist()}")
            if slip is not None:
                typo = slip(flood_values, theta, H)
                if not float(np.max(np.abs(typo - fd))) / scale > 1e-5:
                    errors.append(f"sign slip not detected at {theta.round(4).tolist()}")
        assert not errors, "; ".join(errors)

    @pytest.mark.parametrize("alias,theta", [
        ("m1", (0.84, 1e300)),
        ("m1", (0.84, 1e-300)),
        ("m2", (0.131, 1e300, 0.539)),
        ("m2", (1e-300, 0.179, 0.539)),
        ("m2", (0.131, 0.179, 1e-300)),
        ("m6", (0.9, 1e-300)),
    ])
    def test_entries_finite_near_float_limits(self, flood_values, alias, theta):
        ll, _, H = get_model(alias).analytic_score(flood_values, np.asarray(theta))
        assert np.isfinite(ll)
        assert np.all(np.isfinite(H)), H


class TestDataValidation:
    """Observations are validated once, where they enter: mle_fit,
    standard_errors, gof_report and oe_loglik_and_score. The model
    callables take the validated array as given."""

    ENTRIES = {
        "mle_fit": (lambda x: mle_fit(get_model("m2"), x), "mle_fit"),
        "standard_errors": (
            lambda x: standard_errors(get_model("m2"), x, (1.0, 1.0, 1.0)), "standard_errors"),
        "gof_report": (
            lambda x: gof_report(get_model("m2"), x, (1.0, 1.0, 1.0), -1.0), "gof_report"),
        "oe_loglik_and_score": (
            lambda x: oe_loglik_and_score(x, 1.0, 1.0, 1.0), "log-likelihood"),
        "negative_log_lik": (
            lambda x: negative_log_lik(get_model("m2"), x, (1.0, 1.0, 1.0)),
            "negative_log_lik"),
    }

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("bad", [
        [], [np.nan, 1.0], [np.inf, 1.0], [0.0, 1.0], [-1.0, 2.0, 3.0],
    ], ids=["empty", "nan", "inf", "zero", "negative"])
    def test_bad_data_raises_at_each_entry(self, entry, bad):
        call, name = self.ENTRIES[entry]
        message = (f"{name} requires at least one observation" if not bad
                   else "observations must be finite and strictly positive")
        with pytest.raises(DataError) as err:
            call(np.array(bad))
        assert str(err.value) == message

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_two_dimensional_data_raises_at_each_entry(self, entry):
        call, name = self.ENTRIES[entry]
        with pytest.raises(DataError) as err:
            call(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert str(err.value) == (
            f"{name} takes a 1-D sequence of observations, got shape (2, 2)")

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    def test_empty_data_rejected(self, alias):
        model = get_model(alias)
        with pytest.raises(DataError, match="mle_fit requires at least one observation"):
            mle_fit(model, np.array([]))

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    def test_nonpositive_data_rejected(self, alias):
        model = get_model(alias)
        with pytest.raises(DataError, match="finite and strictly positive"):
            mle_fit(model, np.array([1.0, -2.0, 3.0]))

    def test_score_rejects_nan(self):
        # the score takes its data as given; standard_errors, which
        # calls it, rejects the data first
        with pytest.raises(DataError, match="finite and strictly positive"):
            standard_errors(get_model("m1"), np.array([1.0, np.nan]), (1.0, 1.0))

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    def test_one_validation_per_fit(self, flood_values, monkeypatch, alias):
        calls = []

        def counted(data, entry, check=data_module._positive_observations):
            calls.append(entry)
            return check(data, entry)

        for module in (fit_module, gof_module, expgamma_module):
            monkeypatch.setattr(module, "_positive_observations", counted)
        res = mle_fit(get_model(alias), flood_values)
        assert res.converged
        assert calls == ["mle_fit"]
