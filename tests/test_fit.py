"""Optimizer tests on models with closed-form maximum-likelihood answers.

A unit-variance location toy (no analytic score, so the finite-difference
gradient path runs) and an exponential-rate toy (analytic score path)
both have textbook MLEs and observed-information standard errors, which
pins the optimizer and the error machinery independently of the real
models. The flood-data fits from the session fixture double as
integration checks.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy import special

from oddsgamma import DataError, FitError, OEGammaDist, get_model, mle_fit
from oddsgamma import fit
from oddsgamma.fit import FitResult, negative_log_lik, standard_errors
from oddsgamma.models import FittableModel


def _location_model():
    # unit-variance normal location family, constant term dropped;
    # information is exactly n, so SE = 1/sqrt(n)
    return FittableModel(
        name="location-toy",
        k=1,
        param_names=("mu",),
        log_pdf=lambda x, t: -0.5 * (np.asarray(x, dtype=float) - float(t[0])) ** 2,
        cdf=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        sf=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        initial_guess=lambda d: np.array([1.0]),
    )


def _exp_rate_model():
    def log_pdf(x, t):
        lam = float(t[0])
        return np.log(lam) - lam * np.asarray(x, dtype=float)

    def score(data, t):
        lam = float(t[0])
        x = np.asarray(data, dtype=float)
        n = x.size
        s = float(np.sum(x))
        return n * np.log(lam) - lam * s, np.array([n / lam - s])

    return FittableModel(
        name="exp-rate-toy",
        k=1,
        param_names=("lam",),
        log_pdf=log_pdf,
        cdf=lambda x, t: -np.expm1(-float(t[0]) * np.asarray(x, dtype=float)),
        sf=lambda x, t: np.exp(-float(t[0]) * np.asarray(x, dtype=float)),
        initial_guess=lambda d: np.array([1.0]),
        analytic_score=score,
    )


def _flat_coordinate_model():
    # second parameter never enters the likelihood, so the observed
    # information is singular by construction
    def log_pdf(x, t):
        lam = float(t[0])
        return np.log(lam) - lam * np.asarray(x, dtype=float)

    return FittableModel(
        name="flat-toy",
        k=2,
        param_names=("lam", "unused"),
        log_pdf=log_pdf,
        cdf=lambda x, t: -np.expm1(-float(t[0]) * np.asarray(x, dtype=float)),
        sf=lambda x, t: np.exp(-float(t[0]) * np.asarray(x, dtype=float)),
        initial_guess=lambda d: np.array([1.0, 1.0]),
    )


class TestLocationToy:
    def test_mle_is_sample_mean(self):
        rng = np.random.default_rng(101)
        data = rng.normal(2.5, 1.0, size=400)
        res = mle_fit(_location_model(), data)
        assert res.converged
        assert res.theta_hat[0] == pytest.approx(float(np.mean(data)), rel=1e-8)

    def test_standard_error_is_inverse_root_n(self):
        rng = np.random.default_rng(102)
        data = rng.normal(3.0, 1.0, size=250)
        res = mle_fit(_location_model(), data)
        assert res.std_errors[0] == pytest.approx(1.0 / np.sqrt(250.0), rel=1e-6)
        assert res.warnings == ()


class TestExpRateToy:
    def test_mle_is_inverse_mean(self):
        rng = np.random.default_rng(7)
        data = rng.exponential(scale=2.0, size=10_000)
        res = mle_fit(_exp_rate_model(), data)
        lam_hat = 1.0 / float(np.mean(data))
        assert res.converged
        # the gradient stopping rule scales with |loglik| ~ 1.7e4 here,
        # which pins the rate to about 1e-6 relative
        assert res.theta_hat[0] == pytest.approx(lam_hat, rel=1e-6)
        assert res.loglik == pytest.approx(
            10_000 * (np.log(lam_hat) - 1.0), rel=1e-12)

    def test_standard_error_closed_form(self):
        # observed information n/lam^2 gives SE = lam_hat / sqrt(n)
        rng = np.random.default_rng(8)
        data = rng.exponential(scale=0.4, size=10_000)
        res = mle_fit(_exp_rate_model(), data)
        assert res.std_errors[0] == pytest.approx(
            res.theta_hat[0] / np.sqrt(10_000.0), rel=1e-5)

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(9)
        data = rng.exponential(scale=1.0, size=500)
        first = mle_fit(_exp_rate_model(), data)
        second = mle_fit(_exp_rate_model(), data)
        assert first == second  # frozen dataclass, field-by-field equality

    def test_single_start_suffices_here(self):
        rng = np.random.default_rng(10)
        data = rng.exponential(scale=1.0, size=300)
        full = mle_fit(_exp_rate_model(), data)
        model = _exp_rate_model()
        # the first start alone, the model's initial guess
        phi, _, _, _, converged = fit._run_start(model, data, model.initial_guess(data))
        assert converged
        assert np.exp(phi[0]) == pytest.approx(full.theta_hat[0], rel=1e-9)


class TestDegenerateInformation:
    def test_flat_coordinate_yields_pseudo_inverse_warnings(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(scale=0.5, size=200)
        res = mle_fit(_flat_coordinate_model(), data)
        lam_hat = 1.0 / float(np.mean(data))
        assert res.theta_hat[0] == pytest.approx(lam_hat, rel=1e-7)
        assert res.std_errors[0] == pytest.approx(lam_hat / np.sqrt(200.0), rel=1e-4)
        # the flat coordinate carries no information at all
        assert res.std_errors[1] == 0.0
        assert (
            "observed information is not positive definite; "
            "standard errors use a pseudo-inverse"
        ) in res.warnings
        assert "non-positive variance estimate on at least one coordinate" in res.warnings


class TestFloodFits:
    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    def test_converged_without_warnings(self, fits, alias):
        res, _, _ = fits[alias]
        assert isinstance(res, FitResult)
        assert res.converged
        assert res.warnings == ()
        assert res.grad_sup_norm <= 1e-6 * max(1.0, abs(res.loglik))
        assert res.iterations >= 1

    def test_proposed_model_standard_errors(self, fits):
        res, _, _ = fits["m2"]
        expected = (0.05324121027, 0.06972092217, 0.2507762461)
        for got, ref in zip(res.std_errors, expected):
            assert got == pytest.approx(ref, rel=1e-3)

    def test_refit_is_bit_identical(self, fits, flood_values):
        res, _, _ = fits["m2"]
        again = mle_fit(get_model("m2"), flood_values)
        assert again.theta_hat == res.theta_hat
        assert again.loglik == res.loglik


class TestStandardErrors:
    @staticmethod
    def _gamma_oracle(n, a, rho):
        # m1 is a gamma law in (a, rho); its observed information
        # n [[psi'(a), -1/rho], [-1/rho, a/rho^2]] holds at every theta
        info = n * np.array([[special.polygamma(1, a), -1.0 / rho],
                             [-1.0 / rho, a / rho**2]])
        return np.sqrt(np.diag(np.linalg.inv(info)))

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("at_mle", [True, False])
    def test_gamma_matches_closed_form_information(self, fits, flood_values,
                                                   scale, at_mle):
        # away from the optimum the gradient term of the log-coordinate
        # Hessian is not zero, so the second point checks it
        a, rho = fits["m1"][0].theta_hat if at_mle else (1.3, 0.05)
        theta = (a, rho / scale)
        warnings_out = []
        got = standard_errors(get_model("m1"), flood_values * scale, theta,
                              warnings_out=warnings_out)
        want = self._gamma_oracle(flood_values.size, *theta)
        np.testing.assert_allclose(got, want, rtol=1e-6)
        assert warnings_out == []

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_rate_scale_equivariance(self, fits, flood_values, alias, scale):
        # the rate is the last parameter of every model: rescaling the
        # data by c divides it, and its standard error, by c
        res = fits[alias][0]
        theta = np.array(res.theta_hat)
        theta[-1] /= scale
        want = np.array(res.std_errors)
        want[-1] /= scale
        warnings_out = []
        got = standard_errors(get_model(alias), flood_values * scale, theta,
                              warnings_out=warnings_out)
        np.testing.assert_allclose(got, want, rtol=1e-6)
        assert warnings_out == []


def _resample(seed):
    return OEGammaDist(0.131, 0.179, 0.539).sample(72, np.random.default_rng(seed))


@pytest.mark.parametrize("seed", [8, 9, 23, 117, 120, 173, 580])
def test_bootstrap_fits_leak_no_runtime_warning(seed):
    # resamples of the flood fit on which exploratory optimizer points
    # overflow in the scores and the gradient map; on seed 580 m2 runs
    # beta to the float limit, where the information can overflow
    data = _resample(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for alias in ("m1", "m2", "m6"):
            assert np.isfinite(mle_fit(get_model(alias), data).loglik)


def _negative_definite(H):
    try:
        np.linalg.cholesky(-H)
    except np.linalg.LinAlgError:
        return False
    return True


class TestModifiedNewton:
    """Where the log-coordinate Hessian is indefinite, Newton steps along
    the eigenvalue-modified Hessian, which always ascends, instead of
    stalling and ending the start not converged."""

    def test_weibull_rate_times_four_start_converges(self, flood_values):
        # start 4 scales the rate by 4; its first plain Newton step lands
        # where the Hessian is indefinite and the plain step descends
        model = get_model("m6")
        starts = fit._starts(model, flood_values)
        _, ll4, _, _, converged = fit._run_start(model, flood_values, starts[4])
        assert converged
        ll0 = fit._run_start(model, flood_values, starts[0])[1]
        assert ll4 == pytest.approx(ll0, abs=1e-9)

    def test_step_at_plain_newton_stall_point_ascends(self, flood_values, monkeypatch):
        model = get_model("m6")
        theta0 = fit._starts(model, flood_values)[4]
        with monkeypatch.context() as m:
            m.setattr(fit, "_ascent_step", np.linalg.solve)
            phi, _, g, _, converged = fit._run_start(model, flood_values, theta0)
        assert not converged
        H = fit._hess_phi(model, flood_values, phi)
        assert not _negative_definite(H)
        assert g @ -fit._ascent_step(H, g) > 0.0

    @pytest.mark.parametrize("seed", [None, 8, 69, 180])
    def test_fits_converge_without_simplex(self, flood_values, seed):
        # on each data set plain Newton stalls on some start
        data = flood_values if seed is None else _resample(seed)
        for alias in ("m1", "m2", "m6"):
            res = mle_fit(get_model(alias), data)
            assert res.converged, (alias, res.warnings)

    def test_no_start_ends_on_a_saddle(self):
        # plain Newton takes starts 0 and 1 of this resample to a saddle
        # point (loglik -256.32, one Hessian eigenvalue +0.16)
        model = get_model("m2")
        data = _resample(5)
        for theta0 in fit._starts(model, data):
            phi, ll, _, _, converged = fit._run_start(model, data, theta0)
            assert converged
            assert _negative_definite(fit._hess_phi(model, data, phi))
            assert ll == pytest.approx(-251.64979281324, abs=1e-9)

    def test_wheaton_work_count(self, flood_values):
        # a deterministic count of likelihood evaluations shows a
        # regression that noisy timings hide; 639 measured, plus 10%
        calls = []
        for alias in ("m1", "m2", "m6"):
            model = get_model(alias)

            def counted(data, theta, score=model.analytic_score):
                calls.append(alias)
                return score(data, theta)

            mle_fit(dataclasses.replace(model, analytic_score=counted), flood_values)
        assert len(calls) <= 702


class TestScaleFreeConvergence:
    """The convergence test reads the log-coordinate gradient, which does
    not change when the data are rescaled, so every rescaled fit meets it
    (on the original scale d loglik / d rate grows like 1/rate)."""

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_rescaled_fit_converges_equivariantly(self, fits, flood_values, alias, scale):
        unit = fits[alias][0]
        res = mle_fit(get_model(alias), flood_values * scale)
        assert res.converged and res.warnings == ()
        # the rate is the last parameter of every model
        theta = np.array(res.theta_hat)
        theta[-1] *= scale
        np.testing.assert_allclose(theta, unit.theta_hat, rtol=1e-6)
        assert res.loglik == pytest.approx(
            unit.loglik - flood_values.size * np.log(scale), rel=1e-9)


class TestParameterSpaceEdge:
    def test_beta_at_float_limit_is_named_and_not_converged(self):
        # on this resample the best m2 start runs beta toward the float
        # limit, where the likelihood keeps rising
        res = mle_fit(get_model("m2"), _resample(580))
        assert res.theta_hat[1] >= 1e300
        assert not res.converged
        edge = [w for w in res.warnings if "edge of the parameter space" in w]
        assert len(edge) == 1 and edge[0].startswith("beta = ")


class TestNegativeLogLik:
    def test_matches_log_pdf_sum(self, flood_values):
        model = get_model("m6")
        theta = (0.9, 0.086)
        nll = negative_log_lik(model, flood_values, theta)
        assert nll == pytest.approx(
            -float(np.sum(model.log_pdf(flood_values, theta))), rel=1e-14)

    def test_rejections_are_inf(self, flood_values):
        model = get_model("m6")
        assert negative_log_lik(model, flood_values, (np.nan, 1.0)) == np.inf
        assert negative_log_lik(model, flood_values, (-1.0, 1.0)) == np.inf
        assert negative_log_lik(model, flood_values, (0.0, 1.0)) == np.inf

    def test_empty_data_rejected(self):
        with pytest.raises(DataError, match="at least one observation"):
            negative_log_lik(get_model("m6"), [], (1.0, 1.0))


class TestFailureModes:
    def test_all_starts_bad_raises_fit_error(self):
        broken = FittableModel(
            name="always-nan",
            k=1,
            param_names=("a",),
            log_pdf=lambda x, t: np.full(np.asarray(x).shape, np.nan),
            cdf=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            sf=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
            initial_guess=lambda d: np.array([1.0]),
        )
        with pytest.raises(FitError) as err:
            mle_fit(broken, np.array([1.0, 2.0]))
        msg = str(err.value)
        assert msg.startswith("no start produced a finite likelihood for model always-nan")
        assert "start 0 at [1.0] was not finite" in msg
        assert "start 4" in msg

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_standard_errors_reject_theta_outside_the_space(self, flood_values, bad):
        with pytest.raises(ValueError, match="shape finite and > 0"):
            standard_errors(get_model("m6"), flood_values, (bad, 1.0))

    def test_empty_data_rejected(self):
        with pytest.raises(DataError, match="mle_fit requires at least one observation"):
            mle_fit(get_model("m2"), np.array([]))
        with pytest.raises(DataError, match="standard_errors requires at least one"):
            standard_errors(get_model("m2"), np.array([]), (1.0, 1.0, 1.0))
