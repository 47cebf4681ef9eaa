"""Fit tests on models with closed-form maximum-likelihood answers.

A unit-variance location toy, an exponential-rate toy and a toy with a
coordinate that never enters the likelihood each solve their likelihood
equation in closed form and return their log-coordinate Hessian, which
pins the fit and the error machinery independently of the real models.
The flood-data fits from the session fixture double as integration
checks, against 60-digit mpmath roots of each model's likelihood
equations and against scipy.optimize, a maximiser outside the library.
"""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, special

try:
    import mpmath
except ImportError:  # the mpmath checks skip
    mpmath = None

import oddsgamma
from oddsgamma import DataError, FitError, get_model, mle_fit
from oddsgamma import models
from oddsgamma.fit import FitResult, negative_log_lik, standard_errors
from oddsgamma.models import FittableModel

from streams import flood_resample


_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(oddsgamma.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p),
}


def _location_model():
    # unit-variance normal location family, constant term dropped;
    # information is exactly n, so SE = 1/sqrt(n)
    def score(x, t):
        mu = float(t[0])
        g = float(np.sum(x - mu))
        # d2 / d(log mu)^2 = mu d/dmu + mu^2 d2/dmu2
        ll = -0.5 * float(np.sum((x - mu) ** 2))
        return ll, np.array([g]), np.array([[mu * g - x.size * mu**2]])

    return FittableModel(
        name="location-toy",
        k=1,
        param_names=("mu",),
        log_pdf=lambda x, t: -0.5 * (np.asarray(x, dtype=float) - float(t[0])) ** 2,
        cdf=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        sf=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        analytic_score=score,
        exact_mle=lambda x: (np.array([float(np.mean(x))]), 0, None),
    )


def _exp_rate_log_pdf(x, t):
    lam = float(t[0])
    return np.log(lam) - lam * np.asarray(x, dtype=float)


def _exp_rate_score(x, lam):
    """loglik, d/dlam and d2/d(log lam)^2 = lam d/dlam - n of the exponential rate."""
    n, s = x.size, float(np.sum(x))
    g = n / lam - s
    return n * math.log(lam) - lam * s, g, lam * g - n


def _exp_rate_model():
    def score(x, t):
        ll, g, h = _exp_rate_score(x, float(t[0]))
        return ll, np.array([g]), np.array([[h]])

    return FittableModel(
        name="exp-rate-toy",
        k=1,
        param_names=("lam",),
        log_pdf=_exp_rate_log_pdf,
        cdf=lambda x, t: -np.expm1(-float(t[0]) * np.asarray(x, dtype=float)),
        sf=lambda x, t: np.exp(-float(t[0]) * np.asarray(x, dtype=float)),
        analytic_score=score,
        exact_mle=lambda x: (np.array([1.0 / float(np.mean(x))]), 0, None),
    )


def _flat_coordinate_model():
    # second parameter never enters the likelihood, so its row of the
    # Hessian is zero and the observed information is singular
    def score(x, t):
        ll, g, h = _exp_rate_score(x, float(t[0]))
        return ll, np.array([g, 0.0]), np.array([[h, 0.0], [0.0, 0.0]])

    return FittableModel(
        name="flat-toy",
        k=2,
        param_names=("lam", "unused"),
        log_pdf=_exp_rate_log_pdf,
        cdf=lambda x, t: -np.expm1(-float(t[0]) * np.asarray(x, dtype=float)),
        sf=lambda x, t: np.exp(-float(t[0]) * np.asarray(x, dtype=float)),
        analytic_score=score,
        exact_mle=lambda x: (np.array([1.0 / float(np.mean(x)), 1.0]), 0, None),
    )


class TestLocationToy:
    def test_mle_is_sample_mean(self):
        # mean 6 sd 1 keeps every draw inside the positive data that
        # mle_fit accepts
        rng = np.random.default_rng(101)
        data = rng.normal(6.0, 1.0, size=400)
        res = mle_fit(_location_model(), data)
        assert res.converged
        assert res.theta_hat[0] == pytest.approx(float(np.mean(data)), rel=1e-15)

    def test_standard_error_is_inverse_root_n(self):
        rng = np.random.default_rng(102)
        data = rng.normal(3.0, 1.0, size=250)
        res = mle_fit(_location_model(), data)
        assert res.std_errors[0] == pytest.approx(1.0 / np.sqrt(250.0), rel=1e-12)
        assert res.warnings == ()


class TestExpRateToy:
    def test_mle_is_inverse_mean(self):
        rng = np.random.default_rng(7)
        data = rng.exponential(scale=2.0, size=10_000)
        res = mle_fit(_exp_rate_model(), data)
        lam_hat = 1.0 / float(np.mean(data))
        assert res.converged
        assert res.theta_hat[0] == pytest.approx(lam_hat, rel=1e-15)
        assert res.loglik == pytest.approx(
            10_000 * (np.log(lam_hat) - 1.0), rel=1e-12)

    def test_standard_error_closed_form(self):
        # observed information n/lam^2 gives SE = lam_hat / sqrt(n)
        rng = np.random.default_rng(8)
        data = rng.exponential(scale=0.4, size=10_000)
        res = mle_fit(_exp_rate_model(), data)
        assert res.std_errors[0] == pytest.approx(
            res.theta_hat[0] / np.sqrt(10_000.0), rel=1e-12)

    def test_exact_mle_and_score_run_once(self):
        # the fit solves the likelihood equation once and scores once,
        # at its root, and reports the solver's step count
        rng = np.random.default_rng(11)
        data = rng.exponential(scale=3.0, size=400)
        model = _exp_rate_model()
        calls = []

        def counted(name, f):
            def call(x, *args):
                calls.append((name, x.size))
                return f(x, *args)
            return call

        res = mle_fit(dataclasses.replace(
            model, exact_mle=counted("exact_mle", model.exact_mle),
            analytic_score=counted("score", model.analytic_score)), data)
        assert calls == [("exact_mle", 400), ("score", 400)]
        assert res.converged and res.warnings == () and res.iterations == 0
        assert res.std_errors[0] == pytest.approx(res.theta_hat[0] / 20.0, rel=1e-12)

    def test_exact_mle_note_is_not_converged(self):
        data = np.array([0.5, 1.0, 2.0])
        model = dataclasses.replace(
            _exp_rate_model(), exact_mle=lambda x: (np.array([1.0]), 7, "gave up"))
        res = mle_fit(model, data)
        assert not res.converged and res.iterations == 7
        assert res.warnings[0] == "gave up"

    def test_exact_mle_off_the_support_raises(self):
        model = dataclasses.replace(
            _exp_rate_model(), exact_mle=lambda x: (np.array([np.inf]), 1, None))
        with pytest.raises(FitError, match="likelihood equations of model exp-rate-toy"):
            mle_fit(model, np.array([1.0, 2.0]))

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(9)
        data = rng.exponential(scale=1.0, size=500)
        first = mle_fit(_exp_rate_model(), data)
        second = mle_fit(_exp_rate_model(), data)
        assert first == second  # frozen dataclass, field-by-field equality


class TestDegenerateInformation:
    def test_flat_coordinate_yields_pseudo_inverse_warnings(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(scale=0.5, size=200)
        res = mle_fit(_flat_coordinate_model(), data)
        lam_hat = 1.0 / float(np.mean(data))
        assert res.theta_hat[0] == pytest.approx(lam_hat, rel=1e-15)
        assert res.std_errors[0] == pytest.approx(lam_hat / np.sqrt(200.0), rel=1e-12)
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

    def test_wheaton_work_count(self, flood_values, monkeypatch):
        # a deterministic count of likelihood evaluations shows a
        # regression that noisy timings hide; measured m1 1, m2 4, m6 1
        # (6 in all), each bound 10% above. m1 and m6 solve their shape
        # equations and score once at the root; m2 scores once per
        # profile Newton step (3 here) and once at the root
        calls = []
        scores = {"m1": "_zb_score", "m2": "_oe_loglik_and_score", "m6": "_weibull_score"}
        for alias, name in scores.items():
            def counted(*args, score=getattr(models, name), alias=alias):
                calls.append(alias)
                return score(*args)

            monkeypatch.setattr(models, name, counted)
        bounds = {"m1": 1, "m2": 4, "m6": 1}
        steps = {}
        for alias in bounds:
            steps[alias] = mle_fit(get_model(alias), flood_values).iterations
            assert calls.count(alias) <= bounds[alias]
        assert len(calls) <= 6
        assert steps["m2"] <= 3


def _gamma_terms(x, a, rho):
    """loglik, score and Hessian of the gamma law a, rate rho, in mpmath."""
    n, sum_log = len(x), mpmath.fsum(mpmath.log(v) for v in x)
    ll = n * (a * mpmath.log(rho) - mpmath.loggamma(a)) + (a - 1) * sum_log - rho * mpmath.fsum(x)
    g = [n * (mpmath.log(rho) - mpmath.digamma(a)) + sum_log, n * a / rho - mpmath.fsum(x)]
    return ll, g, [[-n * mpmath.psi(1, a), n / rho], [n / rho, -n * a / rho**2]]


def _oe_terms(x, a, b, lam):
    """The same for m2, from w(X) = 1/expm1(lam X) ~ Gamma(a, rate b):
    log f = log lam + a log b - lnGamma(a) + a log w + log(1 + w) - b w,
    with dw / dlam = -x w (1 + w)."""
    n = len(x)
    w = [1 / mpmath.expm1(lam * v) for v in x]
    ll = (n * (mpmath.log(lam) + a * mpmath.log(b) - mpmath.loggamma(a))
          + mpmath.fsum(a * mpmath.log(wi) + mpmath.log1p(wi) - b * wi for wi in w))
    g = [n * (mpmath.log(b) - mpmath.digamma(a)) + mpmath.fsum(mpmath.log(wi) for wi in w),
         n * a / b - mpmath.fsum(w),
         n / lam - mpmath.fsum(v * (a * (1 + wi) + wi - b * wi * (1 + wi)) for v, wi in zip(x, w))]
    h_al = -mpmath.fsum(v * (1 + wi) for v, wi in zip(x, w))
    h_bl = mpmath.fsum(v * wi * (1 + wi) for v, wi in zip(x, w))
    h_ll = -n / lam**2 + mpmath.fsum(v * v * wi * (1 + wi) * (a + 1 - b * (1 + 2 * wi))
                                     for v, wi in zip(x, w))
    return ll, g, [[-n * mpmath.psi(1, a), n / b, h_al], [n / b, -n * a / b**2, h_bl],
                   [h_al, h_bl, h_ll]]


def _weibull_terms(x, k, lam):
    """The same for the Weibull shape k, rate lam: t = (lam x)^k."""
    n = len(x)
    logs = [mpmath.log(lam * v) for v in x]
    t = [mpmath.exp(k * u) for u in logs]
    ll = (n * (mpmath.log(k) + k * mpmath.log(lam)) + (k - 1) * mpmath.fsum(mpmath.log(v) for v in x)
          - mpmath.fsum(t))
    g = [n / k + mpmath.fsum(logs) - mpmath.fsum(ti * u for ti, u in zip(t, logs)),
         k / lam * (n - mpmath.fsum(t))]
    h_kl = (n - mpmath.fsum(ti * (1 + k * u) for ti, u in zip(t, logs))) / lam
    return ll, g, [[-n / k**2 - mpmath.fsum(ti * u * u for ti, u in zip(t, logs)), h_kl],
                   [h_kl, k / lam**2 * ((1 - k) * mpmath.fsum(t) - n)]]


_MP_TERMS = {"m1": _gamma_terms, "m2": _oe_terms, "m6": _weibull_terms}


def _mpmath_fit(alias, x, start):
    """(theta, loglik, std_errors): the root of the model's likelihood
    equations by Newton in 60-digit mpmath from start, and the loglik and
    inverse observed information there, each rounded to a float."""
    with mpmath.workdps(60):
        x = [mpmath.mpf(float(v)) for v in x]
        theta = mpmath.matrix([mpmath.mpf(float(t)) for t in start])
        for _ in range(10):
            ll, g, H = _MP_TERMS[alias](x, *theta)
            step = mpmath.lu_solve(mpmath.matrix(H), mpmath.matrix(g))
            theta -= step
            if mpmath.norm(step) <= mpmath.mpf(10) ** -55 * mpmath.norm(theta):
                break
        else:
            raise AssertionError(f"no 60-digit root of the {alias} likelihood equations")
        ll, g, H = _MP_TERMS[alias](x, *theta)
        cov = -mpmath.inverse(mpmath.matrix(H))
        return ([float(t) for t in theta], float(ll),
                [float(mpmath.sqrt(cov[i, i])) for i in range(len(theta))])


class TestPinnedDigits:
    """theta_hat, loglik, std_errors and iterations of the flood fits.

    Where numpy runs its AVX-512 kernels they are pinned to every digit
    repr prints: a speed-up must keep them all, and a change that moves
    one fails here and must say why. numpy's fallback exp and log move
    them in their last digits, so everywhere they are also checked
    against 60-digit mpmath to 1e-12 relative."""

    PINS = {
        "wheaton": (
            ("m1", (0.8382682148538917, 0.06868705072206695), -251.34435950468648,
             (0.12106558872930392, 0.013288181168587022), 4),
            ("m2", (0.13131102518890234, 0.17910084994666278, 0.5389212836407866),
             -249.514972224391,
             (0.053241137118434395, 0.06972089068339873, 0.250775903658705), 3),
            ("m6", (0.901166122839873, 0.08596832096426049), -251.49864044754122,
             (0.08555727025379219, 0.011837460153171192), 4),
        ),
        (4242, 1): (
            ("m1", (0.9038314885189535, 0.0777193169937793), -248.40624252558644,
             (0.13143809744771076, 0.014851223281849027), 4),
            ("m2", (0.14124319416119357, 0.2597675103158326, 0.5479959262408184),
             -245.58347398638307,
             (0.063943008624722, 0.10264730539927693, 0.27905267197720957), 3),
            ("m6", (0.9426839180303197, 0.08828205434970124), -248.4502583595944,
             (0.08824512233751967, 0.011621978030623743), 4),
        ),
        (4242, 2): (
            ("m1", (0.8509833029568299, 0.06021614694716685), -262.0375487239109,
             (0.12307256225066797, 0.011619855772569073), 4),
            ("m2", (0.09832496246837413, 0.23479566945506192, 0.6613060116559616),
             -261.0637974405397,
             (0.06722080280603666, 0.11429381533693606, 0.5007408977187428), 3),
            ("m6", (0.8940230236921735, 0.07479800605442286), -261.9034696915601,
             (0.08217752551120885, 0.010402352724078068), 5),
        ),
    }

    @pytest.mark.usefixtures("avx512_bits")
    @pytest.mark.parametrize("data", list(PINS), ids=["wheaton", "op-4242-1", "op-4242-2"])
    def test_fit_digits(self, flood_values, data):
        # the resamples are the draws of flood-bootstrap ops (4242, 1) and (4242, 2)
        x = flood_values if data == "wheaton" else _ridge_op(data)
        for alias, *pinned in self.PINS[data]:
            res = mle_fit(get_model(alias), x)
            got = (res.theta_hat, res.loglik, res.std_errors, res.iterations)
            assert repr(got) == repr(tuple(pinned)), alias

    @pytest.mark.parametrize("data", list(PINS), ids=["wheaton", "op-4242-1", "op-4242-2"])
    def test_fit_matches_mpmath(self, flood_values, data):
        pytest.importorskip("mpmath")
        x = flood_values if data == "wheaton" else _ridge_op(data)
        for alias in ("m1", "m2", "m6"):
            res = mle_fit(get_model(alias), x)
            assert res.converged and res.warnings == (), alias
            theta, ll, se = _mpmath_fit(alias, x, res.theta_hat)
            assert res.theta_hat == pytest.approx(theta, rel=1e-12, abs=0.0), alias
            assert res.loglik == pytest.approx(ll, rel=1e-12, abs=0.0), alias
            assert res.std_errors == pytest.approx(se, rel=1e-12, abs=0.0), alias


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
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert warnings_out == []

    def test_gamma_fit_errors_are_the_closed_form_information(self, fits, flood_values):
        res = fits["m1"][0]
        want = self._gamma_oracle(flood_values.size, *res.theta_hat)
        np.testing.assert_allclose(res.std_errors, want, rtol=1e-12)

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


# data below the normal float range, whose rates pass the largest float
SUBNORMAL = 1e-315 * (1.0 + np.random.default_rng(0).random(20))


@pytest.mark.parametrize("seed", [8, 9, 23, 117, 120, 173, 580])
def test_bootstrap_fits_leak_no_runtime_warning(seed):
    # resamples of the flood fit on which the scores overflow at points
    # away from the fit; on seed 580 the m2 likelihood rises along the
    # beta -> inf ridge
    data = flood_resample(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for alias in ("m1", "m2", "m6"):
            assert np.isfinite(mle_fit(get_model(alias), data).loglik)


def test_fits_across_five_hundred_decades_leak_no_runtime_warning():
    # the m2 profile scan meets shape statistics up to 1.3e302 here,
    # where squaring s - 3 in the shape equation's start overflowed and
    # the start rounded to 0; m1 and m6 took log1p(-1) on a discarded
    # branch. Each fit keeps its converged flag
    data = [1e-200, 1.0, 1e100]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for alias in ("m1", "m2", "m6"):
            assert mle_fit(get_model(alias), data).converged, alias


class TestShapeEquations:
    """m1 and m6 fit by solving one scalar equation for the shape: the
    gamma equation log a - psi(a) = log mean(x) - mean(log x) and the
    Weibull equation sum x^k log x / sum x^k - 1/k = mean(log x). m2
    maximizes its profile likelihood in lambda (TestProfileLikelihood)."""

    # 40-digit roots of the likelihood equations on the Wheaton data,
    # from mpmath.findroot at 50 digits (m1 and m6 rate: a / mean(x) and
    # mean(x^k)^(-1/k); m2 on all three score components)
    ORACLE = {
        "m1": (0.8382682148538920488101389233442461949281,
               0.06868705072206694799889517876142446004846),
        "m2": (0.1313110251889018577676353094076345903075,
               0.1791008499466630322722259850243735435541,
               0.5389212836407889283950853517582349118088),
        "m6": (0.9011661228398728380245946082123150211301,
               0.08596832096426048349960137148063139194471),
    }

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    def test_wheaton_roots_match_mpmath(self, fits, alias):
        res = fits[alias][0]
        assert res.theta_hat == pytest.approx(self.ORACLE[alias], rel=1e-13, abs=0.0)
        assert res.converged and res.iterations <= 6 and res.warnings == ()

    @pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_roots_scale_with_the_data(self, fits, flood_values, alias, scale):
        res = mle_fit(get_model(alias), flood_values * scale)
        got = np.array(res.theta_hat)
        got[-1] *= scale  # the rate is the last parameter of every model
        assert tuple(got) == pytest.approx(fits[alias][0].theta_hat, rel=1e-13, abs=0.0)

    # 50-digit mpmath root of the Weibull shape equation on one point
    # eleven decades above forty in [10, 11), and its rate mean(x^k)^(-1/k)
    OUTLIER_ROOT = (0.12146651001111255500442195178409938217693916283732,
                    0.0033496039919219758095013410391246424849583685034892)

    def test_weibull_newton_step_out_of_its_bracket_bisects(self):
        # Menon's start, 0.329, tops the bracket [0.041, 0.329], and
        # Newton steps from it to -1.06: the solver bisects instead, and
        # the fit still meets the root
        x = np.r_[np.random.default_rng(0).random(40) + 10.0, 1e12]
        solver = models._weibull_exact_mle
        lines, first = inspect.getsourcelines(solver)
        fallback = first + next(i for i, line in enumerate(lines) if "0.5 * (lo + hi)" in line)
        brackets = []

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno == fallback:
                brackets.append((frame.f_locals["lo"], frame.f_locals["hi"]))
            return line

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: line if frame.f_code is solver.__code__ else None)
        try:
            res = mle_fit(get_model("m6"), x)
        finally:
            sys.settrace(previous)
        [(lo, hi)] = brackets  # one bisection, inside a finite bracket
        assert 0.0 < lo < hi < math.inf
        assert res.converged and res.iterations == 6
        assert res.theta_hat == pytest.approx(self.OUTLIER_ROOT, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alias, name, data", [
        # two nearly equal observations near 1e-294, whose gamma rate
        # a / mean(x) passes the largest float, and subnormal data, plain
        # and equal
        ("m1", "rho", 1e-297 * (1000.0 + np.random.default_rng(2).random(2) * 1e-3)),
        ("m6", "rate", SUBNORMAL),
        ("m1", "rho", SUBNORMAL),
        ("m2", "lambda", SUBNORMAL),
        ("m2", "lambda", [1e-315] * 3),
    ])
    def test_rate_past_the_float_range_is_named(self, alias, name, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mle_fit(get_model(alias), data)
        assert not res.converged
        assert res.warnings[0].startswith(f"{name} = exp(")
        assert res.warnings[0].endswith("lies past the float range; theta is reported at "
                                        f"{name} = 1.79769e+308")
        assert np.isfinite(res.loglik)

    # 60-digit mpmath roots of log a - psi(a) = s on the float data
    # 3 (1 + spread U(72)), U from default_rng(0): m1's alpha, with
    # s = log mean(x) - mean(log x), and the m2 profile's alpha at
    # lambda = 1, with s = log mean(w) - mean(log w), w = 1/expm1(x)
    NEARLY_EQUAL = {
        1e-4: (1145757030.196544540949776, 114935789.7182713492452701),
        1e-6: (11456453535395.03842188662, 1149341783718.361405393374),
        1e-8: (114564424650620718.6928202, 11493416323373156.30575058),
        1e-10: (1145643787497640172658.135, 114934118143961639026.3454),
    }

    @pytest.mark.parametrize("spread", sorted(NEARLY_EQUAL))
    def test_nearly_equal_data_keep_the_shape_statistic(self, spread):
        # s ~ spread^2 / 24 is the small difference of two terms of size
        # spread; formed as that difference it rounds to 0 near 1e-8
        x = 3.0 * (1.0 + spread * np.random.default_rng(0).random(72))
        want_m1, want_m2 = self.NEARLY_EQUAL[spread]
        assert mle_fit(get_model("m1"), x).theta_hat[0] == pytest.approx(want_m1, rel=1e-12)
        assert float(models._oe_profile(x, np.array(1.0))[1]) == pytest.approx(want_m2, rel=1e-12)

    @pytest.mark.parametrize("alias, name", [("m1", "alpha"), ("m2", "alpha"), ("m6", "shape")])
    @pytest.mark.parametrize("data", [[2.0, 2.0, 2.0], [3.0]])
    def test_equal_observations_name_the_boundary(self, alias, name, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mle_fit(get_model(alias), data)
        assert not res.converged
        assert all(np.isfinite(res.theta_hat)) and np.isfinite(res.loglik)
        assert res.warnings[0].startswith(
            f"{name} runs to infinity because every observation is equal")


def _ridge_op(op):
    """The 72 draws of flood-bootstrap op (seed, index): the Wheaton m2
    fit sampled through numpy's gamma generator with default_rng(op).
    On ops (103, 4), (106, 9) and (11, 58) the m2 likelihood rises along
    the alpha -> 0, beta -> inf ridge to a limit above its interior
    maximum (TestProfileLikelihood)."""
    a, b, lam = 0.131311028817586, 0.17910085290278077, 0.5389212676467791
    t = np.random.default_rng(list(op)).gamma(a, 1.0 / b, 72)
    return np.log1p(1.0 / t) / lam


def _limit_loglik(x):
    """Loglik of the shifted exponential min x + Exp(kappa) at its MLE
    kappa = 1/(mean x - min x): the m2 likelihood's lambda -> inf limit."""
    x = np.asarray(x, dtype=float)
    return x.size * (np.log(1.0 / np.mean(x - x.min())) - 1.0)


class TestProfileLikelihood:
    """m2 maximizes its profile likelihood in lambda: at fixed lambda,
    (alpha, beta) is the gamma MLE of the odds w = 1/expm1(lambda x).
    A scan over log lambda and Newton on the best interior maximum find
    the fit, which is compared with the lambda -> inf limit, the shifted
    exponential min x + Exp(1/(mean x - min x))."""

    # logliks a five-start Newton ascent reached on these resamples:
    # interior maxima that the lambda -> inf limit beats by 0.04 to 0.39
    ENGINE_LOGLIK = {17: -259.6236303136484, 23: -244.08806045224193,
                     24: -244.81238252113167, 38: -258.53201605670876,
                     40: -252.9443421664378}

    ADVISORY = "the likelihood is higher at the lambda -> inf boundary, the shifted exponential"

    @pytest.mark.parametrize("seed", sorted(ENGINE_LOGLIK))
    def test_boundary_above_the_interior_maximum_is_advised(self, seed):
        data = flood_resample(seed)
        res = mle_fit(get_model("m2"), data)
        want = self.ENGINE_LOGLIK[seed]
        assert res.loglik >= want - 1e-9 * abs(want)
        assert res.converged
        (advisory,) = res.warnings
        assert advisory.startswith(self.ADVISORY)
        gap = _limit_loglik(data) - res.loglik
        assert 0.04 < gap < 0.39
        assert advisory.endswith(f", {gap:.3g} above this interior stationary point")

    @pytest.mark.parametrize("op, mu, kappa, steps", [
        ((103, 4), "0.193249", "0.0871604", 3),
        ((106, 9), "0.107439", "0.0675132", 3),
        ((11, 58), "0.0788303", "0.0831032", 4),
    ])
    def test_flood_ridge_op_names_the_boundary_in_few_steps(self, op, mu, kappa, steps):
        data = _ridge_op(op)
        res = mle_fit(get_model("m2"), data)
        assert res.converged and res.iterations <= steps
        (advisory,) = res.warnings
        assert advisory.startswith(
            f"{self.ADVISORY} mu + Exp(kappa), mu = min x = {mu} and "
            f"kappa = 1/(mean x - min x) = {kappa}, "
            f"with loglik {_limit_loglik(data):.10g}")

    def test_engine_float_limit_resample_keeps_an_interior_maximum(self):
        # the profile has an interior maximum here, which scipy.optimize
        # also reaches (test_scipy_minimize_reaches_the_fit)
        data = flood_resample(580)
        res = mle_fit(get_model("m2"), data)
        assert res.converged and res.iterations <= 4
        assert res.theta_hat[1] < 1e300
        (advisory,) = res.warnings
        assert advisory.startswith(self.ADVISORY)
        assert 0.38 < _limit_loglik(data) - res.loglik < 0.39

    def test_no_interior_maximum_is_a_named_boundary(self):
        # a shifted exponential sample: the profile rises to the end of
        # the scan, and the fit names the limit without a Newton step
        data = 1.0 + np.random.default_rng(0).exponential(1.0, 72)
        res = mle_fit(get_model("m2"), data)
        assert not res.converged and res.iterations == 0
        note, unconverged = res.warnings
        assert note.startswith(
            "the likelihood rises toward its lambda -> inf boundary, the shifted exponential")
        gap = _limit_loglik(data) - res.loglik
        assert 0.0 < gap < 0.5
        assert note.endswith(f"theta is reported at the highest scanned lambda, {gap:.3g} below that")
        assert unconverged.startswith("optimizer did not meet both convergence criteria")

    def test_rise_toward_zero_lambda_is_named(self):
        data = 1.0 / np.random.default_rng(0).gamma(3.0, 1.0, 72)
        res = mle_fit(get_model("m2"), data)
        assert not res.converged and res.iterations == 0
        assert res.warnings[0].startswith("the likelihood rises toward its lambda -> 0 boundary")

    def test_rise_toward_the_shape_limit_is_named(self):
        # nearly equal data: alpha grows past 1e9 toward low lambda, where
        # the scan stops, and the likelihood still rises there
        data = 10.0 * (1.0 + np.random.default_rng(0).random(72) * 1e-5)
        res = mle_fit(get_model("m2"), data)
        assert not res.converged and res.iterations == 0
        assert res.warnings[0] == (
            "the likelihood rises toward its lambda -> 0 boundary; theta is reported at the "
            "lowest scanned lambda where alpha is at most 1e+09")
        assert res.theta_hat[0] <= 1e9 and np.isfinite(res.loglik)

    @pytest.mark.parametrize("seed", range(10))
    def test_beta_past_the_float_range_is_named(self, seed):
        # data far from 0: beta ~ e^(lambda min x) leaves the float range
        # while the profile still rises, which ends the scan there
        data = 1000.0 + np.random.default_rng(seed).gamma(2.0, 1.0, 72)
        res = mle_fit(get_model("m2"), data)
        assert not res.converged and res.iterations == 0
        assert res.warnings[0] == (
            "the likelihood still rises where beta leaves the float range; "
            "theta is reported at the last scanned lambda where beta is a float")
        assert all(np.isfinite(res.theta_hat)) and np.isfinite(res.loglik)

    @pytest.mark.parametrize("data", [
        "3.0 * (1 + 1e-8 * np.random.default_rng(0).random(72))",
        "[3.0, 3.0 * (1 + 1e-12)]",
    ])
    def test_nearly_equal_data_return_at_once(self, data):
        # the odds of nearly equal data are equal to rounding at low lambda,
        # where the shape equation has no root and a solve that tries one
        # runs for minutes; a child process bounds a regression by its
        # timeout instead of hanging the suite
        code = ("import numpy as np; from oddsgamma import get_model, mle_fit; "
                f"res = mle_fit(get_model('m2'), {data}); "
                "print(res.converged); print(res.warnings[0])")
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                              env=_CHILD_ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == (
            "False\nalpha passes 1e+09 at every scanned lambda where beta is a float; "
            "theta is reported at alpha = 1e+06\n")

    def test_subnormal_data_are_solved_at_a_float_scale(self):
        # lambda ~ 1/x is past the float range; alpha and beta are
        # scale-free, so they are those of the data moved into [1/2, 1)
        # by a power of two, where the profile is solved
        shift = -math.frexp(float(np.max(SUBNORMAL)))[1]
        theta, steps, note, advisory = models._oe_exact_mle(SUBNORMAL)
        scaled = models._oe_exact_mle(np.ldexp(SUBNORMAL, shift))
        assert tuple(theta[:2]) == tuple(scaled[0][:2]) and steps == scaled[1]
        assert theta[2] == np.finfo(float).max
        assert note == (f"lambda = exp({math.log(scaled[0][2]) + shift * math.log(2.0):.6g}) "
                        "lies past the float range; theta is reported at lambda = 1.79769e+308")
        gap = scaled[3].rsplit(", ", 1)[1]  # "0.0496 above this interior ..."
        assert advisory.endswith(gap)

    def test_data_near_the_float_floor_leak_no_warning(self):
        # the scan grid of log lambda stops at the float range: data with
        # a minimum of 9.8e-311 asked for lambda = exp(719)
        data = 1e-300 * np.random.default_rng(0).gamma(0.2, 1.0, 72)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mle_fit(get_model("m2"), data)
        assert not res.converged
        assert res.warnings[0].startswith("lambda = ")
        assert res.warnings[0].endswith(" ran to the edge of the parameter space")


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


@pytest.mark.parametrize("alias", ["m1", "m2", "m6"])
def test_scipy_minimize_reaches_the_fit(flood_values, alias):
    # a maximiser outside the library: scipy's BFGS on negative_log_lik,
    # the log_pdf route, not the score under test, in log theta from 0.3
    # off the fit in each log coordinate, with central-difference
    # gradients. The data: Wheaton, resamples (seed 580 as in
    # TestProfileLikelihood) and the ridge ops, where the m2 likelihood
    # has a higher limit than the interior maximum the fit reports
    model = get_model(alias)
    data = ([flood_values] + [flood_resample(seed) for seed in (*range(40), 69, 180, 580)]
            + [_ridge_op(op) for op in ((103, 4), (106, 9), (11, 58))])
    h = 1e-5
    for i, x in enumerate(data):
        res = mle_fit(model, x)
        phi = np.log(res.theta_hat)

        def nll(p):
            return negative_log_lik(model, x, np.exp(p))

        def grad(p):
            return np.array([(nll(p + e) - nll(p - e)) / (2.0 * h) for e in h * np.eye(p.size)])

        start = phi + 0.3 * (-1.0) ** np.arange(phi.size)
        out = optimize.minimize(nll, start, jac=grad, method="BFGS", options={"gtol": 1e-7})
        assert -out.fun == pytest.approx(res.loglik, rel=1e-9, abs=0.0), i
        assert tuple(np.exp(out.x)) == pytest.approx(res.theta_hat, rel=1e-6, abs=0.0), i


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
    def test_root_without_a_finite_likelihood_raises_fit_error(self):
        broken = FittableModel(
            name="always-nan",
            k=1,
            param_names=("a",),
            log_pdf=lambda x, t: np.full(np.asarray(x).shape, np.nan),
            cdf=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            sf=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
            analytic_score=lambda x, t: (np.nan, np.array([np.nan]), np.array([[np.nan]])),
            exact_mle=lambda x: (np.array([1.0]), 3, None),
        )
        with pytest.raises(FitError) as err:
            mle_fit(broken, np.array([1.0, 2.0]))
        assert str(err.value) == ("the likelihood equations of model always-nan gave theta "
                                  "[1.0], where the likelihood is not finite")

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_standard_errors_reject_theta_outside_the_space(self, flood_values, bad):
        with pytest.raises(ValueError, match="shape finite and > 0"):
            standard_errors(get_model("m6"), flood_values, (bad, 1.0))

    @pytest.mark.parametrize("alias, theta", [
        ("m6", (900.0, 1.0)), ("m6", (1e5, 1.0)), ("m1", (1e308, 1e308))])
    def test_standard_errors_reject_theta_without_a_finite_likelihood(
            self, flood_values, alias, theta):
        # (lam x)^k and a log rho - lnGamma(a) overflow here; there is no
        # information to invert, and no floating-point warning escapes
        model = get_model(alias)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                standard_errors(model, flood_values, theta)
        assert str(err.value) == (f"standard_errors: the likelihood of model {model.name} "
                                  f"is not finite at theta {list(theta)}")

    def test_empty_data_rejected(self):
        with pytest.raises(DataError, match="mle_fit requires at least one observation"):
            mle_fit(get_model("m2"), np.array([]))
        with pytest.raises(DataError, match="standard_errors requires at least one"):
            standard_errors(get_model("m2"), np.array([]), (1.0, 1.0, 1.0))
