"""Special-function layer: values against independent references and
inverse round trips including deep tails."""

import math

import numpy as np
import pytest
import scipy.special as sp

from oddsgamma.specfun import (
    digamma,
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    log_gamma,
    reg_lower_gamma,
    reg_upper_gamma,
)

EULER_GAMMA = 0.5772156649015329


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


class TestDigamma:
    def test_at_one_is_minus_euler(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    def test_recurrence(self):
        # psi(a+1) = psi(a) + 1/a
        for a in (0.05, 0.3, 1.9, 8.0):
            assert digamma(a + 1.0) == pytest.approx(digamma(a) + 1.0 / a, rel=1e-12)

    def test_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-13)


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


# deep-tail grid: flat regions are where an absolute residual criterion lies
TAIL_SHAPES = [0.05, 0.131, 0.5, 1.0, 2.0, 7.3, 50.0]
TAIL_PROBS = [1e-15, 1e-12, 1e-9, 1e-4, 0.1, math.exp(-1.0), 0.5, 0.9, 0.999,
              1.0 - 1e-9, 1.0 - 1e-12]


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
        for p in TAIL_PROBS:
            x = inv_reg_upper_gamma(a, p)
            ref = sp.gammainccinv(a, p)
            assert x == pytest.approx(ref, rel=1e-7), (a, p)

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
        for s in TAIL_PROBS:
            x = inv_reg_lower_gamma(a, s)
            ref = sp.gammaincinv(a, s)
            assert x == pytest.approx(ref, rel=1e-7), (a, s)

    def test_s_zero_maps_to_zero(self):
        assert inv_reg_lower_gamma(3.0, 0.0) == 0.0

    def test_inverses_are_complements(self):
        # invP(a, s) = invQ(a, 1-s) wherever 1-s is exact
        for a in (0.131, 2.0):
            for s in (0.5, 0.75, 0.9):
                assert inv_reg_lower_gamma(a, s) == pytest.approx(
                    inv_reg_upper_gamma(a, 1.0 - s), rel=1e-12
                )
