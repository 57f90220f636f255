import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma
from scipy.special import loggamma

from moddeg.specfun import (
    EULER_GAMMA,
    ZETA_3_HALVES,
    abs_gamma_half_line,
    digamma,
    error_integral_tail_bound,
    error_integrand,
    lemma4_error_integral,
    zeta_real,
)

# mpmath at 30 digits, frozen.
ERROR_INTEGRAL_EXPECTED = 16.182221888601056


@functools.lru_cache(maxsize=None)
def mpmath_error_integral() -> mp.mpf:
    """The smoothing-error integral by mpmath quadrature at 30 digits."""
    with mp.workdps(30):
        pref = mp.zeta(1.5) ** 4 / (4 * mp.pi**2)

        def f(t):
            return (
                (mp.mpf(25) / 4 + t * t) ** mp.mpf("0.75")
                * mp.sqrt(mp.mpf(9) / 4 + t * t)
                * 2
                * (1 + t * t) ** (mp.mpf(1) / 200)
                / mp.sqrt(1 + 4 * t * t)
                * mp.sqrt(mp.pi * mp.sech(mp.pi * t))
            )

        return +(pref * mp.quad(f, [0, 1, 5, 40]))


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-15)
        assert digamma(1.0) == pytest.approx(-0.5772156649, abs=1e-10)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-15)
        assert digamma(0.5) == pytest.approx(-1.9635100260, abs=1e-10)

    def test_recurrence(self):
        for x in (0.1, 0.5, 1.0, 2.7, 9.99, 123.4):
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-12)

    def test_against_scipy(self):
        xs = np.concatenate([np.linspace(0.01, 3, 400), np.linspace(3, 1000, 200)])
        for x in xs:
            assert digamma(float(x)) == pytest.approx(float(scipy_digamma(x)), rel=1e-13, abs=1e-13)

    def test_monotone_from_half(self):
        xs = np.linspace(0.5, 50, 500)
        values = [digamma(float(x)) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_asymptotic(self):
        assert abs(digamma(1e6) - math.log(1e6)) < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.5)


class TestZetaReal:
    def test_closed_forms(self):
        assert zeta_real(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
        assert zeta_real(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)

    def test_three_halves(self):
        assert zeta_real(1.5) == pytest.approx(ZETA_3_HALVES, rel=1e-12)
        assert zeta_real(1.5) == pytest.approx(2.6123753487, abs=1e-10)

    def test_against_mpmath(self):
        mp.mp.dps = 25
        for s in (1.0001, 1.01, 1.5, 2.5, 3.0, 7.7, 30.0):
            assert zeta_real(s) == pytest.approx(float(mp.zeta(s)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_real(1.0)
        with pytest.raises(ValueError):
            zeta_real(0.5)


class TestAbsGammaHalfLine:
    def test_at_zero(self):
        assert abs_gamma_half_line(0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_at_one(self):
        assert abs_gamma_half_line(1.0) == pytest.approx(math.sqrt(math.pi / math.cosh(math.pi)), rel=1e-14)
        assert abs_gamma_half_line(1.0) == pytest.approx(0.520591, abs=1e-4)

    def test_even(self):
        for t in (0.3, 1.7, 5.0, 12.0):
            assert abs_gamma_half_line(-t) == abs_gamma_half_line(t)

    def test_gamma_identity(self):
        # |Gamma(1/2+it)|^2 cosh(pi t) = pi; oracle through the complex loggamma
        for t in np.linspace(0.0, 10.0, 21):
            mine = abs_gamma_half_line(float(t))
            oracle = math.exp(float(loggamma(complex(0.5, t)).real))
            assert mine == pytest.approx(oracle, rel=1e-12)
            assert mine**2 * math.cosh(math.pi * t) == pytest.approx(math.pi, rel=1e-12)


class TestErrorIntegral:
    def test_value(self):
        result = lemma4_error_integral()
        assert 0.0 < result.value < 62.0
        assert result.value == pytest.approx(ERROR_INTEGRAL_EXPECTED, abs=1e-6)
        assert result.abs_error_estimate <= 1e-6
        assert result.truncation_point == 40.0

    def test_against_mpmath(self):
        assert lemma4_error_integral().value == pytest.approx(float(mpmath_error_integral()), rel=1e-9)

    def test_integrand_at_zero(self):
        pref = ZETA_3_HALVES**4 / (4.0 * math.pi**2)
        expected = pref * (25.0 / 4.0) ** 0.75 * 1.5 * 2.0 * math.sqrt(math.pi)
        assert error_integrand(0.0) == pytest.approx(expected, rel=1e-14)

    def test_tail_negligible(self):
        assert error_integral_tail_bound(40.0) < 1e-10
        # the bound really does dominate the integrand at the cut
        assert error_integrand(40.0) < error_integral_tail_bound(40.0)

    def test_error_estimate_bounds_oracle_distance(self):
        result = lemma4_error_integral()
        assert abs(result.value - mpmath_error_integral()) <= result.abs_error_estimate
