import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma
from scipy.special import loggamma

from moddeg.specfun import (
    ZETA_3_HALVES,
    abs_gamma_half_line,
    digamma,
    error_integral_tail_bound,
    error_integrand,
    lemma4_error_integral,
)

# mpmath at 30 digits, frozen.
ERROR_INTEGRAL_EXPECTED = 16.182221888601056


def mpmath_error_integrand(t) -> mp.mpf:
    """The smoothing-error integrand, prefactor included, at the working precision."""
    t = mp.mpf(t)
    return (
        mp.zeta(1.5) ** 4
        / (4 * mp.pi**2)
        * (mp.mpf(25) / 4 + t * t) ** mp.mpf("0.75")
        * mp.sqrt(mp.mpf(9) / 4 + t * t)
        * 2
        * (1 + t * t) ** (mp.mpf(1) / 200)
        / mp.sqrt(1 + 4 * t * t)
        * mp.sqrt(mp.pi * mp.sech(mp.pi * t))
    )


@functools.lru_cache(maxsize=None)
def mpmath_error_integral() -> mp.mpf:
    """The smoothing-error integral by mpmath quadrature at 30 digits."""
    with mp.workdps(30):
        return +mp.quad(mpmath_error_integrand, [0, 1, 5, 40])


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-float(mp.euler), rel=1e-15)
        assert digamma(1.0) == pytest.approx(-0.5772156649, abs=1e-10)

    def test_at_half(self):
        with mp.workdps(30):
            assert digamma(0.5) == pytest.approx(float(-mp.euler - 2 * mp.log(2)), rel=1e-15)
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
    def test_three_halves(self):
        # the frozen constant is zeta(3/2) rounded once to a double
        with mp.workdps(30):
            assert ZETA_3_HALVES == float(mp.zeta(1.5))


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

    def test_tail_envelope_dominates_from_guard(self):
        # the bound integrates the envelope 1.3 * error_integral_tail_bound(t)
        with mp.workdps(30):
            for k in range(361):
                t = 20.0 + 0.5 * k
                assert 1.3 * error_integral_tail_bound(t) >= mpmath_error_integrand(t), t

    def test_tail_domain(self):
        # below t = 15.09 the envelope is under the integrand, at t = 10 by a factor 2.2
        envelope_at_10 = 1.3 * error_integral_tail_bound(20.0) * math.exp(1.3 * 10.0)
        with mp.workdps(30):
            assert mpmath_error_integrand(10.0) > 2.0 * envelope_at_10
        with pytest.raises(ValueError, match="t0 >= 20"):
            error_integral_tail_bound(12.0)

    def test_error_estimate_bounds_oracle_distance(self):
        result = lemma4_error_integral()
        assert abs(result.value - mpmath_error_integral()) <= result.abs_error_estimate
