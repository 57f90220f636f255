import math
import re

import pytest

from moddeg.curves import Invariants, is_prime
from moddeg.fudge import fudge_factor_for


def _inv(c4: int, c6: int) -> Invariants:
    # only c4/c6 matter for the local rules
    return Invariants(
        b2=0, b4=0, b6=0, b8=0, c4=c4, c6=c6, disc=1, abs_disc=1,
        disc_positive=True, j_num=0, j_den=1,
    )


class TestEpsilonP:
    def test_one_mod_twelve(self):
        f = fudge_factor_for(_inv(1, 1), 13, 13**2)
        assert (f["epsilon"], f["determined"]) == (1, True)
        assert f["u_inverse_at_1"] == pytest.approx(1 - 1 / 13)

    def test_eleven_mod_twelve(self):
        f = fudge_factor_for(_inv(1, 1), 11, 11**2)
        assert (f["epsilon"], f["determined"]) == (-1, True)
        assert f["u_inverse_at_1"] == pytest.approx(1 + 1 / 11)

    def test_five_mod_twelve_determined(self):
        # p || c4 and p^2 | c6
        f = fudge_factor_for(_inv(5, 25), 5, 25 * 3)
        assert (f["epsilon"], f["determined"]) == (1, True)

    def test_five_mod_twelve_fallback(self):
        f = fudge_factor_for(_inv(25, 25), 5, 25 * 3)  # p^2 | c4, condition fails
        assert (f["epsilon"], f["determined"]) == (1, False)
        assert f["u_inverse_at_1"] == pytest.approx(0.8)

    def test_seven_mod_twelve_determined(self):
        f = fudge_factor_for(_inv(7, 49), 7, 49)
        assert (f["epsilon"], f["determined"]) == (-1, True)
        assert f["u_inverse_at_1"] == pytest.approx(1 + 1 / 7)

    def test_seven_mod_twelve_fallback(self):
        f = fudge_factor_for(_inv(3, 49), 7, 49)  # p does not divide c4
        assert (f["epsilon"], f["determined"]) == (1, False)

    def test_non_twist_minimal(self):
        f = fudge_factor_for(_inv(5, 25), 5, 25, twist_minimal=False)
        assert f["determined"] is False
        assert f["u_inverse_at_1"] == pytest.approx(0.8)

    def test_requires_square_divisor(self):
        with pytest.raises(ValueError, match="p\\^2"):
            fudge_factor_for(_inv(1, 1), 5, 5)

    def test_rejects_non_primes(self):
        for p in (1, 4, 9, 25):
            with pytest.raises(ValueError, match="prime"):
                fudge_factor_for(_inv(1, 1), p, p * p * 7)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            *(("p", v, f"p must be an exact integer, got {v!r}") for v in (5.0, math.nan, True)),
            *(("conductor", v, f"conductor must be an exact integer, got {v!r}") for v in (25.0, math.nan, True)),
            *(("conductor", v, f"conductor must be positive, got {v}") for v in (0, -25)),
            *(("twist_minimal", v, f"twist_minimal must be True or False, got {v!r}") for v in ("no", 0, 1, None)),
        ],
    )
    def test_rejects_bad_arguments(self, name, value, message):
        args = {"inv": _inv(1, 1), "p": 5, "conductor": 25, name: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fudge_factor_for(**args)


class TestUPSpecial:
    def test_three(self):
        f = fudge_factor_for(_inv(1, 1), 3, 9)
        assert f["u_inverse_at_1"] == pytest.approx(2.0 / 3.0)
        assert f["epsilon"] == 1 and not f["determined"]

    def test_two_with_exact_eighth_power(self):
        f = fudge_factor_for(_inv(1, 1), 2, 2**8 * 3)
        assert f["u_inverse_at_1"] == pytest.approx(0.5)
        assert f["epsilon"] == 1

    def test_two_other_valuations(self):
        f = fudge_factor_for(_inv(1, 1), 2, 2**4 * 3)
        assert f["u_inverse_at_1"] == pytest.approx(5.0 / 8.0)
        assert f["epsilon"] is None and not f["determined"]

    def test_requires_square_divisor(self):
        for p in (2, 3):
            with pytest.raises(ValueError, match="p\\^2"):
                fudge_factor_for(_inv(1, 1), p, p * 7)

    def test_dispatch(self):
        assert fudge_factor_for(_inv(1, 1), 2, 48)["u_inverse_at_1"] == pytest.approx(5.0 / 8.0)
        assert fudge_factor_for(_inv(1, 1), 13, 13**2)["epsilon"] == 1

    def test_u_inverse_within_band(self):
        cases = [
            fudge_factor_for(_inv(1, 1), 2, 48),
            fudge_factor_for(_inv(1, 1), 2, 2**8),
            fudge_factor_for(_inv(1, 1), 3, 9),
            fudge_factor_for(_inv(1, 1), 13, 13**2),
            fudge_factor_for(_inv(1, 1), 11, 11**2),
        ]
        for f in cases:
            assert 1 - 1 / f["p"] <= f["u_inverse_at_1"] <= 1 + 1 / f["p"]
            if f["epsilon"] is not None:
                assert f["u_inverse_at_1"] == pytest.approx(1 - f["epsilon"] / f["p"])


class TestTwistGrowth:
    # Under a quadratic twist by an odd prime p the degree must gain at
    # least as much as the bound's right side, or twisting would break the
    # fudge-factor lower bound.  The comparators are plain arithmetic.
    @staticmethod
    def _growth(p: int, a_p: int, reduction: str) -> tuple[int, float]:
        if reduction == "additive":
            return p, 1.0
        if reduction == "multiplicative":
            return p * p - 1, p ** (7 / 6)
        return (p - 1) * (p + 1 - a_p) * (p + 1 + a_p), p ** (7 / 3)

    def test_multiplicative_at_three(self):
        lhs, rhs = self._growth(3, 0, "multiplicative")
        assert lhs == 8
        assert rhs == pytest.approx(3 ** (7 / 6))
        assert lhs >= rhs

    def test_good_tight_case(self):
        # the tight case: p = 3, a_p = +-3 gives 2*1*7 = 14 >= 3^(7/3)
        for a_p in (3, -3):
            lhs, rhs = self._growth(3, a_p, "good")
            assert lhs == 14
            assert rhs == pytest.approx(3 ** (7 / 3))
            assert lhs >= rhs

    def test_additive(self):
        assert self._growth(5, 0, "additive") == (5, 1.0)

    def test_exhaustive_small_primes(self):
        primes = [p for p in range(3, 1001) if is_prime(p)]
        for p in primes:
            lhs, rhs = self._growth(p, 0, "multiplicative")
            assert lhs >= rhs, p
            hasse = math.isqrt(4 * p)
            for a_p in range(-hasse, hasse + 1):
                lhs, rhs = self._growth(p, a_p, "good")
                assert lhs >= rhs, (p, a_p)


class TestFallbackConservatism:
    def test_fallback_never_exceeds_determined(self):
        # when the divisibility rules decide eps, the decided factor is at
        # least the worst-case fallback 1 - 1/p
        for p, c4, c6 in [(5, 5, 25), (7, 7, 49), (13, 1, 1), (11, 1, 1)]:
            determined = fudge_factor_for(_inv(c4, c6), p, p * p)
            fallback = 1.0 - 1.0 / p
            assert determined["u_inverse_at_1"] >= fallback - 1e-15
