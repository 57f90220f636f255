import math
import random
import re

import pytest

from moddeg.curves import Invariants, is_prime
from moddeg.fudge import _fudge, fudge_factor_for
from moddeg.report import _fudge_text, dumps_report

PSI_13 = 3317044064679887385961981


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

    @pytest.mark.parametrize("p", [PSI_13, PSI_13 + 2, 10**30 + 57])
    def test_rejects_p_past_the_exact_primality_range(self, p):
        # PSI_13 = 1287836182261 * 2575672364521 passes Miller-Rabin on the
        # first thirteen prime bases; from there on is_prime refuses p at
        # once rather than trial-divide it
        message = f"primality is decided only below {PSI_13}, where Miller-Rabin on the first thirteen prime bases is exact"
        with pytest.raises(ValueError, match=f"^{message}$"):
            fudge_factor_for(_inv(1, 1), p, p * p)

    def test_largest_prime_below_psi_13(self):
        p = PSI_13 - 168  # 1 mod 12
        assert fudge_factor_for(_inv(1, 1), p, p * p)["epsilon"] == 1
        with pytest.raises(ValueError, match="must be prime"):
            fudge_factor_for(_inv(1, 1), PSI_13 - 2, (PSI_13 - 2) ** 2)

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


# The classes of p that the rule tells apart: 2, 3, and 1, 5, 7 and 11 mod 12.
_RULE_CLASSES = (2, 3, 1, 5, 7, 11)


def _rule_class(p: int) -> int:
    return p if p < 5 else p % 12


def seeded_fudge_lists(count: int, seed: int) -> list[tuple[int, int, int, bool, list[int]]]:
    """count seeded (c4, c6, N, twist_minimal, primes), with N from 3 to
    10^257: N = m prod p^e over 0 to 4 primes p, each drawn from one of
    the rule's classes (below 100 or near 10^6), with e >= 2 (e = 8 for
    p = 2 half the time) and m prime to each p on a log scale.  For each
    p, c4 and c6 meet the divisibility condition (p || c4 and p^2 | c6)
    or break one of its clauses, each by chance; twist_minimal is False
    one time in four."""
    rng = random.Random(seed)
    candidates = [p for p in [*range(100), *range(999_900, 1_000_000)] if is_prime(p)]
    pools = {c: [p for p in candidates if _rule_class(p) == c] for c in _RULE_CLASSES}
    cases = []
    while len(cases) < count:
        primes = sorted({rng.choice(pools[rng.choice(_RULE_CLASSES)]) for _ in range(rng.randint(0, 4))})
        square = c4 = c6 = 1
        for p in primes:
            square *= p ** (8 if p == 2 and rng.random() < 0.5 else rng.randint(2, 9))
            # (v_p(c4), v_p(c6)): the condition met, then p not dividing
            # c4, p^2 dividing c4, and p^2 not dividing c6
            a, b = rng.choice([(1, rng.randint(2, 3)), (0, rng.randint(0, 3)), (rng.randint(2, 3), rng.randint(0, 3)), (1, rng.randint(0, 1))])
            c4 *= p**a
            c6 *= p**b
        units = [int(10 ** rng.uniform(0, math.log10(10**257 // square))), rng.randint(1, 10**6), rng.randint(1, 10**6)]
        for p in primes:
            for i, unit in enumerate(units):
                while unit % p == 0:
                    unit //= p
                units[i] = unit
        n = square * units[0]
        if 3 <= n <= 10**257:
            signs = rng.choice((1, -1)), rng.choice((1, -1))
            cases.append((signs[0] * c4 * units[1], signs[1] * c6 * units[2], n, rng.random() < 0.75, primes))
    return cases


def test_report_path_agrees_with_fudge_factor_for():
    # build_report takes each local factor from the kernel behind
    # fudge_factor_for and writes it by _fudge_text: value, type and text
    # must be what the public function gives, in every branch of the rule
    seen = set()
    for c4, c6, n, twist_minimal, primes in seeded_fudge_lists(2000, seed=40):
        for p in primes:
            block = fudge_factor_for(_inv(c4, c6), p, n, twist_minimal)
            factor = _fudge(c4, c6, p, n, twist_minimal)
            assert repr(factor) == repr(tuple(block.values())), (c4, c6, p, n, twist_minimal)
            assert _fudge_text(factor) == dumps_report(block)
            if p == 2:
                seen.add((2, n % 2**9 == 2**8))
            elif p > 3:
                divisibility = c4 % p == 0 and c4 % (p * p) != 0 and c6 % (p * p) == 0
                seen.add((p % 12, divisibility, twist_minimal))
            else:
                seen.add((3,))
    # p = 2 with and without 2^8 || N, p = 3, and each class of p > 3 with
    # the condition met and not, in a minimal and a non-minimal twist
    assert len(seen) == 2 + 1 + 4 * 2 * 2
