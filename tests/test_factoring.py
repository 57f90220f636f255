"""Primality, the prime products mod a cofactor, and the squared primes of
a conductor against trial division; needs only pytest and moddeg.

is_prime is checked against a sieve at every n below 2^20, the digit-wise
reduction of each prime product against one long division, and
squared_primes against trial division up to 1e7 alone, refusals included,
and against the split each gcd step's squared primes take.  That reference costs about 0.2 s whenever it runs the whole way to 1e7,
so the seeded products keep such cases few."""

import math
import random

import pytest

from moddeg import curves
from moddeg.curves import _DIGIT_BITS, _primes_up_to, _product_mod, _trial_divide, is_prime, squared_primes


def by_trial_division(n: int) -> list[int] | None:
    """The squared primes of n by trial division up to 1e7 alone, and None
    where the cofactor left is above 1e21 and could have three or more
    prime factors, which squared_primes refuses."""
    factors, cofactor = _trial_divide(n, 10**7)
    if cofactor > 10**21:
        return None
    root = math.isqrt(cofactor)
    return [p for p, e in factors.items() if e >= 2] + ([root] if cofactor > 1 and root * root == cofactor else [])


def assert_matches_trial_division(n: int) -> None:
    expected = by_trial_division(n)
    if expected is not None:
        assert squared_primes(n) == expected, n
        return
    named = n if n < 10**64 else f"of {n.bit_length()} bits"
    with pytest.raises(ValueError) as refusal:
        squared_primes(n)
    assert str(refusal.value) == (
        f'"conductor" {named} is refused: trial division up to 10^7 leaves a cofactor '
        "above 10^21, whose squared primes it cannot decide"
    )


@pytest.mark.parametrize("n", [0, -12])
def test_nonpositive_n_is_refused(n):
    with pytest.raises(ValueError, match="^can only factor positive integers$"):
        squared_primes(n)


def test_is_prime_against_a_sieve_below_2_to_the_20():
    primes = set(_primes_up_to(2**20))
    assert [n for n in range(-2, 2**20) if is_prime(n) != (n in primes)] == []


def test_is_prime_at_the_first_strong_pseudoprimes():
    # psi_1 = 2047 = 23 * 89 passes base 2 and psi_2 = 1373653 = 829 * 1657
    # bases 2 and 3, so each needs one base more than the band below it
    assert 2047 == 23 * 89 and 1373653 == 829 * 1657
    assert not is_prime(2047) and not is_prime(1373653)
    assert is_prime(2039) and is_prime(2053)


# The two prime products the gcd steps reduce mod a cofactor: one digit
# for the primes up to 2^10 and several for those in (2^10, 2^17].
PRODUCT_RANGES = [(1, 2**10), (2**10, 2**17)]


def primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in _primes_up_to(hi) if p > lo]


def assert_reduces_like_one_division(cases: list[int], lo: int, hi: int) -> None:
    product = math.prod(primes_in(lo, hi))
    # bit lengths, not the numbers, so that a failure stays readable
    assert [c.bit_length() for c in cases if _product_mod(c, lo, hi) != product % c] == []


@pytest.mark.parametrize("lo, hi", PRODUCT_RANGES)
def test_product_mod_below_3000(lo, hi):
    assert_reduces_like_one_division(list(range(1, 3000)), lo, hi)


@pytest.mark.parametrize("lo, hi", PRODUCT_RANGES)
def test_product_mod_on_seeded_cofactors(lo, hi):
    # c of every length from 2 to 900 bits, then longer than one digit
    rng = random.Random(35)
    w = _DIGIT_BITS
    cases = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in range(2, 901)]
    cases += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in (w - 1, w, w + 1, w + 900, 2 * w + 1, 5 * w)]
    assert_reduces_like_one_division(cases, lo, hi)


@pytest.mark.parametrize("lo, hi", PRODUCT_RANGES)
def test_product_mod_at_digit_powers_and_the_product_itself(lo, hi):
    w = _DIGIT_BITS
    product = math.prod(primes_in(lo, hi))
    assert_reduces_like_one_division([2**w - 1, 2**w + 1, 2 ** (2 * w), product, product + 1], lo, hi)


@pytest.mark.parametrize("lo, hi", PRODUCT_RANGES)
def test_product_mod_shares_the_primes_of_its_range(lo, hi):
    # products of primes inside the range, times a cofactor that may hold
    # more, so that the gcd the reduction feeds is not 1
    rng = random.Random(36)
    primes = primes_in(lo, hi)
    cases = [math.prod(rng.sample(primes, k)) * rng.randint(1, 2**64) for k in (1, 2, 3, 5, 20, 100) for _ in range(20)]
    assert_reduces_like_one_division(cases, lo, hi)
    assert all(math.gcd(c, _product_mod(c, lo, hi)) > 1 for c in cases)


def test_squared_primes_against_trial_division_up_to_2e5():
    assert [n for n in range(1, 200001) if squared_primes(n) != by_trial_division(n)] == []


# The ranges the factoring steps split at: the first gcd takes (2, 2^10],
# the second (2^10, 2^17]; up to 2^20 and 2^30 a cofactor needs no gcd;
# (2^17, 1e7] is trial division's, and above 1e7 only isqrt decides.
RANGES = [(2, 2**10), (2**10, 2**17), (2**17, 2**20), (2**20, 2**30), (2**17, 10**7), (10**7, 10**12)]


def seeded_products(seed: int = 33) -> list[int]:
    """Products of a prime from each range, to the first power, times one
    to three primes up to 2^17, to the first, second or third power; then
    a prime squared and cubed from each range up to 2^20, and a prime
    squared from each range above, where the reference and squared_primes
    may run trial division the whole way to 1e7; then two conductors
    refused with a cofactor above 1e21, of 37 and of 100 digits."""
    rng = random.Random(seed)

    def prime(lo: int, hi: int) -> int:
        # a wrong is_prime only makes some draws composite, which the
        # comparison with trial division takes as well
        while True:
            n = rng.randint(lo + 1, hi)
            if is_prime(n):
                return n

    def small_part() -> int:
        return math.prod(prime(*rng.choice(RANGES[:2])) ** rng.randint(1, 3) for _ in range(rng.randint(1, 3)))

    cases = [small_part() * prime(*RANGES[k % len(RANGES)]) for k in range(240)]
    cases += [prime(lo, hi) ** e * prime(2, 2**10) for lo, hi in RANGES[:3] for e in (2, 3)]
    cases += [prime(lo, hi) ** 2 * prime(2, 2**10) for lo, hi in RANGES[3:]]
    cases += [prime(10**10, 10**11) * prime(10**11, 10**12) * prime(2**10, 2**17) ** 2, rng.randint(10**99, 10**100)]
    return cases


@pytest.mark.parametrize(
    "n",
    [1021, 1031, 1021**2 * 1031**2, 1021**3, 1031**3, 1031**2 * 1033, 1031 * 1033 * 1039, *(2**k for k in range(80))],
)
def test_squared_primes_at_the_edges(n):
    # 1021 is the last prime below 2^10 and 1031 the first above; three
    # primes above 2^10 make just over 2^30, where the second gcd starts
    assert_matches_trial_division(n)


def test_squared_primes_against_trial_division_on_seeded_products():
    for n in seeded_products():
        assert_matches_trial_division(n)


# Squared primes that one gcd step finds together, and that trial division
# up to the step's upper end then splits: with the first step, three and
# four primes up to 2^10, the last of them left as the cofactor of 1021's
# case; with the second, two primes in one wheel block (1027 to 1051),
# which leave 1, 1031 with 2^17 - 1, which leaves that prime, and three.
SPLITS = [
    (2**10, [7, 11, 13]),
    (2**10, [2, 3, 7, 1021]),
    (2**17, [1031, 1033]),
    (2**17, [1031, 131071]),
    (2**17, [1031, 1033, 1039]),
    (2**17, [1031, 4099, 131071]),
]


@pytest.mark.parametrize("limit, primes", SPLITS)
def test_squared_primes_split_after_a_gcd(monkeypatch, limit, primes):
    # times a prime near 1e12 that no step takes
    n = math.prod(primes) ** 2 * 999999999989
    assert_matches_trial_division(n)
    limits = []

    def trial_divide(m, upto):
        limits.append(upto)
        return _trial_divide(m, upto)

    monkeypatch.setattr(curves, "_trial_divide", trial_divide)
    assert squared_primes(n) == primes
    assert limits == [limit]
