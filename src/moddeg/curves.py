"""Exact Weierstrass-model arithmetic.

Integer b/c-invariants and the discriminant, the roots of the 2-torsion
polynomial ``4x^3 + b2 x^2 + 2 b4 x + b6`` (the polynomial appearing on
the right side of ``y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6``) through the
geometry of its isolated root and the exact discriminant, factoring (the
one module that holds its policy: trial division by the 30-wheel,
primality by Miller-Rabin where it is exact, below
3317044064679887385961981, one sieve, and the squared primes of a
conductor, all that a report needs of its factorization, found by two
gcds with prime products before any long trial division: about 3 us
for a random conductor up to 1e6), point counts
over prime fields (one counting routine, which the Euler-product
estimator calls with the invariants it derived once per curve:
Shanks-Mestre baby-step giant-step on points of the curve and its
quadratic twist taken alternately from x = 1, never from the x = 0 that
is a point of order 3 on a j = 0 model, with (p + 1 - c) P taken from
the giant step and about 28 group operations per point near p = 2000;
an a_p of 37a1 costs about 25 us there and 0.13 ms near p = 1e6; an
O(p) Legendre-symbol sum for small p and whenever the points tried
leave more than one candidate), and CM detection by rational
j-invariant.

The conductor is always an input, never computed; reports downstream
carry a ``"conductor_provenance": "supplied"`` field.  Models are used exactly as
given (no re-minimalization): every derived quantity, in particular the
discriminant feeding the area bound, belongs to the supplied model.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import namedtuple

__all__ = [
    "SingularCurveError",
    "CurveModel",
    "Invariants",
    "RootData",
    "CM_J_INVARIANTS",
    "POINT_COUNT_CUTOFF",
    "derive_invariants",
    "two_torsion_roots",
    "trace_of_frobenius",
    "is_cm",
    "factorize",
    "is_prime",
    "squared_primes",
]


class SingularCurveError(ValueError):
    """Model has vanishing discriminant."""


# The thirteen rational CM j-invariants (class number one orders), keyed by
# the discriminant of the order.  Every rational CM curve has one of these.
CM_J_INVARIANTS = {
    -3: 0,
    -4: 1728,
    -7: -3375,
    -8: 8000,
    -11: -32768,
    -12: 54000,
    -16: 287496,
    -19: -884736,
    -27: -12288000,
    -28: 16581375,
    -43: -884736000,
    -67: -147197952000,
    -163: -262537412640768000,
}

# Baby-step giant-step takes O(p^(1/4)) group operations, but the
# counter falls back to an O(p) sum when it leaves several candidates; the
# cutoff keeps that fallback near half a second.
POINT_COUNT_CUTOFF = 10**6


def _require_int(name: str, value: object) -> None:
    """Refuse a bool or any non-int, naming the parameter."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an exact integer, got {value!r}")


class CurveModel(namedtuple("CurveModel", "a1 a2 a3 a4 a6 conductor", defaults=(None,))):
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Only model-level data lives here.  The conductor is optional so that
    invariants and periods can be computed without one; the Euler-product
    estimator reads it when given.  Dataset records (label, n2, known
    degree) and their contract belong to ``moddeg.report.parse_record``.
    Every constructor, ``_make`` and ``_replace`` included, refuses a bool
    or non-int a-invariant and a conductor that is not a positive int.
    """

    __slots__ = ()

    def __new__(cls, a1: int, a2: int, a3: int, a4: int, a6: int, conductor: int | None = None) -> CurveModel:
        for name, value in zip(cls._fields, (a1, a2, a3, a4, a6)):
            _require_int(name, value)
        n = conductor
        if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
            raise ValueError(f"conductor must be a positive integer, got {n!r}")
        return super().__new__(cls, a1, a2, a3, a4, a6, conductor)

    @classmethod
    def _make(cls, iterable) -> CurveModel:
        # the namedtuple _make, which _replace calls, bypasses __new__
        return cls(*iterable)

    @property
    def a_invariants(self) -> tuple[int, int, int, int, int]:
        return self[:5]


class Invariants(namedtuple("Invariants", "b2 b4 b6 b8 c4 c6 disc abs_disc disc_positive j_num j_den")):
    """Derived integer invariants of a Weierstrass model.

    Satisfies 4*b8 = b2*b6 - b4^2 and 1728*disc = c4^3 - c6^2 exactly;
    j = j_num/j_den = c4^3/disc in lowest terms with j_den > 0.
    """

    __slots__ = ()


class RootData(namedtuple("RootData", "r r_tilde b_sq z e1 e2 e3", defaults=(None, None, None))):
    """Roots of the 2-torsion polynomial f(x) = 4x^3 + b2 x^2 + 2 b4 x + b6.

    r is the isolated real root: the one real root when disc < 0, the real
    root with the largest |r_tilde| when disc > 0, where
    r_tilde = r + b2/12.  The other two roots are -b2/12 - r_tilde/2 plus
    or minus i z (disc < 0) or z (disc > 0), with z > 0, and
    b_sq = B^2 = f'(r)/4 is the product of r's distances to them, so that
    |disc| = 64 B^4 z^2.  For disc > 0, e1 > e2 > e3 are the three roots;
    for disc < 0 they are None.
    """

    __slots__ = ()


def derive_invariants(curve: CurveModel) -> Invariants:
    """Compute b2, b4, b6, b8, c4, c6, disc and the j-invariant exactly."""
    a1, a2, a3, a4, a6 = curve.a_invariants
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if disc == 0:
        raise SingularCurveError("singular curve: discriminant is zero")
    c4_cubed = c4**3
    # j = c4^3/disc in lowest terms, the sign carried by the numerator
    g = math.gcd(c4_cubed, disc) if disc > 0 else -math.gcd(c4_cubed, disc)
    return Invariants(
        b2=b2,
        b4=b4,
        b6=b6,
        b8=b8,
        c4=c4,
        c6=c6,
        disc=disc,
        abs_disc=abs(disc),
        disc_positive=disc > 0,
        j_num=c4_cubed // g,
        j_den=disc // g,
    )


_DOUBLE_MAX = int(sys.float_info.max)
# two_torsion_roots refuses a model with 4 c4^3 above the first (disc > 0)
# or c6^2 above the second (disc < 0); see the comment there.
_C4_CUBED_LIMIT = 3 * 48**3 * _DOUBLE_MAX**2
_C6_SQUARED_LIMIT = 1728**2 * _DOUBLE_MAX


def _newton_polish(p: float, q: float, y: float) -> float:
    """Three Newton steps on the depressed cubic y^3 + p y + q."""
    for _ in range(3):
        fp = 3.0 * y * y + p
        if fp == 0.0:
            break
        y -= ((y * y + p) * y + q) / fp
    return y


def two_torsion_roots(inv: Invariants) -> RootData:
    """Solve 4x^3 + b2 x^2 + 2 b4 x + b6 = 0 through its isolated root r.

    With y = x + b2/12 the cubic is 4(y^3 + p y + q), p = -c4/48 and
    q = -c6/864.  A closed form (trigonometric for three real roots,
    Cardano for one, whose radicand (q/2)^2 + (p/3)^3 is |disc|/1728
    exactly) gives r_tilde, which three Newton steps on the depressed
    cubic refine; in that variable a model translated far along x keeps
    every digit of r_tilde.  Then B^2 = f'(r)/4 = 3 r_tilde^2 + p and
    z = sqrt|disc| / (8 B^2) come from r_tilde and the exact
    discriminant, so no root difference is formed by cancellation: with
    disc > 0 the differences are 2z and 3|r_tilde|/2 -+ z, and the nearer
    neighbour of r is at least |r_tilde| away.

    A model for which a float formed here or in Lemma 1 would leave double
    range is refused with ValueError.
    """
    # Refuse the model, in exact integers, before a float leaves double
    # range: each integer converted here or in Lemma 1 (|disc|, b2, b4, b6
    # and c6; c4 follows), p*m = -2 (-p)^(3/2) / sqrt(3) with p and m below
    # for three real roots, and for one real root (q/2)^2 = (c6/1728)^2,
    # which keeps c = r_tilde/z of agm.area_neg_disc in double range.
    if inv.disc_positive:
        too_large = 4 * inv.c4**3 > _C4_CUBED_LIMIT
    else:
        too_large = inv.c6**2 > _C6_SQUARED_LIMIT
    if too_large or max(inv.abs_disc, abs(inv.b2), abs(inv.b4), abs(inv.b6), abs(inv.c6)) > _DOUBLE_MAX:
        raise ValueError('"a" gives a model too large for double precision')
    p = -inv.c4 / 48.0
    q = -inv.c6 / 864.0
    if inv.disc_positive:
        # Three real roots m cos((phi - 2 pi k)/3); disc > 0 forces p < 0.
        m = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m))))
        y = max((m * math.cos((phi - 2.0 * math.pi * k) / 3.0) for k in range(3)), key=abs)
    else:
        # Cardano y = u - p/(3u), taking the cube root that does not cancel.
        w = -q / 2.0 - math.copysign(math.sqrt(inv.abs_disc / 1728), q)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        y = u - p / (3.0 * u)
    r_tilde = _newton_polish(p, q, y)
    r = r_tilde - inv.b2 / 12.0
    b_sq = 3.0 * r_tilde * r_tilde + p
    z = math.sqrt(inv.abs_disc) / (8.0 * b_sq)
    if not inv.disc_positive:
        return RootData(r=r, r_tilde=r_tilde, b_sq=b_sq, z=z)
    near, far = 1.5 * abs(r_tilde) - z, 1.5 * abs(r_tilde) + z
    if r_tilde > 0.0:
        return RootData(r=r, r_tilde=r_tilde, b_sq=b_sq, z=z, e1=r, e2=r - near, e3=r - far)
    return RootData(r=r, r_tilde=r_tilde, b_sq=b_sq, z=z, e1=r + far, e2=r + near, e3=r)


def _trial_divide(n: int, limit: int | None = None) -> tuple[dict[int, int], int]:
    """Trial division of an int n >= 1 by 2, 3, 5 and the 30-wheel: the primes
    found, with their exponents in increasing order of p, and the cofactor
    that is left.

    The wheel steps f by 30 from 7 and tries the eight numbers prime to
    30 in each block of thirty, f, f+4, f+6, f+10, f+12, f+16, f+22 and
    f+24, at once before it touches the dict.  It stops once f passes the
    square root of what is left, taken once per division, so the cofactor
    is 1 or a prime; or once f passes limit, when every prime factor of
    the cofactor exceeds limit.  Trial division up to 2^10 costs 34 blocks,
    about 15-20 us, which is why squared_primes takes those primes by one
    gcd instead; 10^7 costs 333 334 blocks (about 0.2 s on CPython 3.11,
    one Xeon core)."""
    _require_int("n", n)
    if n < 1:
        raise ValueError("can only factor positive integers")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if limit is None:
        limit = n
    stop = min(math.isqrt(n), limit)
    f = 7
    while f <= stop:
        if not (
            n % f
            and n % (f + 4)
            and n % (f + 6)
            and n % (f + 10)
            and n % (f + 12)
            and n % (f + 16)
            and n % (f + 22)
            and n % (f + 24)
        ):
            for p in (f, f + 4, f + 6, f + 10, f + 12, f + 16, f + 22, f + 24):
                while n % p == 0:
                    factors[p] = factors.get(p, 0) + 1
                    n //= p
            stop = min(math.isqrt(n), limit)
        f += 30
    return factors, n


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization by 2, 3, 5 and the 30-wheel, the eight
    residues prime to 30 in each block of thirty.

    The loop stops once the divisor passes the square root of what is left
    of n, so it runs up to the larger of sqrt(P) and P2, P the largest
    prime factor and P2 the second largest counted with multiplicity,
    whatever n's size: a largest prime near 1e12 with small cofactors
    costs about 15 ms (CPython 3.11, one Xeon core).  The squared primes
    of a conductor need no full factorization; see ``squared_primes``."""
    factors, cofactor = _trial_divide(n)
    if cofactor > 1:
        factors[cofactor] = 1
    return factors


# The first thirteen primes.  An odd n > 41 below _PSI_13 that is a strong
# probable prime to each of them is prime (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86 (2017) 985-1003).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981

# (psi_k, k): below psi_k, the least strong pseudoprime to the first k
# prime bases (OEIS A014233), those k bases are exact.  psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11, so 8, 10 and 11 bases never enter.  Jaeschke,
# Math. Comp. 61 (1993) 915-926, for k <= 8; Jiang and Deng, Math. Comp.
# 83 (2014) 2915-2924, for k = 9 to 11; Sorenson and Webster for k = 12.
_MILLER_RABIN_BANDS = (
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)

# is_prime trial-divides below this bound, at most 34 wheel blocks.
_WHEEL_BELOW = 2**20


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin for an odd n > 41 on the first k prime bases, k the
    least that _MILLER_RABIN_BANDS makes exact for n's size, and on all
    thirteen from psi_12 = 318665857834031151167461 on: False proves n
    composite, and True proves n prime below _PSI_13.  A prime near 1e12
    takes five bases, about 0.035 ms (CPython 3.11, one Xeon core)."""
    count = len(_MILLER_RABIN_BASES)
    for psi, k in _MILLER_RABIN_BANDS:
        if n < psi:
            count = k
            break
    # n - 1 = d 2^s with d odd; (n - 1) & (1 - n) is the lowest set bit
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Whether n is prime: trial division below 2^20, and Miller-Rabin on
    at most the first thirteen prime bases, as many as are exact for n's
    size, from 2^20 up to 3317044064679887385961981 (excluded).  From
    there on, where no fixed set of bases is known to be exact, n is
    refused with ValueError at once."""
    _require_int("n", n)
    if n < _WHEEL_BELOW:
        return n >= 2 and factorize(n) == {n: 1}
    if n >= _PSI_13:
        raise ValueError(
            f"primality is decided only below {_PSI_13}, "
            "where Miller-Rabin on the first thirteen prime bases is exact"
        )
    return n % 2 == 1 and _is_strong_probable_prime(n)


def _primes_up_to(limit: int) -> list[int]:
    """The primes up to limit, by a bytearray sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(itertools.compress(range(2, limit + 1), sieve[2:]))


# squared_primes takes the primes up to _SMALL_LIMIT by one gcd with their
# product, those in (_SMALL_LIMIT, _GCD_LIMIT] by one gcd with
# _prime_product(), and trial-divides a composite cofactor above
# _GCD_LIMIT**3 up to _TRIAL_LIMIT.
_SMALL_LIMIT = 2**10
_GCD_LIMIT = 2**17
_TRIAL_LIMIT = 10**7

# The product of the 172 primes up to _SMALL_LIMIT, 1420 bits.
_SMALL_PRIME_PRODUCT = math.prod(_primes_up_to(_SMALL_LIMIT))


@functools.cache
def _prime_product() -> int:
    """The product of the primes in (_SMALL_LIMIT, _GCD_LIMIT], made on first
    use by a pairwise product tree."""
    level = [p for p in _primes_up_to(_GCD_LIMIT) if p > _SMALL_LIMIT]
    while len(level) > 1:
        level = [a * b for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1 :]
    return level[0]


def squared_primes(n: int) -> list[int]:
    """The primes p with p^2 | n, in increasing order, in three exact steps.

    One gcd g of n with the product of the primes up to 2^10 finds the
    small primes of n; g is squarefree, so ``factorize`` splits it after
    about one wheel block, and each of its primes is divided out of n with
    its exponent.  What is left, c, has every prime factor above 2^10.  A
    c above 2^20, unless it is a prime up to 2^51, takes one gcd g with
    the product of the primes in (2^10, 2^17]; gcd(g, c/g) holds the
    squared ones, and g's primes are divided out of c.  What is left up to
    2^51 has at most two prime factors, all above 2^17, and so has a prime
    up to 1e21; math.isqrt then tells whether either is a prime squared.
    ``is_prime`` (Miller-Rabin, exact there) is called at most once: on c
    before the gcd when c is at most 2^51, so that a prime conductor that
    size never makes the product, and on what the gcd leaves when that is
    above 2^51.  Only a larger composite is trial-divided up to 1e7 (about
    0.2 s), and refused with ValueError naming "conductor" when what is
    left there is still above 1e21 and could have three or more prime
    factors; the message gives a conductor of up to 64 digits in full and
    a longer one by its size in bits.  The gcds remove only primes that
    this trial division would, so the refusals are those of trial
    division up to 1e7 alone.  A random n up to 1e6 takes about 3 us, a
    prime near 1e12 about 0.04 ms and a p^2 q with p near 5e4 and q near
    1e12 about 0.15 ms, after about 11 ms once per process to make the
    product of the primes in (2^10, 2^17] (CPython 3.11, one Xeon core).
    """
    _require_int("n", n)
    if n < 1:
        raise ValueError("can only factor positive integers")
    square_ps = []
    c = n
    g = math.gcd(n, _SMALL_PRIME_PRODUCT)
    if g > 1:
        for p in factorize(g):
            c //= p
            if c % p == 0:
                square_ps.append(p)
                c //= p
                while c % p == 0:
                    c //= p
    # every prime factor of c is above 2^10, so a c up to 2^20 is 1 or prime
    if c > _SMALL_LIMIT**2 and not (c <= _GCD_LIMIT**3 and is_prime(c)):
        g = math.gcd(c, _prime_product() % c)
        if g > 1:
            h = math.gcd(g, c // g)
            # two primes above 2^10 make more than 2^20: a smaller h is prime
            if h >= _SMALL_LIMIT**2:
                square_ps += sorted(factorize(h))
            elif h > 1:
                square_ps.append(h)
            while g > 1:
                c //= g
                g = math.gcd(c, g)
        if c > _GCD_LIMIT**3 and not (c <= _TRIAL_LIMIT**3 and is_prime(c)):
            factors, c = _trial_divide(c, _TRIAL_LIMIT)
            if c > _TRIAL_LIMIT**3:
                # past 64 digits, digits would swamp the line's error, and
                # str() refuses an int of more than 4300: name the size
                named = n if n < 10**64 else f"of {n.bit_length()} bits"
                raise ValueError(
                    f'"conductor" {named} is refused: trial division up to 10^7 leaves a cofactor '
                    "above 10^21, whose squared primes it cannot decide"
                )
            square_ps += [p for p, e in factors.items() if e >= 2]
    root = math.isqrt(c)
    if c > 1 and root * root == c:
        square_ps.append(root)
    return square_ps


def trace_of_frobenius(curve: CurveModel, p: int) -> int:
    """a_p = p + 1 - #E(F_p).

    From p = 110 on, baby-step giant-step on points of the curve and of its
    quadratic twist narrows a_p to the t in the Hasse interval that every
    point admits, and returns it when one is left; below 110, or when six
    points leave more than one, the points are counted by a Legendre-symbol
    sum over F_p.  Requires p prime, p below the counting cutoff, and good
    reduction (p does not divide the discriminant of the supplied model).
    """
    _require_int("p", p)
    # the cutoff first, so that a p past it gets that message, not the
    # refusal is_prime gives from 3317044064679887385961981 on
    if p > POINT_COUNT_CUTOFF:
        raise ValueError(f"p = {p} exceeds the point-counting cutoff {POINT_COUNT_CUTOFF}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    inv = derive_invariants(curve)
    if inv.disc % p == 0:
        raise ValueError(f"bad reduction: {p} divides the discriminant")
    return _count_trace(curve, inv, p)


def _count_trace(curve: CurveModel, inv: Invariants, p: int) -> int:
    """a_p at a prime p of good reduction, inv being curve's invariants;
    the caller has checked p.  Baby-step giant-step from _BSGS_FROM on,
    the naive sum below it and whenever the points tried leave more than
    one candidate."""
    a_p = _trace_by_bsgs(inv, p) if p >= _BSGS_FROM else None
    if a_p is None:
        a_p = _count_naive(curve, inv, p)
    if a_p * a_p > 4 * p:
        raise ArithmeticError(f"point count violates the Hasse bound at p = {p}")
    return a_p


def _count_naive(curve: CurveModel, inv: Invariants, p: int) -> int:
    """a_p by an O(p) count: F_2 x F_2 enumerated at p = 2, a Legendre-symbol
    sum over x in F_p at odd p."""
    if p == 2:
        a1, a2, a3, a4, a6 = curve.a_invariants
        count = 1  # point at infinity
        for x in range(2):
            for y in range(2):
                lhs = y * y + a1 * x * y + a3 * y
                rhs = x**3 + a2 * x * x + a4 * x + a6
                if (lhs - rhs) % 2 == 0:
                    count += 1
        return 2 + 1 - count
    # Completing the square turns the fibre count over x into
    # 1 + chi(4x^3 + b2 x^2 + 2 b4 x + b6) with chi the Legendre symbol;
    # i and p - i have the same square.
    chi = bytearray(p)
    for i in range(1, (p + 1) // 2):
        chi[i * i % p] = 1
    b2, b4, b6 = inv.b2 % p, inv.b4 % p, inv.b6 % p
    total = 0
    for x in range(p):
        v = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        if v:
            total += 1 if chi[v] else -1
    return -total


# Primes below _BSGS_FROM are counted naively: the O(p) sum and baby-step
# giant-step cost the same, about 33 us, between p = 100 and 110, and from
# 110 on baby-step giant-step is cheaper (27 against 36 us averaged over
# 110-130, 31 against 65 us over 200-220; CPython 3.11, one Xeon core);
# small p leave the Hasse interval wide against the group order.
# _BSGS_TRIES points, alternating between curve and twist, are tried
# before the naive count decides.
_BSGS_FROM = 110
_BSGS_TRIES = 6


def _trace_by_bsgs(inv: Invariants, p: int) -> int | None:
    """a_p by Shanks-Mestre baby-step giant-step, p >= 5 of good reduction,
    or None when the points tried leave more than one candidate.

    The model is taken to Y^2 = X^3 + a X + b with a = -27 c4, b = -54 c6
    (X = 36x + 3b2, Y = 108(2y + a1 x + a3)).  For x with d = x^3 + a x + b
    nonzero, (d x, d^2) lies on Y^2 = X^3 + a d^2 X + b d^3, which is the
    curve when d is a square mod p and its quadratic twist when it is not;
    so no square root is taken.  A point P of the curve admits the t with
    (p + 1 - t) P = O, a point of the twist those with (p + 1 + t) P = O,
    |t| <= isqrt(4p) by Hasse.  a_p is in every such set, so when the
    intersection over the points tried is a single t, that t is a_p.

    x runs from 1: the first x with d nonzero gives the first point, on
    whichever side Euler's criterion puts it (one Euler test), and each
    later point is the next x on the other side from the point before it.
    x = 0 is skipped because X = 0 is a root of the 3-division polynomial
    3X^4 + 6aX^2 + 12bX - a^2 when a = 0, as on every j = 0 model: there
    it is a point of order 3, which admits every t of one residue class
    mod 3 and so never decides a_p alone.  Over the twelve curves of the
    Euler-product benchmark and every good p in [110, 2000] this takes
    1.14 points per prime (1.19 on the j = 0 curves 27a1 and 36a1) and
    never falls back to the naive count; every point on whichever side
    its x lies took 1.17 and fell back at 3 primes, which is why the
    sides alternate after the first point.  One a_p of 37a1 costs about 25 us near
    p = 2000 and 0.13 ms near p = 999983 (CPython 3.11, one Xeon core).
    """
    a, b = -27 * inv.c4 % p, -54 * inv.c6 % p
    half = (p - 1) // 2
    bound = math.isqrt(4 * p)
    candidates: set[int] | None = None
    # Euler's criterion reads 1 on the curve, p - 1 on the twist, and never
    # 0 for d nonzero, so the first point may be on either side
    x, side = 0, 0
    for _ in range(_BSGS_TRIES):
        while True:
            x += 1
            if x == p:
                return None
            d = (x * x * x + a * x + b) % p
            if d and (euler := pow(d, half, p)) != side:
                break
        side = euler
        multiples = _hasse_multiples((d * x % p, d * d % p), a * d * d % p, p, bound)
        found = multiples if side == 1 else {-u for u in multiples}
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    return None


def _hasse_multiples(point: tuple[int, int], a: int, p: int, bound: int) -> set[int]:
    """Every u with |u| <= bound and (p + 1 - u) P = O, P = point on
    Y^2 = X^3 + a X + b over F_p (b is implied by the point).

    u = c + j with j in [-m, m] and centres c spaced w = 2m + 1 apart:
    the giant step R = (p + 1 - c) P equals j P exactly for those u.  The
    baby steps j P, j = 1..m, are kept by X-coordinate with every j that
    has it, and the j with j P = O apart, so a point of small order yields
    every match, not the first.  The first R comes from the giant step
    G = w P by ``_giant_multiple``, and each next R is R - G.  With
    m = isqrt(bound) + 1 that is m baby steps, about log2(p / w) doublings
    with their additions, and about 2 sqrt(bound) giant steps: about 28
    group operations near p = 2000 and 110 near p = 1e6 on a point of
    large order.  The additions in the two loops are written out, with
    ``_ec_add`` for O, doubling and opposite points."""
    m = math.isqrt(bound) + 1
    w = 2 * m + 1
    px, py = point
    by_x: dict[int, list[tuple[int, int]]] = {}
    zeros = [0]
    steps: list[tuple[int, int] | None] = [None]
    step = None
    for j in range(1, m + 1):
        if step is None or step[0] == px:
            step = _ec_add(step, point, a, p)
        else:
            x1, y1 = step
            slope = (py - y1) * pow(px - x1, -1, p) % p
            x3 = (slope * slope - x1 - px) % p
            step = (x3, (slope * (x1 - x3) - y1) % p)
        steps.append(step)
        if step is None:
            zeros.append(j)
        else:
            by_x.setdefault(step[0], []).append((j, step[1]))
    giant = _ec_add(_ec_add(step, step, a, p), point, a, p)
    minus_giant = None if giant is None else (giant[0], -giant[1] % p)
    c = m - bound
    r = _giant_multiple(p + 1 - c, steps, giant, a, p)
    found = set()
    while True:
        if r is None:
            for j in zeros:
                found.update((c + j, c - j))
        else:
            rx, ry = r
            for j, y in by_x.get(rx, ()):
                if y == ry:
                    found.add(c + j)
                if y == -ry % p:
                    found.add(c - j)
        c += w
        if c - m > bound:
            break
        if r is None or minus_giant is None or rx == minus_giant[0]:
            r = _ec_add(r, minus_giant, a, p)
        else:
            gx, gy = minus_giant
            slope = (gy - ry) * pow(gx - rx, -1, p) % p
            x3 = (slope * slope - rx - gx) % p
            r = (x3, (slope * (rx - x3) - ry) % p)
    return {u for u in found if -bound <= u <= bound}


def _giant_multiple(
    k: int, steps: list[tuple[int, int] | None], giant: tuple[int, int] | None, a: int, p: int
) -> tuple[int, int] | None:
    """k P for k >= 0, from steps = [O, P, 2P, ..., mP] and giant = w P,
    w = 2m + 1: with k = q w + r, 0 <= r < w, it is q G + r P when r <= m
    and (q + 1) G - (w - r) P when r > m, so its only doublings are those
    of q G, about log2(k / w), and one addition takes in the baby step."""
    m = len(steps) - 1
    q, r = divmod(k, 2 * m + 1)
    if r <= m:
        near = steps[r]
    else:
        q += 1
        near = steps[2 * m + 1 - r]
        if near is not None:
            near = (near[0], -near[1] % p)
    result = None
    for bit in bin(q)[2:]:
        result = _ec_add(result, result, a, p)
        if bit == "1":
            result = _ec_add(result, giant, a, p)
    return _ec_add(result, near, a, p)


def _ec_add(P: tuple[int, int] | None, Q: tuple[int, int] | None, a: int, p: int) -> tuple[int, int] | None:
    """P + Q on Y^2 = X^3 + a X + b over F_p, None being the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


_CM_J_VALUES = frozenset(CM_J_INVARIANTS.values())


def is_cm(inv: Invariants) -> bool:
    """True iff j = c4^3/disc is one of the thirteen rational CM j-invariants."""
    return inv.j_den == 1 and inv.j_num in _CM_J_VALUES
