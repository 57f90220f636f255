"""Exact Weierstrass-model arithmetic.

Integer b/c-invariants and the discriminant, the roots of the 2-torsion
polynomial ``4x^3 + b2 x^2 + 2 b4 x + b6`` (the polynomial appearing on
the right side of ``y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6``) through the
geometry of its isolated root and the exact discriminant, trial-division
factorization and primality, point counts over prime fields (one counting
routine, which the Euler-product estimator calls with the invariants it
derived once per curve: Shanks-Mestre baby-step giant-step on the curve
and its quadratic twist, with an O(p) Legendre-symbol sum for small p and
whenever the points tried leave more than one candidate), and CM
detection by rational j-invariant.

The conductor is always an input, never computed; reports downstream
carry a ``"conductor_provenance": "supplied"`` field.  Models are used exactly as
given (no re-minimalization): every derived quantity, in particular the
discriminant feeding the area bound, belongs to the supplied model.
"""

from __future__ import annotations

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
        too_large = 4 * inv.c4**3 > 3 * 48**3 * _DOUBLE_MAX**2
    else:
        too_large = inv.c6**2 > 1728**2 * _DOUBLE_MAX
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


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization by 2, 3 and the numbers 6k +- 1.

    The loop stops once the divisor's square exceeds what is left of n, so
    it runs up to the larger of sqrt(P) and P2, P the largest prime factor
    and P2 the second largest counted with multiplicity, whatever n's size:
    a largest prime near 1e12 with small cofactors costs about 50 ms
    (CPython 3.11, one Xeon core)."""
    _require_int("n", n)
    if n < 1:
        raise ValueError("can only factor positive integers")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_prime(n: int) -> bool:
    _require_int("n", n)
    return n >= 2 and factorize(n) == {n: 1}


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
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p > POINT_COUNT_CUTOFF:
        raise ValueError(f"p = {p} exceeds the point-counting cutoff {POINT_COUNT_CUTOFF}")
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
# giant-step cost the same, about 35 us, near p = 110 (CPython 3.11, one
# Xeon core), and small p leave the Hasse interval wide against the group
# order.  _BSGS_TRIES points, alternating curve and twist, are tried before
# the naive count decides.
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
    """
    a, b = -27 * inv.c4 % p, -54 * inv.c6 % p
    half = (p - 1) // 2
    bound = math.isqrt(4 * p)
    candidates: set[int] | None = None
    x = -1
    for attempt in range(_BSGS_TRIES):
        # Euler's criterion reads 1 on the curve, p - 1 on the twist
        side = 1 if attempt % 2 == 0 else p - 1
        d = 0
        while not d or pow(d, half, p) != side:
            x += 1
            if x == p:
                return None
            d = (x * x * x + a * x + b) % p
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
    every match, not the first."""
    m = math.isqrt(bound) + 1
    w = 2 * m + 1
    by_x: dict[int, list[tuple[int, int]]] = {}
    zeros = [0]
    step = None
    for j in range(1, m + 1):
        step = _ec_add(step, point, a, p)
        if step is None:
            zeros.append(j)
        else:
            by_x.setdefault(step[0], []).append((j, step[1]))
    giant = _ec_add(_ec_add(step, step, a, p), point, a, p)
    minus_giant = None if giant is None else (giant[0], -giant[1] % p)
    c = m - bound
    r = _ec_mul(p + 1 - c, point, a, p)
    found = set()
    while c - m <= bound:
        if r is None:
            for j in zeros:
                found.update((c + j, c - j))
        else:
            for j, y in by_x.get(r[0], ()):
                if y == r[1]:
                    found.add(c + j)
                if y == -r[1] % p:
                    found.add(c - j)
        r = _ec_add(r, minus_giant, a, p)
        c += w
    return {u for u in found if -bound <= u <= bound}


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


def _ec_mul(k: int, P: tuple[int, int], a: int, p: int) -> tuple[int, int] | None:
    """k P for k >= 1, by doubling and adding along the bits of k."""
    result = P
    for bit in bin(k)[3:]:
        result = _ec_add(result, result, a, p)
        if bit == "1":
            result = _ec_add(result, P, a, p)
    return result


_CM_J_VALUES = frozenset(CM_J_INVARIANTS.values())


def is_cm(inv: Invariants) -> bool:
    """True iff j = c4^3/disc is one of the thirteen rational CM j-invariants."""
    return inv.j_den == 1 and inv.j_num in _CM_J_VALUES
