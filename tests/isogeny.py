"""Vélu's isogeny formulas over Q, in exact rational arithmetic.

An independent way to build curves isogenous to a given one, so that
invariants shared across an isogeny class (a_p at good primes, and the
period lattice up to the degree) can test the library.  Uses only the
standard library.

For a rational point P of odd order l on

    y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6,

take S, one point from each pair {Q, -Q} of nonzero multiples of P, and
for Q = (x, y) in S

    gx = 3x^2 + 2 a2 x + a4 - a1 y,   gy = -2y - a1 x - a3,
    v_Q = 2 gx - a1 gy,   u_Q = gy^2.

With v = sum v_Q and w = sum (u_Q + x v_Q), the quotient E/<P> is

    [a1, a2, a3, a4 - 5v, a6 - (a1^2 + 4 a2) v - 7w],

and the isogeny pulls its invariant differential back to that of E
(J. Vélu, C. R. Acad. Sci. Paris 273 (1971) 238-241).
"""

from __future__ import annotations

from fractions import Fraction

Point = tuple[Fraction, Fraction]


def add(a: tuple[int, ...], P: Point | None, Q: Point | None) -> Point | None:
    """P + Q on the curve with a-invariants a; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, a6 = a
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 + y2 + a1 * x2 + a3 == 0:
            return None
        slope = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope + a1 * slope - a2 - x1 - x2
    return x3, -(slope + a1) * x3 - (y1 - slope * x1) - a3


def multiples(a: tuple[int, ...], P: Point) -> list[Point]:
    """P, 2P, ... up to the last multiple before the point at infinity."""
    a1, a2, a3, a4, a6 = a
    x, y = P
    if y * y + a1 * x * y + a3 * y != x**3 + a2 * x * x + a4 * x + a6:
        raise ValueError(f"{P} is not on the curve {list(a)}")
    points, Q = [], P
    while Q is not None:
        points.append(Q)
        Q = add(a, Q, P)
        if len(points) == 12:  # Mazur: a rational torsion point has order at most 12
            raise ValueError(f"{P} is not a torsion point")
    return points


def velu(a: tuple[int, ...], point: tuple[int, int]) -> list[int]:
    """The a-invariants of E/<P>, P a rational point of odd order on the
    curve E with integral a-invariants a, by Vélu's formulas."""
    points = multiples(a, (Fraction(point[0]), Fraction(point[1])))
    if len(points) % 2:
        raise ValueError(f"{point} has even order {len(points) + 1}")
    a1, a2, a3, a4, a6 = a
    # Q and -Q = (l - k) P, k = 1, ..., (l - 1)/2, pair off the multiples
    v = w = Fraction(0)
    for x, y in points[: len(points) // 2]:
        gx = 3 * x * x + 2 * a2 * x + a4 - a1 * y
        gy = -2 * y - a1 * x - a3
        v_q = 2 * gx - a1 * gy
        v += v_q
        w += gy * gy + x * v_q
    image = [a1, a2, a3, a4 - 5 * v, a6 - (a1 * a1 + 4 * a2) * v - 7 * w]
    if any(c.denominator != 1 for c in map(Fraction, image)):
        raise ValueError(f"Vélu's model {image} is not integral")
    return [int(c) for c in image]
