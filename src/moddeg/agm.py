"""Arithmetic-geometric mean and fundamental-parallelogram areas.

The area Omega of the fundamental parallelogram of a real elliptic curve
is the real period multiplied by the imaginary part of the imaginary
period; both periods are AGM values of simple root expressions.  This
module computes Omega for either discriminant sign and certifies the
library's Lemma 1,

    1 / Omega  >=  D^(1/6) / 14.045,        D = |disc|,

together with the two extremal constants behind it:

* positive discriminant, with t = (e1-e2)/(e1-e3) in (0,1):

      1/Omega = (e1-e3) agm(1, sqrt(t)) agm(1, sqrt(1-t)) / pi^2
              >= D^(1/6) agm(1, 1/sqrt(2))^2 / pi^2,

  the quotient being minimised at t = 1/2;

* negative discriminant, with c = r_tilde / Z:

      1/Omega = D^(1/6) (1 + 9c^2/4)^(1/6) M(m+(c)) M(m-(c)) / pi^2,
      M(x) = agm(1, x),   m+-(c) = sqrt(1/2 +- 3c / sqrt(16 + 36 c^2)),

  minimised at c = +-sqrt(4/3).

The root geometry (r_tilde, z, B^2) of either sign comes from
``curves.two_torsion_roots``, with z = sqrt(D) / (8 B^2) taken from the
exact discriminant, so no root difference below cancels.  Lemma 1 uses
the certification layer's ``Waypoint``: ``lemma1_check`` returns one, and
``lemma1_constants`` the two named "lemma1.case_pos_constant" and
"lemma1.case_neg_constant".

``period_data`` and ``lemma1_check`` take the named tuples of ``curves``
and build theirs by position around private kernels of plain floats,
one for each discriminant sign.  ``_model_values`` is the model side of
a report in one call: the invariants, Omega and Lemma 1 of the
a-invariants ``moddeg.report.build_report`` has checked, from the same
kernels, with no named tuple but ``Invariants`` built and no value
checked twice.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .curves import Invariants, RootData, _invariants, _isolated_root, _root_gaps
from .zerofree import _PASS_RULE, Waypoint

__all__ = [
    "AGM_TOL",
    "AGM_MAX_ITER",
    "AREA_BOUND_DENOMINATOR",
    "PeriodData",
    "agm",
    "period_data",
    "lemma1_constants",
    "lemma1_check",
]

AGM_TOL = 1e-15
AGM_MAX_ITER = 64

# Certified denominator of Lemma 1; the true worst constant (the negative
# discriminant case) is just below it.
AREA_BOUND_DENOMINATOR = 14.045


class PeriodData(namedtuple("PeriodData", "omega real_period imag_part inv_omega case_tag t_or_c")):
    """Area Omega with its two period factors.

    case_tag is "pos_disc" or "neg_disc", and t_or_c the shape parameter
    of the case: t = (e1-e2)/(e1-e3) for positive discriminant,
    c = r_tilde/Z for negative discriminant.
    """

    __slots__ = ()


def agm(x: float, y: float) -> float:
    """Arithmetic-geometric mean of two positive reals.

    Stops when |a - b| <= 1e-15 * a; quadratic convergence makes the
    64-iteration cap unreachable in practice.
    """
    if not (x > 0.0 and y > 0.0):
        raise ValueError("agm requires strictly positive arguments")
    a, b = float(x), float(y)
    if a < b:
        a, b = b, a
    for _ in range(AGM_MAX_ITER):
        a, b = (a + b) / 2.0, math.sqrt(a * b)
        if abs(a - b) <= AGM_TOL * a:
            break
    return (a + b) / 2.0


def _area_pos(r_tilde: float, z: float) -> tuple[float, float, float, float, str, float]:
    """``PeriodData``'s fields, in its order, from the three-real-root
    geometry of ``two_torsion_roots``: the isolated root r_tilde of the
    depressed cubic and the half gap z of the other two.

    The root differences are d12, d13, d23 for e1 > e2 > e3: 2z and
    3|r_tilde|/2 -+ z, none formed by cancellation.  By AGM homogeneity,
    1/Omega is the closed form of the module docstring with t = d12/d13.
    """
    if not 0.0 < z < 1.5 * abs(r_tilde):
        raise ValueError("three real roots need 0 < z < 3|r_tilde|/2")
    near, far = _root_gaps(r_tilde, z)
    d12, d13, d23 = (near, far, 2.0 * z) if r_tilde > 0.0 else (2.0 * z, far, near)
    real_period = math.pi / agm(math.sqrt(d12), math.sqrt(d13))
    imag_part = math.pi / agm(math.sqrt(d23), math.sqrt(d13))
    omega = real_period * imag_part
    return omega, real_period, imag_part, 1.0 / omega, "pos_disc", d12 / d13


def _area_neg(r_tilde: float, z: float, b_sq: float) -> tuple[float, float, float, float, str, float]:
    """``PeriodData``'s fields, in its order, from the one-real-root
    geometry of ``two_torsion_roots``: r_tilde, the imaginary part z > 0
    of the complex pair, and B^2.

    With A = 3 r_tilde (so that 4B^2 - A^2 = 4z^2) the real period is
    2 pi / agm(2 sqrt(B), sqrt(2B+A)) and the imaginary part is
    pi / agm(2 sqrt(B), sqrt(2B-A)).  Since B^2 = Z^2 (1 + 9c^2/4) by
    construction of the roots, 1/Omega is the closed form of the module
    docstring.
    """
    if not z > 0.0:
        raise ValueError("one real root needs z > 0")
    if not b_sq > 0.0:
        raise ValueError("one real root needs b_sq > 0")
    c = r_tilde / z
    # (2B +- A)/(4B) = 1/2 +- 3c/sqrt(16+36c^2); the branch that vanishes
    # as |c| grows is rationalized, and both periods are scaled out of the
    # stable ratios via agm homogeneity (the raw differences 2B -+ A
    # cancel catastrophically for |c| beyond ~1e4).
    s = math.hypot(4.0, 6.0 * c)
    if c >= 0.0:
        plus = (s + 6.0 * c) / (2.0 * s)
        minus = 8.0 / (s * (s + 6.0 * c))
    else:
        plus = 8.0 / (s * (s - 6.0 * c))
        minus = (s - 6.0 * c) / (2.0 * s)
    agm_plus = agm(1.0, math.sqrt(plus))
    agm_minus = agm(1.0, math.sqrt(minus))
    sqrt_b = b_sq**0.25
    # real period 2 pi / agm(2 sqrt(B), sqrt(2B+A)) = pi/(sqrt(B) agm(1, sqrt(plus)))
    real_period = math.pi / (sqrt_b * agm_plus)
    # imaginary part pi / agm(2 sqrt(B), sqrt(2B-A))
    imag_part = math.pi / (2.0 * sqrt_b * agm_minus)
    omega = real_period * imag_part
    return omega, real_period, imag_part, 1.0 / omega, "neg_disc", c


def period_data(inv: Invariants, roots: RootData) -> PeriodData:
    """Period data of the model with these invariants, from the roots
    ``two_torsion_roots(inv)``; dispatches on the discriminant sign."""
    if inv.disc_positive:
        return PeriodData._make(_area_pos(roots.r_tilde, roots.z))
    return PeriodData._make(_area_neg(roots.r_tilde, roots.z, roots.b_sq))


def lemma1_constants() -> tuple[Waypoint, Waypoint]:
    """The two extremal constants pi^2 / (extremal AGM product), each
    certified below 14.045: k1 for three real roots (at t = 1/2), k2 for
    one real root (at c = sqrt(4/3))."""
    k1 = math.pi**2 / agm(1.0, 1.0 / math.sqrt(2.0)) ** 2
    k2 = math.pi**2 / (
        4.0 ** (1.0 / 6.0)
        * agm(1.0, math.sqrt(0.5 + math.sqrt(3.0) / 4.0))
        * agm(1.0, math.sqrt(0.5 - math.sqrt(3.0) / 4.0))
    )
    return (
        Waypoint("lemma1.case_pos_constant", k1, "<=", AREA_BOUND_DENOMINATOR),
        Waypoint("lemma1.case_neg_constant", k2, "<=", AREA_BOUND_DENOMINATOR),
    )


def lemma1_check(inv: Invariants, period: PeriodData) -> Waypoint:
    """The waypoint 1/Omega >= D^(1/6)/14.045 for the model with these
    invariants and period data."""
    return Waypoint("lemma1", period.inv_omega, _LEMMA1_OP, _lemma1_rhs(inv.abs_disc))


# Lemma 1's op, and the comparison Waypoint.passed makes for it.
_LEMMA1_OP = ">="
_lemma1_holds = _PASS_RULE[_LEMMA1_OP]


def _lemma1_rhs(abs_disc: int) -> float:
    """D^(1/6)/14.045, the bound of ``lemma1_check`` for D = abs_disc."""
    return abs_disc ** (1.0 / 6.0) / AREA_BOUND_DENOMINATOR


def _model_values(a1: int, a2: int, a3: int, a4: int, a6: int) -> tuple[Invariants, float, float, str, float, bool]:
    """The model side of a report for these a-invariants, taken as ints
    without a check: the ``Invariants``, then omega, inv_omega and
    case_tag of ``period_data``, and the bound and verdict of
    ``lemma1_check``, from the kernels behind ``derive_invariants``,
    ``two_torsion_roots`` and those two."""
    inv = _invariants(a1, a2, a3, a4, a6)
    b2, b4, b6, _, c4, c6, _, abs_disc, disc_positive, _, _ = inv
    r_tilde, b_sq, z = _isolated_root(b2, b4, b6, c4, c6, abs_disc, disc_positive)
    omega, _, _, inv_omega, case_tag, _ = _area_pos(r_tilde, z) if disc_positive else _area_neg(r_tilde, z, b_sq)
    rhs = _lemma1_rhs(abs_disc)
    return inv, omega, inv_omega, case_tag, rhs, _lemma1_holds(inv_omega, rhs)
