"""Zero-free-region constants and their numeric certification.

The symmetric-square L-function of a rational elliptic curve has no real
zeros with s >= 1 - delta/log(n2/C), where n2 >= 142 is the
symmetric-square conductor and (delta, C) depend on whether the curve has
CM and, if so, on the CM field:

    non-CM:     delta = 2(5 - 2 sqrt(6))/5,      C = 96    (Lemma 2)
    CM, Q(i):   delta = sqrt(2) + 2 - 2^(7/4),   C = 100   (Lemma 3, case I)
    CM, Q(z3):  delta = (554 - 12 sqrt(2014))/261, C = 64  (Lemma 3, case II)

Each proof is a contradiction chain evaluated at the extremal point
sigma = 1 + eta*delta/log(n2/C), with eta = -a1/(2 a2) the double root
of a case quadratic a2 x^2 + a1 x + a0 whose discriminant vanishes
exactly at delta_max.  The
case table NONCM, CM_QI, CM_ZETA3 holds delta_max, C and that quadratic;
the certify_* operations recompute every waypoint of the chain and
compare it against its certified bound.  Each returns its waypoints as a
tuple, named "<case>.<step>" (noncm, cm_qi, cm_zeta3) as verify-lemmas
prints them.  The cosine polynomials behind
the chains are nonnegative by their factorisation; trig_poly_expand gives
the exact Fourier weights of the Q(zeta_3) one.

Gamma-factor sums are the s-derivatives of the log of the relevant
Gamma-product, so arguments of the form s/2 carry a chain factor 1/2;
the certified bounds (1.74, 2.821, 153) are tight for this reading.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .curves import _require_int
from .specfun import _bisect, digamma

__all__ = [
    "MIN_CERTIFIED_N2",
    "MAX_CERTIFIED_N2",
    "RegionConstants",
    "Waypoint",
    "NONCM",
    "CM_QI",
    "CM_ZETA3",
    "certify_noncm",
    "certify_cm_qi",
    "certify_cm_zeta3",
    "trig_poly_expand",
    "quintic_beta_optimum",
]

# Standing assumption of every certification: n2 >= 142 (conductor >= 20000).
MIN_CERTIFIED_N2 = 142
# The chains run in doubles, and Lemma 4's 4000000.0 * n2 overflows above
# about 4.5e301.
MAX_CERTIFIED_N2 = 10**300

SQRT2 = math.sqrt(2.0)


# The one pass rule of every certified inequality: each op's comparison of
# a value with its bound, with no slack.
_PASS_RULE = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    "abs<=": lambda value, bound: abs(value) <= bound,
    "in": lambda value, lo_hi: lo_hi[0] <= value <= lo_hi[1],
    "abs_diff<=": lambda value, target_tol: abs(value - target_tol[0]) <= target_tol[1],
}


class Waypoint(namedtuple("Waypoint", "name value op bound")):
    """One certified inequality of a contradiction chain; a certification
    names it "<lemma>.<step>", the row name verify-lemmas prints.

    op is one of "<=", "<", ">=", "abs<=", "in" and "abs_diff<="; bound
    is a float, or the pair (lo, hi) for "in" and (target, tol) for
    "abs_diff<=".  ``passed`` applies op to value and bound with no slack,
    and raises ValueError for any other op.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        rule = _PASS_RULE.get(self.op)
        if rule is None:
            raise ValueError(f"unknown waypoint op {self.op!r}")
        return rule(self.value, self.bound)


class RegionConstants(namedtuple("RegionConstants", "delta_max c_param quadratic")):
    """Zero-free region data for one case.

    quadratic(delta) gives the coefficients (a2, a1, a0) of the case
    quadratic a2 x^2 + a1 x + a0, whose discriminant vanishes at
    delta_max.
    """

    __slots__ = ()


NONCM = RegionConstants(  # Lemma 2
    delta_max=2.0 * (5.0 - 2.0 * math.sqrt(6.0)) / 5.0,
    c_param=96,
    quadratic=lambda d: (2.5 * d, 2.5 * d - 1.0, 2.0),
)
CM_QI = RegionConstants(  # Lemma 3, case I
    delta_max=SQRT2 + 2.0 - 2.0**1.75,
    c_param=100,
    quadratic=lambda d: (d * SQRT2, d * SQRT2 - 2.0 * SQRT2 + 2.0, 2.0),
)
CM_ZETA3 = RegionConstants(  # Lemma 3, case II
    delta_max=(554.0 - 12.0 * math.sqrt(2014.0)) / 261.0,
    c_param=64,
    quadratic=lambda d: (261.0 * d, 261.0 * d - 130.0, 212.0),
)


def _n2_value(n2: int) -> int:
    """n2, checked to be an exact integer in the certified range [142, 10**300]."""
    _require_int("n2", n2)
    if n2 < MIN_CERTIFIED_N2:
        raise ValueError(f"n2 = {n2} is below the certified minimum {MIN_CERTIFIED_N2}")
    if n2 > MAX_CERTIFIED_N2:
        raise ValueError("n2 is above the certified maximum 10**300")
    return n2


def _extremal_points(region: RegionConstants, n2: int) -> tuple[float, float]:
    """sigma and sigma - (1 - beta) at the chain's extremal parameters,
    for an n2 in the certified range."""
    log_ratio = math.log(_n2_value(n2) / region.c_param)
    delta = region.delta_max
    eta = _endpoint_eta(region)
    sigma = 1.0 + eta * delta / log_ratio
    sigma_shift = 1.0 + delta * (eta - 1.0) / log_ratio
    return sigma, sigma_shift


def _endpoint_eta(region: RegionConstants) -> float:
    """eta, the double root -a1/(2 a2) of the case quadratic at delta_max."""
    a2, a1, _ = region.quadratic(region.delta_max)
    return -a1 / (2.0 * a2)


def _endpoint_disc(region: RegionConstants) -> tuple[float, float]:
    """The discriminant of the case quadratic at delta_max, and its scale
    max(a1^2, |4 a2 a0|)."""
    a2, a1, a0 = region.quadratic(region.delta_max)
    return a1 * a1 - 4.0 * a2 * a0, max(a1 * a1, abs(4.0 * a2 * a0))


def certify_noncm(n2: int) -> tuple[Waypoint, ...]:
    """Certify the non-CM contradiction chain at the extremal point.

    The Gamma-product here is Gamma(s/2)^3 Gamma(s+1)^4 Gamma((s+1)/2)^3
    Gamma(s+2), so its log-derivative is 1.5 psi(s/2) + 4 psi(s+1)
    + 1.5 psi((s+1)/2) + psi(s+2).
    """
    sigma, sigma_shift = _extremal_points(NONCM, n2)
    disc, scale = _endpoint_disc(NONCM)

    gamma_sum = (
        1.5 * digamma(sigma / 2.0)
        + 4.0 * digamma(sigma + 1.0)
        + 1.5 * digamma((sigma + 1.0) / 2.0)
        + digamma(sigma + 2.0)
    )
    middle = 2.0 / sigma - 3.0 / sigma_shift
    log_32_pi8 = math.log(32.0 * math.pi**8)
    # Contradiction total: certified bounds for the curve-dependent terms,
    # computed values for the absolute constants.
    total = -0.84 - log_32_pi8 + 1.74 + 2.5 * math.log(96.0)

    return (
        Waypoint("noncm.sigma_max", sigma, "<=", 1.46),
        Waypoint("noncm.quadratic_disc_rel", abs(disc) / scale, "abs<=", 1e-12),
        Waypoint("noncm.gamma_factor_sum", gamma_sum, "<=", 1.74),
        Waypoint("noncm.middle_term", middle, "<=", -0.84),
        Waypoint("noncm.log_32_pi8", log_32_pi8, "in", (12.62, 12.63)),
        Waypoint("noncm.contradiction_total", total, "<=", -0.30),
    )


def certify_cm_qi(n2: int) -> tuple[Waypoint, ...]:
    """Certify the Q(i) chain (cosine polynomial (1 + sqrt(2) cos t)^2).

    Gamma-product: Gamma(s/2)^2 weighted into psi(s/2) after the chain
    factor, plus 2 sqrt(2) psi(s+1) + psi(s+2).  The fourth symmetric
    power has the same conductor as the square, n4 = n2, since all the
    relevant inertia groups are C2, C4 or Q8.

    The region statement takes C = 64 for all CM cases; this chain is
    certified with its own C = 100, which yields the weaker stated region.
    """
    sigma, sigma_shift = _extremal_points(CM_QI, n2)

    gamma_sum = digamma(sigma / 2.0) + 2.0 * SQRT2 * digamma(sigma + 1.0) + digamma(sigma + 2.0)
    middle = 2.0 / sigma - 2.0 * SQRT2 / sigma_shift
    # -(2 log(1/pi) + 2 sqrt(2) log(1/4pi)), certified as 9.448 +- 0.001.
    const_block = 2.0 * math.log(math.pi) + 2.0 * SQRT2 * math.log(4.0 * math.pi)
    endpoint_disc, _ = _endpoint_disc(CM_QI)
    total = -0.612 - 9.448 + 2.821 + SQRT2 * math.log(100.0)

    return (
        Waypoint("cm_qi.sigma_max", sigma, "<=", 1.8),
        Waypoint("cm_qi.endpoint_disc", endpoint_disc, "abs<=", 1e-12),
        Waypoint("cm_qi.gamma_factor_sum", gamma_sum, "<=", 2.821),
        Waypoint("cm_qi.middle_term", middle, "<=", -0.612),
        Waypoint("cm_qi.constant_block", const_block, "in", (9.448 - 0.001, 9.448 + 0.001)),
        Waypoint("cm_qi.contradiction_total", total, "<=", -0.726),
    )


def certify_cm_zeta3(n2: int) -> tuple[Waypoint, ...]:
    """Certify the Q(zeta_3) chain (polynomial (1+cos t)(1+(5/2)cos t)^2,
    scaled by 16 to the integer weights 106, 171, 90, 25).

    The fourth and sixth symmetric powers have conductors n4 = n6 = n2^2,
    except when 3^3 exactly divides the conductor, where n6 = 9 n4 = n2^2.
    """
    sigma, sigma_shift = _extremal_points(CM_ZETA3, n2)
    disc, scale = _endpoint_disc(CM_ZETA3)

    gamma_sum = (
        53.0 * digamma(sigma / 2.0)
        + 171.0 * digamma(sigma + 1.0)
        + 90.0 * digamma(sigma + 2.0)
        + 25.0 * digamma(sigma + 3.0)
    )
    middle = 106.0 / sigma - 171.0 / sigma_shift
    const_block = 339.0 * math.log(1.0 / math.pi) - (53.0 * math.log(3.0) + 286.0 * math.log(2.0))
    half_261_log64 = 130.5 * math.log(64.0)
    from fractions import Fraction  # on first use, so bound and invariants never load it

    coeffs = trig_poly_expand(Fraction(5, 2))
    trig_exact = coeffs == (
        Fraction(106, 16),
        Fraction(171, 16),
        Fraction(90, 16),
        Fraction(25, 16),
    )
    total = -59.0 + const_block + half_261_log64 + 153.0

    return (
        Waypoint("cm_zeta3.sigma_max", sigma, "<=", 1.28),
        Waypoint("cm_zeta3.quadratic_disc_rel", abs(disc) / scale, "abs<=", 1e-12),
        Waypoint("cm_zeta3.gamma_factor_sum", gamma_sum, "<", 153.0),
        Waypoint("cm_zeta3.middle_term", middle, "<=", -59.0),
        Waypoint("cm_zeta3.constant_block", const_block, "in", (-645.0, -644.0)),
        Waypoint("cm_zeta3.half_261_log_64", half_261_log64, "in", (542.0, 543.0)),
        Waypoint("cm_zeta3.trig_poly_exact", 1.0 if trig_exact else 0.0, ">=", 1.0),
        Waypoint("cm_zeta3.contradiction_total", total, "<=", -7.0),
    )


def trig_poly_expand(beta: Fraction | int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact Fourier coefficients (c0, c1, c2, c3) of
    (1 + cos t)(1 + beta cos t)^2 in the basis {1, cos t, cos 2t, cos 3t}."""
    from fractions import Fraction

    b = Fraction(beta)
    if b < 0:
        raise ValueError("beta must be nonnegative")
    b2 = b * b
    c0 = 1 + (b2 + 2 * b) / 2
    c1 = 1 + 2 * b + 3 * b2 / 4
    c2 = (b2 + 2 * b) / 2
    c3 = b2 / 4
    return (c0, c1, c2, c3)


_QUINTIC = (1.0, -25.0, -4.0, 30.0, 19.0, 3.0)


def _quintic_value(x: float) -> float:
    v = 0.0
    for c in _QUINTIC:
        v = v * x + c
    return v


def quintic_beta_optimum() -> float:
    """beta_star, twice the smallest positive root of
    x^5 - 25x^4 - 4x^3 + 30x^2 + 19x + 3, bisected in (1, 2), where the
    quintic falls from +24 to -239 and crosses zero once.

    beta_star is the weight for which the cubic cosine polynomial gives
    the best region constant; beta = 5/2 loses little and keeps the
    integer weights.
    """
    return 2.0 * _bisect(lambda x: -_quintic_value(x), 1.0, 2.0, 1e-16)
