"""Special functions needed by the certification chain.

Digamma to near machine accuracy, the Gamma modulus on the critical
line, the bisection behind the chain's two fixed roots (the quintic
weight optimum and the Theorem 2 crossover), and the smoothing-error
integral of Lemma 4,

    zeta(3/2)^4/(4 pi^2) * int_0^inf (25/4+t^2)^(3/4) sqrt(9/4+t^2)
        * 2 (1+t^2)^(1/200) / sqrt(1+4t^2) * sqrt(pi sech(pi t)) dt,

whose value must stay below 62 (equivalently below 20*pi after dividing
by pi) for the error constant 20 in the L-value chain to be valid.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

__all__ = [
    "ZETA_3_HALVES",
    "QuadratureResult",
    "digamma",
    "abs_gamma_half_line",
    "error_integrand",
    "error_integral_tail_bound",
    "lemma4_error_integral",
]

# zeta(3/2), frozen to 20 significant digits.
ZETA_3_HALVES = 2.6123753486854883440

# B_{2k}/(2k) for the digamma asymptotic series, k = 1..7 (through B14).
_DIGAMMA_SERIES = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


class QuadratureResult(namedtuple("QuadratureResult", "value abs_error_estimate")):
    """A quadrature value with its estimated absolute error."""

    __slots__ = ()


def digamma(x: float) -> float:
    """Digamma for x > 0: upward recurrence to x >= 10, then the
    asymptotic series with Bernoulli terms through B14."""
    if not x > 0.0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for coeff in _DIGAMMA_SERIES:
        series += coeff * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - series


def abs_gamma_half_line(t: float) -> float:
    """|Gamma(1/2 + it)| = sqrt(pi * sech(pi t)); even in t, overflow safe."""
    at = abs(t)
    # sech(pi t) = 2 e^{-pi t} / (1 + e^{-2 pi t})
    sech = 2.0 * math.exp(-math.pi * at) / (1.0 + math.exp(-2.0 * math.pi * at))
    return math.sqrt(math.pi * sech)


_ERROR_PREFACTOR = ZETA_3_HALVES**4 / (4.0 * math.pi**2)
_ERROR_TRUNCATION = 40.0
_TRAPEZOID_STEP = 1.0 / 32.0


def error_integrand(t: float) -> float:
    """Integrand of the smoothing-error integral, prefactor included.

    The first two factors are the t-dependence of the Phragmen-Lindelof
    (Rademacher) convexity bounds on the half line,

        |L(Sym^2, 1/2+it)| <= zeta(3/2)^3 sqrt(n2/8pi^3) (25/4+t^2)^(3/4),
        |zeta(1/2+it)|     <= zeta(3/2)/sqrt(2pi) sqrt(9/4+t^2),

    and the prefactor zeta(3/2)^4/(4 pi^2) is the product of their
    constants without the sqrt(n2).
    """
    poly = (
        (6.25 + t * t) ** 0.75
        * math.sqrt(2.25 + t * t)
        * 2.0
        * (1.0 + t * t) ** 0.005
        / math.sqrt(1.0 + 4.0 * t * t)
    )
    return _ERROR_PREFACTOR * poly * abs_gamma_half_line(t)


def error_integral_tail_bound(t0: float) -> float:
    """Upper bound for the integral of error_integrand over [t0, inf), t0 >= 20.

    The bound integrates the envelope prefactor * 2.6 * e^{-1.3 t}.  The
    log of the integrand/envelope ratio has derivative below
    1.51/t + 1/(4t^3) + pi e^{-2 pi t} - (pi/2 - 1.3), which is negative
    for t above about 6, and the ratio is 0.40 at t = 20, so the envelope
    dominates on [20, inf).  It does not below t = 15.09: the ratio is
    2.2 at t = 10.
    """
    if t0 < 20.0:
        raise ValueError("tail bound only valid for t0 >= 20")
    return _ERROR_PREFACTOR * 2.6 * math.exp(-1.3 * t0) / 1.3


def lemma4_error_integral() -> QuadratureResult:
    """Evaluate the smoothing-error integral on [0, 40] by the trapezoidal
    rule with step 1/32, plus an analytic tail bound below 1e-20.

    The integrand is even and analytic in the strip |Im t| < 1/2 (sech(pi t)
    and sqrt(1 + 4t^2) are singular at t = +-i/2), and it decays like
    e^{-pi t/2}.  For such integrands the trapezoidal rule converges
    geometrically, with error about e^{-pi/h} at step h, so at h = 1/32 only
    rounding remains.  The error estimate is |T(h) - T(2h)|, where T(2h)
    reuses every other node, plus the tail bound, plus 32 ulps of the value
    for the rounding of the integrand values (math.fsum keeps the sums
    themselves within an ulp or two).
    """
    n = round(_ERROR_TRUNCATION / _TRAPEZOID_STEP)
    values = [error_integrand(k * _TRAPEZOID_STEP) for k in range(n + 1)]
    fine = _trapezoid(values, _TRAPEZOID_STEP)
    coarse = _trapezoid(values[::2], 2.0 * _TRAPEZOID_STEP)
    tail = error_integral_tail_bound(_ERROR_TRUNCATION)
    result = QuadratureResult(
        value=fine + tail,
        abs_error_estimate=abs(fine - coarse) + tail + 32.0 * math.ulp(fine),
    )
    if not result.value > 0.0 or not math.isfinite(result.value):
        raise ArithmeticError("quadrature failed to produce a finite positive value")
    return result


def _trapezoid(values: list[float], step: float) -> float:
    """Trapezoidal sum over equally spaced samples, endpoints included."""
    return step * (math.fsum(values[1:-1]) + 0.5 * (values[0] + values[-1]))


def _bisect(f: Callable[[float], float], lo: float, hi: float, rel_tol: float) -> float:
    """The sign change of f, increasing across [lo, hi]: halve the bracket,
    keeping lo where f < 0, until its width is rel_tol * hi (at most 200
    halvings); returns the midpoint."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)
