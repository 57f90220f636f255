"""Lower bound for the symmetric-square L-value at the edge.

Lemma 4 of the certified chain: for symmetric-square conductor n2 >= 142,

    L(Sym^2, 1) >= 0.033 / log(n2)

(in the motivic normalization with functional-equation symmetry
s -> 1-s).  The proof smooths the Dirichlet series with exp(-n/X) at
X = (4000000 n2)^(50/49), shifts the Mellin contour, and needs a handful
of explicit constants; lemma4_certify recomputes each one in doubles,
which holds it to n2 <= 10**300, and checks the chain against
symsq_lower_bound, the bound itself.  A truncated Euler
product over good primes provides a non-rigorous sanity estimate of the
actual L-value.
"""

from __future__ import annotations

import math

from .curves import POINT_COUNT_CUTOFF, CurveModel, _count_trace, _primes_up_to, _require_int, derive_invariants
from .specfun import lemma4_error_integral
from .zerofree import Waypoint, _n2_value

__all__ = [
    "L_VALUE_BOUND_NUMERATOR",
    "symsq_lower_bound",
    "lemma4_certify",
    "symsq_value_estimate",
]


# The numerator of Lemma 4's bound L(Sym^2, 1) >= 0.033/log(n2).
L_VALUE_BOUND_NUMERATOR = 0.033


def symsq_lower_bound(n2: int) -> float:
    """The certified lower bound 0.033/log(n2), 142 <= n2 <= 10**300."""
    return L_VALUE_BOUND_NUMERATOR / math.log(_n2_value(n2))


def lemma4_certify(n2: int) -> tuple[Waypoint, ...]:
    """Certify every explicit constant in the L-value chain.

    With b = 1 - 1/(25 log n2) and X = (4000000 n2)^(50/49):
    b >= 0.99, log X <= 4.2 log n2, X^(1-b) <= 1.19,
    Gamma(1-b) <= 25 log n2, the smoothing-error integral is below 62
    (hence below 20 pi, validating the error constant 20), and the
    reconstructed chain

        (e^(-1e-6) - 0.01) / (X^(1-b) Gamma(1-b)) >= 0.033/log n2

    holds with nonnegative slack.  Nonpositivity of the ordinary part is
    applied at the smoothing exponent b itself: the product L-function has
    no zeros in [b, 1).  The waypoints are named "lvalue.<step>".
    """
    lower = symsq_lower_bound(n2)  # the one domain check
    log_n2 = math.log(n2)
    b = 1.0 - 1.0 / (25.0 * log_n2)
    log_x = (50.0 / 49.0) * math.log(4_000_000.0 * n2)
    x_power = math.exp(log_x * (1.0 - b))
    gamma_1mb = math.gamma(2.0 - b) / (1.0 - b)
    integral = lemma4_error_integral()
    # e^(-1/X) >= e^(-1e-6) since X >= 1e6, and 20 sqrt(n2)/X^0.49 = 0.01
    # exactly by the choice of X.
    chain_value = (math.exp(-1e-6) - 0.01) / (x_power * gamma_1mb)

    return (
        Waypoint("lvalue.b_lower", b, ">=", 0.99),
        Waypoint("lvalue.log_x", log_x, "<=", 4.2 * log_n2),
        Waypoint("lvalue.x_power", x_power, "<=", 1.19),
        Waypoint("lvalue.gamma_one_minus_b", gamma_1mb, "<=", 25.0 * log_n2),
        Waypoint("lvalue.error_integral", integral.value, "<", 62.0),
        Waypoint("lvalue.error_integral_quad_error", integral.abs_error_estimate, "<=", 1e-6),
        Waypoint("lvalue.error_constant", integral.value / math.pi, "<=", 20.0),
        Waypoint("lvalue.chain_slack", chain_value - lower, ">=", 0.0),
    )


def symsq_value_estimate(curve: CurveModel, prime_cutoff: int) -> float:
    """NON-RIGOROUS truncated Euler product for L(Sym^2, 1).

    Product over good primes p <= prime_cutoff of
    [(1 - alpha^2/p^2)(1 - 1/p)(1 - beta^2/p^2)]^(-1) with alpha, beta the
    Frobenius roots (alpha+beta = a_p, alpha*beta = p); this is the local
    factor at the symmetry-normalized edge point.  Primes dividing the
    conductor or the model discriminant are skipped.  The primes and each
    a_p come from ``moddeg.curves`` (a_p from the counting routine behind
    trace_of_frobenius), and the invariants are derived once.  On a CM
    curve that routine takes a_p from the CM field at the inert primes,
    and at the split ones too for j = 0 and 1728, so at cutoff 2000 27a1,
    36a1 and 32a1 take about 1.3 ms against about 9.5 ms for 11a1 or 37a1,
    and 49a1 (j = -3375), whose split primes are counted by baby-step
    giant-step, 5.5 ms (CPython 3.11, one Xeon core).  Sanity only; no
    truncation error control.
    """
    _require_int("prime_cutoff", prime_cutoff)
    if prime_cutoff < 2:
        raise ValueError(f"prime_cutoff must be at least 2, got {prime_cutoff}")
    if prime_cutoff > POINT_COUNT_CUTOFF:
        raise ValueError("prime_cutoff exceeds the point-counting cutoff")
    inv = derive_invariants(curve)
    bad = abs(inv.disc) * (curve.conductor or 1)
    product = 1.0
    for p in _primes_up_to(prime_cutoff):
        if bad % p == 0:
            continue
        a_p = _count_trace(curve, inv, p)
        # (1 - a^2/p^2)(1 - b^2/p^2) = 1 - (a_p^2 - 2p)/p^2 + 1/p^2
        p2 = float(p * p)
        sym_part = 1.0 - (a_p * a_p - 2.0 * p) / p2 + 1.0 / p2
        product /= sym_part * (1.0 - 1.0 / p)
    return product
