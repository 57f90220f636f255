"""Assembled lower bounds on the modular degree.

The exact starting point is

    deg phi = (N c^2 / (2 pi Omega)) * L(Sym^2, 1) * prod_{p^2|N} U_p(1)^{-1},

with c >= 1 the Manin constant; every bound below replaces L(Sym^2, 1)
by 0.033/log(n2) and the fudge factors by their certified lower bounds.
The two headline theorem chains are reported exactly as displayed:

    Theorem 1 (semistable):  (N/Omega) 0.033/(2 log N)  >=  N^(7/6)/(5350 log N)
    Theorem 2 (general):     (N/Omega) 0.033/log(n2) prod U_p(1)^(-1)
                             >= N^(7/6)/(7150 log n2) prod_{p=1(3)} (1-1/p)
                             >= (N^(7/6)/log N) (1/10300)/sqrt(0.02+log log N)

The displayed chain omits the 2 pi of the exact formula (its closed-form
constants 5350, 7150, 10300 already absorb 2 pi * 14.045); the exact
formula bound is degree_formula_bound.  The chain's final inequality is
asserted only in its regime N >= 20000; chain_ok records the pointwise
comparison honestly for every input.

theorem1, theorem2 and linear_bounds each return their block of the
``bound`` report as a plain dict, keys in report order.  Every bound is a
finite double: where N^(7/6) would leave double range the call raises
ValueError naming conductor, and where N/Omega takes a bound there,
ValueError naming conductor and omega (``moddeg.report.build_report``
refuses such records before it calls them).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .curves import _require_int
from .lvalue import L_VALUE_BOUND_NUMERATOR
from .specfun import _bisect

__all__ = [
    "degree_formula_bound",
    "theorem1",
    "theorem2",
    "theorem2_closed_form",
    "linear_bounds",
    "crossover_check",
    "CONDUCTOR_THRESHOLD",
]

CONDUCTOR_THRESHOLD = 20000


def _seven_sixths(conductor: float) -> float:
    """N^(7/6), with a ValueError naming conductor in place of the
    OverflowError of a power past double range."""
    try:
        return conductor ** (7.0 / 6.0)
    except OverflowError:
        raise ValueError("conductor puts N^(7/6) past double range") from None


def _finite(bound: float) -> float:
    """bound, or a ValueError naming conductor and omega when N/Omega has
    taken it past double range."""
    if not math.isfinite(bound):
        raise ValueError("conductor / omega puts the bound past double range")
    return bound


def degree_formula_bound(
    conductor: int, omega: float, l_value_lower: float, fudge_inverses: Iterable[float] = ()
) -> float:
    """Exact-formula lower bound (N/(2 pi Omega)) * L_lower * prod u, c = 1."""
    _require_int("conductor", conductor)
    if conductor <= 0 or not omega > 0.0 or not l_value_lower > 0.0:
        raise ValueError("conductor, omega and the L-value lower bound must be positive")
    product = 1.0
    for u in fudge_inverses:
        if not u > 0.0:
            raise ValueError("fudge inverses must be positive")
        product *= u
    try:
        bound = conductor / (2.0 * math.pi * omega) * l_value_lower * product
    except OverflowError:  # a conductor past the largest double
        bound = math.inf
    return _finite(bound)


def theorem1(conductor: int, omega: float) -> dict[str, float]:
    """Semistable chain: analytic = (N/Omega) * 0.033/(2 log N) and
    closed_form = N^(7/6) / (5350 log N).  Below N = 20000 the values are
    still computed (the tables cover that range)."""
    _require_int("conductor", conductor)
    if conductor < 2 or not omega > 0.0:
        raise ValueError("need conductor >= 2 and omega > 0")
    log_n = math.log(conductor)
    # N^(7/6) first: once it is a double, so is N
    closed = _seven_sixths(conductor) / (5350.0 * log_n)
    analytic = _finite(conductor / omega * L_VALUE_BOUND_NUMERATOR / (2.0 * log_n))
    return {"analytic": analytic, "closed_form": closed}


def theorem2_closed_form(conductor: float) -> float:
    """(N^(7/6)/log N) * (1/10300) / sqrt(0.02 + log log N)."""
    log_n = math.log(conductor)
    return _seven_sixths(conductor) / log_n / 10300.0 / math.sqrt(0.02 + math.log(log_n))


def theorem2(
    conductor: int,
    n2: int,
    omega: float,
    fudge_factors: Iterable[dict[str, object]] = (),
) -> dict[str, object]:
    """General chain: analytic, intermediate, closed_form and chain_ok.

    fudge_factors are fudge_factor_for blocks.  analytic uses their
    u_inverse_at_1; intermediate uses the worst-case product of (1 - 1/p)
    over the 1-mod-3 primes among them (the other residue classes are
    absorbed by the 7150 constant and the sixth-power credits
    p^(1/6) (1 - 1/p) >= 1, p >= 5); closed_form is the fully explicit
    display.
    """
    _require_int("conductor", conductor)
    _require_int("n2", n2)
    if conductor < 3 or n2 < 2 or not omega > 0.0:
        raise ValueError("need conductor >= 3, n2 >= 2 and omega > 0")
    log_n2 = math.log(n2)
    # N^(7/6) first: once it is a double, so is N
    power = _seven_sixths(conductor)
    analytic = conductor / omega * L_VALUE_BOUND_NUMERATOR / log_n2
    worst = 1.0
    for f in fudge_factors:
        analytic *= f["u_inverse_at_1"]
        if f["p"] % 3 == 1:
            worst *= 1.0 - 1.0 / f["p"]
    _finite(analytic)
    intermediate = power / (7150.0 * log_n2) * worst
    closed = theorem2_closed_form(conductor)
    return {
        "analytic": analytic,
        "intermediate": intermediate,
        "closed_form": closed,
        "chain_ok": analytic >= intermediate >= closed,
    }


def linear_bounds(conductor: int) -> dict[str, float]:
    """The linear comparison bounds, both entering consistency checking:
    abramovich = 7N/1600, unconditional, and abramovich_selberg = N/192,
    under the Selberg eigenvalue conjecture."""
    _require_int("conductor", conductor)
    if conductor < 1:
        raise ValueError("conductor must be positive")
    try:
        abramovich = 7.0 * conductor / 1600.0
    except OverflowError:  # a conductor past the largest double
        abramovich = math.inf
    if not math.isfinite(abramovich):
        raise ValueError("conductor puts the linear bounds past double range")
    return {"abramovich": abramovich, "abramovich_selberg": conductor / 192.0}


def crossover_check() -> float:
    """log of the smallest N where Theorem 2's closed form reaches N.

    Bisects g(L) = log(theorem2_closed_form(e^L)) - L, strictly
    increasing on the bracket [60, 120], where it changes sign; returns
    the root (about 86.7).
    """

    def g(log_n: float) -> float:
        return math.log(theorem2_closed_form(math.exp(log_n))) - log_n

    return _bisect(g, 60.0, 120.0, 1e-12)
