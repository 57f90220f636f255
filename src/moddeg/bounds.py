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
refuses such records before it calls them).  An infinite omega, which
would make every N/Omega bound 0.0, is refused naming omega, an
infinite L-value lower bound or fudge inverse naming it, a theorem2
fudge block without an int p >= 2 and a finite u_inverse_at_1 > 0
naming fudge_factors, and theorem2_closed_form refuses an N below 3, or
not finite, naming conductor.

Each public function checks its arguments and calls a private kernel
of plain numbers that holds its formula, with ``_closed_form`` shared by
theorem2 and theorem2_closed_form.  ``_bound_values`` is the L-value
side of a report in one call: the local factors of ``fudge`` and every
bound, with log N, log n2, N^(7/6) and N/Omega computed once, for the
checked record ``moddeg.report.build_report`` gives it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable

from .curves import _require_int
from .fudge import _fudge
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


def _require_omega(omega: float) -> None:
    """Refuse an infinite omega, with which every N/Omega bound is 0.0;
    a nan, zero or negative omega each entry refuses with its own range
    check."""
    if omega == math.inf:
        raise ValueError("omega must be finite, got inf")


def degree_formula_bound(
    conductor: int, omega: float, l_value_lower: float, fudge_inverses: Iterable[float] = ()
) -> float:
    """Exact-formula lower bound (N/(2 pi Omega)) * L_lower * prod u, c = 1."""
    _require_int("conductor", conductor)
    # finite: at most the largest double, so an inf or an int past it is refused
    if conductor <= 0 or not omega > 0.0 or not 0.0 < l_value_lower <= sys.float_info.max:
        raise ValueError(
            "conductor, omega and the L-value lower bound must be positive, and the L-value lower bound finite"
        )
    _require_omega(omega)
    u_inverses = list(fudge_inverses)
    if not all(0.0 < u <= sys.float_info.max for u in u_inverses):
        raise ValueError("fudge inverses must be positive and finite")
    return _formula_bound(conductor, omega, l_value_lower, u_inverses)


def _formula_bound(conductor: int, omega: float, l_value_lower: float, u_inverses: list[float]) -> float:
    """``degree_formula_bound`` of checked arguments."""
    product = 1.0
    for u in u_inverses:
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
    _require_omega(omega)
    # N^(7/6) first: once it is a double, so is N
    power = _seven_sixths(conductor)
    analytic, closed = _theorem1(conductor / omega, power, math.log(conductor))
    return {"analytic": analytic, "closed_form": closed}


def _theorem1(n_over_omega: float, power: float, log_n: float) -> tuple[float, float]:
    """theorem1's analytic and closed_form from N/Omega, N^(7/6) and log N."""
    return _finite(n_over_omega * L_VALUE_BOUND_NUMERATOR / (2.0 * log_n)), power / (5350.0 * log_n)


def _closed_form(power: float, log_n: float) -> float:
    """Theorem 2's closed form from power = N^(7/6) and log_n = log N."""
    return power / log_n / 10300.0 / math.sqrt(0.02 + math.log(log_n))


def theorem2_closed_form(conductor: float) -> float:
    """(N^(7/6)/log N) * (1/10300) / sqrt(0.02 + log log N), for a finite
    N >= 3, an int or a float, as ``theorem2`` requires of N."""
    if not 3 <= conductor < math.inf:
        raise ValueError("need a finite conductor >= 3")
    return _closed_form(_seven_sixths(conductor), math.log(conductor))


def theorem2(
    conductor: int,
    n2: int,
    omega: float,
    fudge_factors: Iterable[dict[str, object]] = (),
) -> dict[str, object]:
    """General chain: analytic, intermediate, closed_form and chain_ok.

    fudge_factors are fudge_factor_for blocks; one without an int p >= 2
    and a finite u_inverse_at_1 > 0 is refused.  analytic uses their
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
    _require_omega(omega)
    primes, u_inverses = [], []
    for i, block in enumerate(fudge_factors):
        p, u = (block.get("p"), block.get("u_inverse_at_1")) if isinstance(block, dict) else (None, None)
        p_ok = isinstance(p, int) and not isinstance(p, bool) and p >= 2
        u_ok = isinstance(u, (int, float)) and not isinstance(u, bool) and 0.0 < u <= sys.float_info.max
        if not (p_ok and u_ok):
            raise ValueError(
                f"fudge_factors[{i}] must be a fudge_factor_for block, with an int p >= 2 "
                "and a finite u_inverse_at_1 > 0"
            )
        primes.append(p)
        u_inverses.append(u)
    # N^(7/6) first: once it is a double, so is N
    power = _seven_sixths(conductor)
    analytic, intermediate, closed, chain_ok = _theorem2(
        conductor / omega, power, math.log(conductor), math.log(n2), primes, u_inverses
    )
    return {"analytic": analytic, "intermediate": intermediate, "closed_form": closed, "chain_ok": chain_ok}


def _theorem2(
    n_over_omega: float, power: float, log_n: float, log_n2: float, primes: list[int], u_inverses: list[float]
) -> tuple[float, float, float, bool]:
    """theorem2's analytic, intermediate, closed_form and chain_ok from
    N/Omega, N^(7/6), log N, log n2 and the primes and u_inverse_at_1 of
    its fudge factors, in the same order."""
    analytic = n_over_omega * L_VALUE_BOUND_NUMERATOR / log_n2
    for u in u_inverses:
        analytic *= u
    _finite(analytic)
    worst = 1.0
    for p in primes:
        if p % 3 == 1:
            worst *= 1.0 - 1.0 / p
    intermediate = power / (7150.0 * log_n2) * worst
    closed = _closed_form(power, log_n)
    return analytic, intermediate, closed, analytic >= intermediate >= closed


def linear_bounds(conductor: int) -> dict[str, float]:
    """The linear comparison bounds, both entering consistency checking:
    abramovich = 7N/1600, unconditional, and abramovich_selberg = N/192,
    under the Selberg eigenvalue conjecture."""
    _require_int("conductor", conductor)
    if conductor < 1:
        raise ValueError("conductor must be positive")
    abramovich, selberg = _linear_bounds(conductor)
    return {"abramovich": abramovich, "abramovich_selberg": selberg}


def _linear_bounds(conductor: int) -> tuple[float, float]:
    """``linear_bounds`` of a checked conductor, as (abramovich,
    abramovich_selberg)."""
    try:
        abramovich = 7.0 * conductor / 1600.0
    except OverflowError:  # a conductor past the largest double
        abramovich = math.inf
    if not math.isfinite(abramovich):
        raise ValueError("conductor puts the linear bounds past double range")
    return abramovich, conductor / 192.0


def _bound_values(
    n: int, n2: int, omega: float, c4: int, c6: int, twist_minimal: bool, primes: list[int]
) -> tuple[
    list[tuple[int, int | None, float, bool]], float, float,
    tuple[float, float], tuple[float, float, float, bool], tuple[float, float],
]:
    """The L-value side of a report with conductor n, this n2 and omega,
    for a model with these c4 and c6 and the primes whose squares divide
    n: the ``_fudge`` tuple of each prime, l_value_lower, formula_bound,
    and the values of the theorem1 (less "applicable"), theorem2 and
    linear blocks as tuples in key order.  The arguments are taken as
    checked; log N, log n2, N^(7/6) and N/Omega are computed here once."""
    fudge = [_fudge(c4, c6, p, n, twist_minimal) for p in primes]
    u_inverses = [u for _, _, u, _ in fudge]
    log_n2 = math.log(n2)
    l_lower = L_VALUE_BOUND_NUMERATOR / log_n2
    log_n = math.log(n)
    power = _seven_sixths(n)
    n_over_omega = n / omega
    return (
        fudge,
        l_lower,
        _formula_bound(n, omega, l_lower, u_inverses),
        _theorem1(n_over_omega, power, log_n),
        _theorem2(n_over_omega, power, log_n, log_n2, primes, u_inverses),
        _linear_bounds(n),
    )


def crossover_check() -> float:
    """log of the smallest N where Theorem 2's closed form reaches N.

    Bisects g(L) = log(theorem2_closed_form(e^L)) - L, strictly
    increasing on the bracket [60, 120], where it changes sign; returns
    the root (about 86.7).
    """

    def g(log_n: float) -> float:
        return math.log(theorem2_closed_form(math.exp(log_n))) - log_n

    return _bisect(g, 60.0, 120.0, 1e-12)
