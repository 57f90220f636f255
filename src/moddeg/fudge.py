"""Local fudge factors U_p(1)^(-1) at primes with p^2 | N.

For a global minimal twist, U_p(s) = (1 - eps_p/p^s)^(-1) with
eps_p in {-1, 0, +1} decided by congruence and divisibility rules:

    p = 1 mod 12:  eps = +1
    p = 11 mod 12: eps = -1
    p = 5 mod 12:  eps = +1 exactly when p^2 | c6 and p || c4
    p = 7 mod 12:  the same divisibility conditions force eps = -1

Undetermined cases fall back to eps = +1 (the smallest U_p(1)^(-1),
hence the worst case for a lower bound) and are flagged.  p = 2 and
p = 3 get dedicated lower bounds.  ``fudge_factor_for`` is the one entry
point for every p; it returns the factor's block of the ``bound`` report
as a plain dict.
"""

from __future__ import annotations

from .curves import Invariants, _require_int, is_prime

__all__ = [
    "fudge_factor_for",
]


# (eps, determined) by p mod 12: the first pair when p || c4 and p^2 | c6,
# the second otherwise.  p = 2 (with 2^8 || N) and p = 3 take eps = +1.
_EPSILON = {
    1: ((1, True), (1, True)),
    5: ((1, True), (1, False)),
    7: ((-1, True), (1, False)),
    11: ((-1, True), (-1, True)),
    2: ((1, False), (1, False)),
    3: ((1, False), (1, False)),
}


def fudge_factor_for(inv: Invariants, p: int, conductor: int, twist_minimal: bool = True) -> dict[str, object]:
    """U_p(1)^(-1), or its certified lower bound, at a prime p with p^2 | N,
    as {"p", "epsilon", "u_inverse_at_1", "determined"}.

    epsilon is None when only a lower bound for U_p(1)^(-1) is known (the
    p = 2 branch without 2^8 || N, and a declared non-minimal twist);
    otherwise u_inverse_at_1 = 1 - eps/p.  determined is False whenever
    the rules above do not pin eps down.

    p = 3: U_3(1)^(-1) >= 1 - 1/3 = 2/3.
    p = 2: eps = +1 (factor 1/2) is possible only when 2^8 || N; any other
    2-adic valuation takes the non-minimal-at-2 bound
    (2-1)(2+1-2)(2+1+2)/2^3 = 5/8.
    """
    _require_int("p", p)
    _require_int("conductor", conductor)
    if conductor < 1:
        raise ValueError(f"conductor must be positive, got {conductor}")
    if not isinstance(twist_minimal, bool):
        raise ValueError(f"twist_minimal must be True or False, got {twist_minimal!r}")
    if not is_prime(p):
        raise ValueError(f"p = {p} must be prime")
    if conductor % (p * p) != 0:
        raise ValueError(f"U_p only enters at primes with p^2 | N; got p = {p}")
    if p == 2 and not (conductor % 2**8 == 0 and conductor % 2**9 != 0):
        eps, determined, u = None, False, 5.0 / 8.0
    elif p > 3 and not twist_minimal:
        # The rules assume a global minimal twist; keep the worst case.
        eps, determined, u = None, False, 1.0 - 1.0 / p
    else:
        divisibility = inv.c4 % p == 0 and inv.c4 % (p * p) != 0 and inv.c6 % (p * p) == 0
        eps, determined = _EPSILON[p % 12][not divisibility]
        u = 1.0 - eps / p
    return {"p": p, "epsilon": eps, "u_inverse_at_1": u, "determined": determined}
