"""The 5-isogeny class 11a against Vélu's formulas: isogenous curves share
a_p at every good prime, and a 5-isogeny that pulls the invariant
differential back to itself scales the period lattice's area by 5.
Needs only pytest and moddeg."""

import itertools
import math
import random

import pytest

from moddeg.agm import period_data
from moddeg.curves import _BSGS_FROM, CurveModel, derive_invariants, trace_of_frobenius, two_torsion_roots

from isogeny import multiples, velu

A_11A3 = (0, -1, 1, 0, 0)
A_11A1 = (0, -1, 1, -10, -20)
A_11A2 = (0, -1, 1, -7820, -263580)
CLASS_11A = [CurveModel(*a, conductor=11) for a in (A_11A3, A_11A1, A_11A2)]


def _omega(curve: CurveModel) -> float:
    inv = derive_invariants(curve)
    return period_data(inv, two_torsion_roots(inv)).omega


def _is_prime(n: int) -> bool:
    """Trial division, apart from moddeg's own primality test."""
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _next_prime(n: int) -> int:
    return next(p for p in itertools.count(n + 1) if _is_prime(p))


def _seeded_good_primes() -> list[int]:
    """Every prime below the baby-step giant-step crossover but 11 (the
    class has bad reduction only there), the first ones above it, 999983,
    and primes drawn by a seeded generator in between."""
    rng = random.Random(11)
    primes = [p for p in range(2, _BSGS_FROM + 40) if _is_prime(p) and p != 11]
    primes += [_next_prime(rng.randrange(_BSGS_FROM, 999983)) for _ in range(20)]
    return [*primes, 999983]


class TestVelu:
    @pytest.mark.parametrize(
        "a, point, image",
        [(A_11A3, (0, 0), A_11A1), (A_11A1, (5, 5), A_11A2)],
    )
    def test_five_isogenies_of_11a(self, a, point, image):
        assert len(multiples(a, point)) == 4
        assert velu(a, point) == list(image)


def test_isogenous_curves_share_a_p():
    for p in _seeded_good_primes():
        traces = [trace_of_frobenius(curve, p) for curve in CLASS_11A]
        assert traces[0] == traces[1] == traces[2], (p, traces)


def test_area_ratio_across_each_5_isogeny():
    omega_11a3, omega_11a1, omega_11a2 = map(_omega, CLASS_11A)
    assert abs(omega_11a3 / omega_11a1 - 5.0) <= 1e-13
    assert abs(omega_11a1 / omega_11a2 - 5.0) <= 1e-13
