"""Point counting against the O(p) Legendre-symbol sum: Shanks-Mestre, also
against frozen copies of the earlier kernel, and the CM step on every
rational CM order and its twists; needs only pytest and moddeg."""

import math
import random

import pytest

import moddeg.curves
from moddeg.curves import (
    CM_J_INVARIANTS,
    CurveModel,
    _count_naive,
    _ec_add,
    derive_invariants,
    is_cm,
    is_prime,
    trace_of_frobenius,
)

CURVES = {
    "11a1": CurveModel(0, -1, 1, -10, -20, conductor=11),
    "37a1": CurveModel(0, 0, 1, -1, 0, conductor=37),
    "27a1": CurveModel(0, 0, 1, 0, -7, conductor=27),
    "32a1": CurveModel(0, 0, 0, 4, 0, conductor=32),
    "36a1": CurveModel(0, 0, 0, 0, 1, conductor=36),
    "49a1": CurveModel(1, -1, 0, -2, -1, conductor=49),
    # rational torsion Z/2 x Z/8: points of small order at every p
    "210e2": CurveModel(1, 0, 0, -1070, 7812, conductor=210),
}


def good_primes(curve, low, high):
    """The primes in [low, high] dividing neither the discriminant nor N."""
    bad = derive_invariants(curve).abs_disc * curve.conductor
    return [p for p in range(low, high + 1) if is_prime(p) and bad % p]


def frozen_ec_mul(k, P, a, p):
    """k P for k >= 1 by double-and-add: the kernel's earlier multiplier."""
    result = P
    for bit in bin(k)[3:]:
        result = _ec_add(result, result, a, p)
        if bit == "1":
            result = _ec_add(result, P, a, p)
    return result


def frozen_hasse_multiples(point, a, p, bound):
    """The earlier _hasse_multiples, (p + 1 - c) P by frozen_ec_mul."""
    m = math.isqrt(bound) + 1
    w = 2 * m + 1
    by_x = {}
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
    r = frozen_ec_mul(p + 1 - c, point, a, p)
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


def frozen_trace_by_bsgs(inv, p):
    """The earlier _trace_by_bsgs: x from 0, the curve first, then the twist."""
    a, b = -27 * inv.c4 % p, -54 * inv.c6 % p
    half = (p - 1) // 2
    bound = math.isqrt(4 * p)
    candidates = None
    x = -1
    for attempt in range(6):
        side = 1 if attempt % 2 == 0 else p - 1
        d = 0
        while not d or pow(d, half, p) != side:
            x += 1
            if x == p:
                return None
            d = (x * x * x + a * x + b) % p
        multiples = frozen_hasse_multiples((d * x % p, d * d % p), a * d * d % p, p, bound)
        found = multiples if side == 1 else {-u for u in multiples}
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    return None


@pytest.mark.parametrize("label", list(CURVES))
def test_every_good_prime_to_2000_against_the_naive_count(label):
    curve = CURVES[label]
    inv = derive_invariants(curve)
    primes = good_primes(curve, 110, 2000)
    assert {p: trace_of_frobenius(curve, p) for p in primes} == {p: _count_naive(curve, inv, p) for p in primes}


@pytest.fixture
def points_tried(monkeypatch):
    """Each prime's points as _hasse_multiples receives them, keyed by p."""
    points = {}
    hasse_multiples = moddeg.curves._hasse_multiples

    def recorded(point, a, p, bound):
        points.setdefault(p, []).append(point)
        return hasse_multiples(point, a, p, bound)

    monkeypatch.setattr(moddeg.curves, "_hasse_multiples", recorded)
    return points


@pytest.mark.parametrize("label", ["27a1", "36a1"])
def test_a_j_zero_model_never_starts_on_x_zero(points_tried, label):
    # j = 0, so a = -27 c4 = 0 at every p, and X = 0 is a point of order 3
    curve = CURVES[label]
    inv = derive_invariants(curve)
    assert inv.c4 == 0
    for p in good_primes(curve, 110, 2000):
        moddeg.curves._trace_by_bsgs(inv, p)
    assert points_tried
    assert [p for p, points in points_tried.items() if points[0][0] == 0] == []


def test_36a1_needs_few_points_per_prime(points_tried):
    curve = CURVES["36a1"]
    inv = derive_invariants(curve)
    primes = good_primes(curve, 110, 2000)
    for p in primes:
        moddeg.curves._trace_by_bsgs(inv, p)
    assert sorted(points_tried) == primes
    assert sum(map(len, points_tried.values())) <= 1.3 * len(primes)


def test_later_points_alternate_sides(points_tried):
    # the point made from x is (d x, d^2), d = x^3 + a x + b, on the curve
    # when d is a square and on the twist when it is not
    curve = CURVES["210e2"]
    for p in good_primes(curve, 110, 2000):
        trace_of_frobenius(curve, p)
    inv = derive_invariants(curve)
    alternating = 0
    for p, points in points_tried.items():
        if len(points) < 2:
            continue
        a, b = -27 * inv.c4 % p, -54 * inv.c6 % p
        made = {}
        for x in range(1, p):
            d = (x**3 + a * x + b) % p
            made.setdefault((d * x % p, d * d % p), pow(d, (p - 1) // 2, p))
        sides = [made[point] for point in points]
        assert all(side != next_side for side, next_side in zip(sides, sides[1:])), (p, sides)
        alternating += 1
    assert alternating >= 10


def test_the_giant_step_multiple_equals_double_and_add():
    # every point of the short model of 210e2 at p = 113, small orders and
    # 2-torsion included, and every k from 0 to past p + 1 + the Hasse bound
    p = 113
    bound = math.isqrt(4 * p)
    inv = derive_invariants(CURVES["210e2"])
    a, b = -27 * inv.c4 % p, -54 * inv.c6 % p
    points = [(x, y) for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0]
    assert len(points) + 1 == p + 1 - _count_naive(CURVES["210e2"], inv, p)
    m = math.isqrt(bound) + 1
    for point in points:
        steps = [None]
        for _ in range(m):
            steps.append(_ec_add(steps[-1], point, a, p))
        giant = _ec_add(_ec_add(steps[-1], steps[-1], a, p), point, a, p)
        assert moddeg.curves._giant_multiple(0, steps, giant, a, p) is None
        for k in range(1, p + 2 + bound + m):
            assert moddeg.curves._giant_multiple(k, steps, giant, a, p) == frozen_ec_mul(k, point, a, p), (point, k)


def test_seeded_primes_to_a_million_against_the_earlier_kernel():
    rng = random.Random(32)
    checked = 0
    while checked < 150:
        coefficients = [rng.randint(-1000, 1000) for _ in range(5)]
        p = rng.randrange(110, 999983)
        while not is_prime(p):
            p += 1
        try:
            inv = derive_invariants(CurveModel(*coefficients))
        except moddeg.curves.SingularCurveError:
            continue
        if inv.disc % p == 0:
            continue
        a_p = moddeg.curves._trace_by_bsgs(inv, p)
        assert a_p is not None and a_p == frozen_trace_by_bsgs(inv, p), (coefficients, p)
        checked += 1


def cm_model(j):
    """A short model y^2 = x^3 + a x + b of j-invariant j."""
    if j == 0:
        return (0, 0, 0, 0, 1)
    if j == 1728:
        return (0, 0, 0, 1, 0)
    k = j - 1728
    return (0, 0, 0, -3 * j * k, -2 * j * k * k)


def changed_coordinates(a, r, s, t):
    """The a-invariants after x = x' + r, y = y' + s x' + t (Silverman,
    The Arithmetic of Elliptic Curves, Table 3.1, u = 1): the same curve
    over Q, so the same a_p at every p."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def cm_models(d):
    """The short model of the order of discriminant d, two quadratic twists
    and the same in other coordinates; for j = 0 and 1728 also three
    sextic or quartic twists y^2 = x^3 + b or y^2 = x^3 + a x."""
    a = cm_model(CM_J_INVARIANTS[d])
    models = [a] + [(0, 0, 0, a[3] * t * t, a[4] * t**3) for t in (-1, 6)]
    if d == -3:
        models += [(0, 0, 0, 0, b) for b in (2, -7, 4 * 3**5)]
    if d == -4:
        models += [(0, 0, 0, a4, 0) for a4 in (-2, 3, -5**3)]
    return models + [changed_coordinates(model, 1, -1, 2) for model in models]


@pytest.mark.parametrize("d", list(CM_J_INVARIANTS))
def test_every_cm_a_p_against_the_naive_count(d):
    # the CM step answers from p = 5 on, the inert primes of every order and
    # the split ones of j = 0 and 1728 without a point; the rest is counted
    for a in cm_models(d):
        curve = CurveModel(*a)
        inv = derive_invariants(curve)
        assert is_cm(inv) and inv.j_num == CM_J_INVARIANTS[d]
        primes = [p for p in range(5, 500) if is_prime(p) and inv.disc % p]
        assert {p: trace_of_frobenius(curve, p) for p in primes} == {p: _count_naive(curve, inv, p) for p in primes}, a


@pytest.mark.parametrize("label, d", [("27a1", -3), ("36a1", -3), ("32a1", -4), ("49a1", -7)])
def test_cm_curves_reach_baby_step_giant_step_only_at_split_primes(points_tried, label, d):
    # j = 0 and 1728 never do; for 49a1, -7 is a square mod p at a split p
    curve = CURVES[label]
    primes = good_primes(curve, 110, 2000)
    for p in primes:
        trace_of_frobenius(curve, p)
    split = [p for p in primes if pow(d, (p - 1) // 2, p) == 1]
    assert sorted(points_tried) == ([] if d in (-3, -4) else split)
    assert len(split) > 100


def test_the_primary_prime_has_norm_p_and_vanishes_at_its_root():
    for p in moddeg.curves._primes_up_to(10**5):
        for s, k in ((-1, 3), (0, 4)):
            if p % k != 1:
                continue
            (a, b), r = moddeg.curves._primary_prime(p, s)
            assert a * a + s * a * b + b * b == p, (p, s)
            assert (a + b * r) % p == 0 and pow(r, k, p) == 1 and r * r % p != 1, (p, s)
            assert ((a % 3, b % 3) == (2, 0)) if s == -1 else ((a % 4, b % 4) in ((1, 0), (3, 2))), (p, s)


@pytest.mark.parametrize("label", ["27a1", "36a1", "32a1", "49a1"])
def test_seeded_cm_primes_to_a_million_against_baby_step_giant_step(label):
    # the naive sum is too slow there; baby-step giant-step shares nothing
    # with the CM step, and decides a_p = 0 as well as any other value
    curve = CURVES[label]
    inv = derive_invariants(curve)
    rng = random.Random(label)
    for _ in range(40):
        p = rng.randrange(10**5, 999983)
        while not is_prime(p):
            p += 1
        a_p = moddeg.curves._trace_by_bsgs(inv, p)
        assert a_p is not None and trace_of_frobenius(curve, p) == a_p, p
