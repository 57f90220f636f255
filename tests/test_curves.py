import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import moddeg.curves
from moddeg import (
    CM_J_INVARIANTS,
    NONCM,
    CurveModel,
    QuadratureResult,
    SingularCurveError,
    derive_invariants,
    is_cm,
    lemma1_check,
    parse_record,
    period_data,
    trace_of_frobenius,
    two_torsion_roots,
)
from moddeg.curves import POINT_COUNT_CUTOFF, Invariants, _count_naive, is_prime, squared_primes

from conftest import EULER_CURVES, ap_by_euler_criterion, good_primes, inv_omega_oracle, random_curves

C37A1 = CurveModel(0, 0, 1, -1, 0, conductor=37)  # 37a1


class TestInvariants:
    def test_37a1_values(self):
        inv = derive_invariants(C37A1)
        assert (inv.b2, inv.b4, inv.b6) == (0, -2, 1)
        assert (inv.c4, inv.c6) == (48, -216)
        assert inv.disc == 37
        assert inv.disc_positive

    def test_negative_disc_example(self):
        inv = derive_invariants(CurveModel(0, 0, 0, -1, 1))
        # oracle: short Weierstrass disc = -16 (4 a4^3 + 27 a6^2)
        assert inv.disc == -16 * (4 * (-1) ** 3 + 27 * 1**2) == -368
        assert not inv.disc_positive

    def test_singular(self):
        with pytest.raises(SingularCurveError):
            derive_invariants(CurveModel(0, 0, 0, 0, 0))

    def test_booleans_refused(self):
        # True is an int to isinstance; the model rule names the field
        with pytest.raises(ValueError, match="a1 must be an exact integer, got True"):
            CurveModel(True, 0, True, -1, 0)
        with pytest.raises(ValueError, match="a3 must be an exact integer, got False"):
            CurveModel(0, 0, False, -1, 0)
        with pytest.raises(ValueError, match="conductor must be a positive integer, got True"):
            CurveModel(0, 0, 1, -1, 0, conductor=True)
        with pytest.raises(ValueError, match="conductor must be a positive integer"):
            CurveModel(0, 0, 1, -1, 0, conductor=37.0)
        assert CurveModel(0, 0, 1, -1, 0, conductor=37).conductor == 37
        # a plain namedtuple's _make and _replace build the tuple without __new__
        model = CurveModel(0, 0, 1, -1, 0)
        with pytest.raises(ValueError, match="a1 must be an exact integer, got True"):
            model._replace(a1=True)
        with pytest.raises(ValueError, match="conductor must be a positive integer, got 0"):
            model._replace(conductor=0)
        with pytest.raises(ValueError, match="a1 must be an exact integer, got 0.5"):
            CurveModel._make([0.5, 0, 1, -1, 0, True])
        with pytest.raises(ValueError, match="a4 must be an exact integer, got True"):
            CurveModel._make([0, 0, 1, True, 0])
        with pytest.raises(ValueError, match="conductor must be a positive integer, got -37"):
            CurveModel._make([0, 0, 1, -1, 0, -37])
        assert model._replace(conductor=37) == C37A1 == CurveModel._make([0, 0, 1, -1, 0, 37])

    def test_j_invariant_against_fraction(self):
        # seeded models of small and large span, and models (0, 0, a3, 0, a6),
        # whose c4 is 0; 1728 disc = c4^3 - c6^2 makes their disc negative
        rng = random.Random(23)
        models = [[rng.randint(-span, span) for _ in range(5)] for span in (20, 10**6) for _ in range(1000)]
        models += [[0, 0, rng.randint(0, 1), 0, rng.randint(-10**6, 10**6)] for _ in range(100)]
        seen = set()
        for a in models:
            try:
                inv = derive_invariants(CurveModel(*a))
            except SingularCurveError:
                continue
            j = Fraction(inv.c4**3, inv.disc)
            assert (inv.j_num, inv.j_den) == (j.numerator, j.denominator), a
            assert inv.j_den > 0
            seen.add((inv.c4 == 0, inv.disc_positive))
        assert seen == {(False, True), (False, False), (True, False)}

    def test_identities_random(self):
        rng = np.random.RandomState(1)
        checked = 0
        while checked < 10_000:
            a = [int(v) for v in rng.randint(-50, 51, size=5)]
            try:
                inv = derive_invariants(CurveModel(*a))
            except SingularCurveError:
                continue
            assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4 * inv.b4
            assert 1728 * inv.disc == inv.c4**3 - inv.c6**2
            assert inv.abs_disc > 0
            checked += 1

    @given(st.tuples(*(st.integers(-10**6, 10**6) for _ in range(5))))
    def test_identities_hypothesis(self, a):
        try:
            inv = derive_invariants(CurveModel(*a))
        except SingularCurveError:
            return
        assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4 * inv.b4
        assert 1728 * inv.disc == inv.c4**3 - inv.c6**2


class TestTwoTorsionRoots:
    def test_explicit_factorization(self):
        # 4x^3 - 4x = 4x(x-1)(x+1)
        inv = Invariants(
            b2=0, b4=-2, b6=0, b8=-1, c4=48, c6=0, disc=64, abs_disc=64,
            disc_positive=True, j_num=1728, j_den=1,
        )
        roots = two_torsion_roots(inv)
        assert inv.disc_positive
        assert roots.e1 == pytest.approx(1.0, abs=1e-12)
        assert roots.e2 == pytest.approx(0.0, abs=1e-12)
        assert roots.e3 == pytest.approx(-1.0, abs=1e-12)

    def test_37a1_product_identity(self):
        inv = derive_invariants(C37A1)
        r = two_torsion_roots(inv)
        product = (r.e1 - r.e2) * (r.e1 - r.e3) * (r.e2 - r.e3)
        assert product == pytest.approx(math.sqrt(37 / 16), rel=1e-10)

    def test_one_real_case(self):
        # y^2 = x^3 - x + 1 rescaled: torsion cubic 4x^3 - 4x + 4
        inv = derive_invariants(CurveModel(0, 0, 0, -1, 1))
        r = two_torsion_roots(inv)
        assert not inv.disc_positive and r.e1 is None
        # oracle: numpy companion-matrix roots of 4x^3 - 4x + 4
        np_roots = np.roots([4.0, 0.0, -4.0, 4.0])
        real = [z.real for z in np_roots if abs(z.imag) < 1e-9]
        pair = [z for z in np_roots if z.imag > 1e-9]
        assert r.r == pytest.approx(real[0], rel=1e-12)
        assert r.z == pytest.approx(pair[0].imag, rel=1e-10)
        assert r.r_tilde == pytest.approx(r.r)  # b2 = 0
        # case II identity: 2 Z B^2 = sqrt(-disc/16)
        b_sq = (1.5 * r.r_tilde) ** 2 + r.z**2
        assert 2 * r.z * b_sq == pytest.approx(math.sqrt(368 / 16), rel=1e-10)

    def test_near_singular_families(self):
        # y^2 = x^3 - 3k^2 x + 2k^3 +- 1: a double root at x = k split into a
        # complex pair (+1, disc < 0) or two real roots (-1, disc > 0) only
        # about k^(-1/2) apart; z comes from the exact disc, so 1/Omega keeps
        # its accuracy instead of being refused
        for k in (10**5, 10**6, 10**7):
            for sign in (1, -1):
                inv = derive_invariants(CurveModel(0, 0, 0, -3 * k * k, 2 * k**3 + sign))
                assert inv.disc_positive is (sign == -1)
                roots = two_torsion_roots(inv)
                assert 64 * roots.b_sq**2 * roots.z**2 == pytest.approx(inv.abs_disc, rel=1e-14)
                inv_omega = period_data(inv, roots).inv_omega
                assert inv_omega == pytest.approx(inv_omega_oracle(inv), rel=1e-13)

    def test_root_residuals_random(self):
        for curve in random_curves(400, seed=2):
            inv = derive_invariants(curve)
            roots = two_torsion_roots(inv)
            if not inv.disc_positive:
                continue
            for e in (roots.e1, roots.e2, roots.e3):
                value = ((4 * e + inv.b2) * e + 2 * inv.b4) * e + inv.b6
                assert abs(value) < 1e-8 * max(1.0, abs(inv.b6))

    def test_case_matches_disc_sign(self):
        for curve in random_curves(400, seed=3):
            inv = derive_invariants(curve)
            roots = two_torsion_roots(inv)
            assert (roots.e1 is not None) == inv.disc_positive
            if inv.disc_positive:
                assert roots.e1 > roots.e2 > roots.e3
                product = (roots.e1 - roots.e2) * (roots.e1 - roots.e3) * (roots.e2 - roots.e3)
                assert product == pytest.approx(math.sqrt(inv.disc / 16), rel=1e-9)
                b_sq = (1.5 * roots.r_tilde) ** 2 - roots.z**2
            else:
                b_sq = (1.5 * roots.r_tilde) ** 2 + roots.z**2
            assert roots.b_sq == pytest.approx(b_sq, rel=1e-12)
            assert 2 * roots.z * b_sq == pytest.approx(math.sqrt(inv.abs_disc / 16), rel=1e-10)


class TestTraceOfFrobenius:
    def test_bad_reduction(self):
        with pytest.raises(ValueError, match="bad reduction"):
            trace_of_frobenius(C37A1, 37)

    def test_not_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            trace_of_frobenius(C37A1, 15)

    def test_over_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            trace_of_frobenius(C37A1, 10**6 + 3)
        # a prime whose trial division would take years is refused at once
        with pytest.raises(ValueError, match="cutoff"):
            trace_of_frobenius(C37A1, 10**30 + 57)

    def test_hasse_bound_sample(self):
        primes = [p for p in range(2, 200) if is_prime(p)]
        for curve in random_curves(10, seed=4, span=20):
            inv = derive_invariants(curve)
            for p in primes:
                if inv.disc % p == 0:
                    continue
                a_p = trace_of_frobenius(curve, p)
                assert a_p * a_p <= 4 * p

    @pytest.mark.parametrize("label", EULER_CURVES)
    def test_every_good_prime_to_2000_against_euler_criterion(self, label):
        curve = EULER_CURVES[label]
        program = {p: trace_of_frobenius(curve, p) for p in good_primes(curve, 2000)}
        assert program == {p: ap_by_euler_criterion(curve, p) for p in program}

    def test_rational_torsion_divides_the_count(self):
        # Z/2 x Z/8 injects into E(F_p) at every good odd p
        curve = EULER_CURVES["210e2"]
        for p in good_primes(curve, 2000):
            assert (p + 1 - trace_of_frobenius(curve, p)) % 16 == 0

    def test_seeded_primes_to_20000_against_the_naive_count(self):
        rng = np.random.RandomState(22)
        primes = [p for p in range(2001, 20001) if is_prime(p)]
        for curve in random_curves(20, seed=22):
            inv = derive_invariants(curve)
            good = [p for p in primes if inv.disc % p]
            for p in rng.choice(good, 8, replace=False).tolist():
                assert trace_of_frobenius(curve, p) == _count_naive(curve, inv, p)

    @pytest.mark.parametrize("label", ["37a1", "389a1"])
    def test_primes_below_the_cutoff_against_the_naive_count(self, label):
        curve = EULER_CURVES[label]
        inv = derive_invariants(curve)
        primes = [p for p in range(POINT_COUNT_CUTOFF, POINT_COUNT_CUTOFF - 100, -1) if is_prime(p)]
        for p in [p for p in primes if inv.disc % p][:2]:
            assert trace_of_frobenius(curve, p) == _count_naive(curve, inv, p)

    # a_p of the newforms 11a and 37a, from their published q-expansions
    @pytest.mark.parametrize(
        "label, published",
        [
            pytest.param(
                "11a1", {2: -2, 3: -1, 5: 1, 7: -2, 13: 4, 17: -2, 19: 0, 23: -1, 29: 0, 31: 7}, id="11a1"
            ),
            pytest.param(
                "37a1", {2: -2, 3: -3, 5: -2, 7: -1, 11: -5, 13: -2, 17: 0, 19: 0, 23: 2, 29: 6}, id="37a1"
            ),
        ],
    )
    def test_published_q_expansions(self, label, published):
        assert {p: trace_of_frobenius(EULER_CURVES[label], p) for p in published} == published


class TestAmbiguousCandidates:
    """A point whose candidate set holds two or more t leads to another
    point, and after the last one to the naive count, never to a guess."""

    CURVE = EULER_CURVES["210e2"]

    def test_a_second_candidate_sends_the_count_on(self, monkeypatch):
        sets = []
        hasse_multiples = moddeg.curves._hasse_multiples

        def recorded(*args):
            sets.append(hasse_multiples(*args))
            return sets[-1]

        monkeypatch.setattr(moddeg.curves, "_hasse_multiples", recorded)
        inv = derive_invariants(self.CURVE)
        ambiguous = 0
        for p in good_primes(self.CURVE, 2000):
            sets.clear()
            a_p = trace_of_frobenius(self.CURVE, p)
            assert a_p == _count_naive(self.CURVE, inv, p)
            if sets and len(sets[0]) > 1:
                ambiguous += 1
                assert len(sets) > 1
        # points of small order leave several t on many primes of 210e2
        assert ambiguous >= 20

    def test_every_multiple_in_the_hasse_interval_is_collected(self):
        # each point of the short model of 210e2 at p = 113, small orders
        # and 2-torsion included, against its multiples added up one by one
        p, bound = 113, math.isqrt(4 * 113)
        inv = derive_invariants(self.CURVE)
        a, b = -27 * inv.c4 % p, -54 * inv.c6 % p
        points = [(x, y) for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0]
        assert len(points) + 1 == p + 1 - _count_naive(self.CURVE, inv, p)
        for point in points:
            multiples = [None]
            for _ in range(p + 1 + bound):
                multiples.append(moddeg.curves._ec_add(multiples[-1], point, a, p))
            expected = {u for u in range(-bound, bound + 1) if multiples[p + 1 - u] is None}
            assert moddeg.curves._hasse_multiples(point, a, p, bound) == expected

    def test_points_that_never_agree_fall_back_to_the_naive_count(self, monkeypatch):
        # every point admits t = 1 and t = -1; a_p of 210e2 is even
        p = 1999
        inv = derive_invariants(self.CURVE)
        a_p = _count_naive(self.CURVE, inv, p)
        points, naive = [], []

        def two_candidates(*args):
            points.append(args[0])
            return {-1, 1}

        def counted(curve, inv, p):
            naive.append(p)
            return _count_naive(curve, inv, p)

        monkeypatch.setattr(moddeg.curves, "_hasse_multiples", two_candidates)
        monkeypatch.setattr(moddeg.curves, "_count_naive", counted)
        assert trace_of_frobenius(self.CURVE, p) == a_p
        assert naive == [p]
        assert len(set(points)) == moddeg.curves._BSGS_TRIES


@pytest.mark.parametrize("value", [2.5, 7.0, math.nan, True], ids=["fraction", "float", "nan", "bool"])
@pytest.mark.parametrize("call", [squared_primes, is_prime], ids=["squared_primes", "is_prime"])
def test_factorize_and_is_prime_refuse_non_integers(call, value):
    with pytest.raises(ValueError, match=f"^n must be an exact integer, got {value!r}$"):
        call(value)


def test_value_types_are_immutable():
    inv = derive_invariants(C37A1)
    roots = two_torsion_roots(inv)
    period = period_data(inv, roots)
    values = [
        C37A1,
        inv,
        roots,
        period,
        parse_record({"a": [0, 0, 1, -1, 0], "conductor": 37}),
        lemma1_check(inv, period),
        NONCM,
        QuadratureResult(1.0, 0.0),
    ]
    for value in values:
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], 0)
        with pytest.raises(AttributeError):
            value.extra = 0
    assert len({type(value) for value in values}) == 8


class TestIsCm:
    def test_list_is_the_thirteen(self):
        assert len(CM_J_INVARIANTS) == 13
        assert CM_J_INVARIANTS[-3] == 0
        assert CM_J_INVARIANTS[-4] == 1728
        assert CM_J_INVARIANTS[-163] == -262537412640768000

    def test_j_zero(self):
        inv = derive_invariants(CurveModel(0, 0, 1, 0, -7))  # 27a1
        assert inv.j_num == 0 and is_cm(inv)

    def test_j_1728(self):
        inv = derive_invariants(CurveModel(0, 0, 0, -1, 0))
        assert inv.j_num // inv.j_den == 1728 and is_cm(inv)

    def test_j_minus_3375(self):
        inv = derive_invariants(CurveModel(1, -1, 0, -2, -1))  # 49a1
        assert inv.j_num == -3375 and inv.j_den == 1 and is_cm(inv)

    def test_37a1_not_cm(self):
        inv = derive_invariants(C37A1)
        assert (inv.j_num, inv.j_den) == (110592, 37)
        assert not is_cm(inv)
