import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ellipk

from moddeg.agm import AREA_BOUND_DENOMINATOR, agm, lemma1_check, lemma1_constants, period_data
from moddeg.curves import CurveModel, Invariants, RootData, derive_invariants, two_torsion_roots

from conftest import inv_omega_oracle, random_curves, real_period_by_integration

# 50-digit mpmath values, frozen.
AGM_1_INVSQRT2 = 0.84721308479397908661
K1_EXPECTED = 13.750371636040745655
K2_EXPECTED = 14.044556133045613852


def _invariants_of_sign(disc_positive: bool) -> Invariants:
    # period_data reads only the sign of the invariants; the roots carry the rest
    return Invariants(0, 0, 0, 0, 0, 0, 1, 1, disc_positive, 0, 1)


def area_pos_disc(r_tilde: float, z: float):
    """period_data for the three-real-root geometry (r_tilde, z)."""
    return period_data(_invariants_of_sign(True), RootData(None, r_tilde, None, z))


def area_neg_disc(r_tilde: float, z: float, b_sq: float):
    """period_data for the one-real-root geometry (r_tilde, z, B^2)."""
    return period_data(_invariants_of_sign(False), RootData(None, r_tilde, b_sq, z))


def lemma1_k1_k2() -> tuple[float, float]:
    pos, neg = lemma1_constants()
    return pos.value, neg.value


def test_package_does_not_shadow_the_agm_module():
    import moddeg

    assert inspect.ismodule(moddeg.agm)


class TestAgm:
    @pytest.mark.parametrize("x", [1.0, 2.5, 1e6])
    def test_fixed_point(self, x):
        assert agm(x, x) == pytest.approx(x, rel=1e-15)

    def test_lemniscatic_value(self):
        assert agm(1.0, 1.0 / math.sqrt(2.0)) == pytest.approx(AGM_1_INVSQRT2, rel=1e-14)

    def test_against_elliptic_integral(self):
        # K(m) = pi / (2 agm(1, sqrt(1-m)))
        for b in (0.9, 0.5, 0.1, 0.01):
            m = 1.0 - b * b
            assert agm(1.0, b) == pytest.approx(math.pi / (2.0 * ellipk(m)), rel=1e-12)

    @pytest.mark.parametrize("bad", [(1.0, 0.0), (0.0, 1.0), (-1.0, 2.0)])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            agm(*bad)

    def test_homogeneity_and_bracket_random(self):
        rng = np.random.RandomState(5)
        for _ in range(10_000):
            x, y = np.exp(rng.uniform(-8, 8, size=2))
            lam = math.exp(rng.uniform(-3, 3))
            m = agm(x, y)
            assert min(x, y) <= m * (1 + 1e-13) and m <= max(x, y) * (1 + 1e-13)
            assert agm(lam * x, lam * y) == pytest.approx(lam * m, rel=1e-14)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_symmetry_hypothesis(self, x, y):
        assert agm(x, y) == pytest.approx(agm(y, x), rel=1e-14)


class TestAreaPosDisc:
    # (r_tilde, z): roots r_tilde and -r_tilde/2 +- z of the depressed cubic
    def test_unit_triple(self):
        # roots 1, 0, -1
        data = area_pos_disc(1.0, 0.5)
        expected = agm(1.0, math.sqrt(2.0)) ** 2 / math.pi**2
        assert data.inv_omega == pytest.approx(expected, rel=1e-13)
        assert data.inv_omega == pytest.approx(0.1454506, abs=5e-7)
        # area bound with D = 64
        rhs = 64.0 ** (1.0 / 6.0) / AREA_BOUND_DENOMINATOR
        assert data.inv_omega >= rhs
        assert data.inv_omega - rhs == pytest.approx(0.00305, abs=5e-5)
        assert data.t_or_c == pytest.approx(0.5)

    def test_scaling(self):
        one = area_pos_disc(1.0, 0.5)
        two = area_pos_disc(2.0, 1.0)
        assert two.inv_omega == pytest.approx(2.0 * one.inv_omega, rel=1e-13)

    def test_ordering_error(self):
        # roots 0, 1, -1: 0 is not the isolated root
        with pytest.raises(ValueError):
            area_pos_disc(0.0, 1.0)

    def test_omega_is_period_product(self):
        # roots 3, 0.5, -1.25, centred at 0.75: 2.25 and -1.125 +- 0.875
        data = area_pos_disc(2.25, 0.875)
        assert data.omega == pytest.approx(data.real_period * data.imag_part, rel=1e-15)
        assert data.inv_omega * data.omega == pytest.approx(1.0, rel=1e-12)


class TestAreaNegDisc:
    def test_symmetric_case(self):
        # b2 = b6 = 0, b4 = 1: real root 0, r_tilde = 0, c = 0, Z^2 = B^2 = b4/2
        data = area_neg_disc(0.0, math.sqrt(0.5), 0.5)
        # disc = -8 b4^3 = -8
        d_sixth = 8.0 ** (1.0 / 6.0)
        expected = agm(1.0, math.sqrt(0.5)) ** 2
        assert data.inv_omega * math.pi**2 / d_sixth == pytest.approx(expected, rel=1e-12)
        assert data.t_or_c == pytest.approx(0.0, abs=1e-12)

    def test_extremal_c(self):
        # depressed roots r_tilde = sqrt(4/3), -r_tilde/2 +- i: c = sqrt(4/3),
        # B^2 = 3 r_tilde^2 = 4
        r = math.sqrt(4.0 / 3.0)
        data = area_neg_disc(r, 1.0, 4.0)
        _, k2 = lemma1_k1_k2()
        d_sixth = (64.0 * 1.0 * 16.0) ** (1.0 / 6.0)  # D = 64 Z^2 B^4, Z = 1, B = 2
        assert data.t_or_c == pytest.approx(r, rel=1e-12)
        assert data.inv_omega * math.pi**2 / d_sixth == pytest.approx(
            math.pi**2 / k2, rel=1e-12
        )

    def test_curve_368(self):
        inv = derive_invariants(CurveModel(0, 0, 0, -1, 1))
        roots = two_torsion_roots(inv)
        data = area_neg_disc(roots.r_tilde, roots.z, roots.b_sq)
        rhs = 368.0 ** (1.0 / 6.0) / AREA_BOUND_DENOMINATOR
        assert data.inv_omega >= rhs

    # roots that two_torsion_roots never gives: z = 0 divided by zero,
    # B^2 < 0 gave a complex omega, and z < 0 a positive one
    @pytest.mark.parametrize(
        "r_tilde, z, b_sq, field",
        [(1.0, 0.0, 1.0, "z"), (1.0, 1.0, -1.0, "b_sq"), (1.0, -1.0, 1.0, "z")],
        ids=["z=0", "b_sq<0", "z<0"],
    )
    def test_bad_roots_are_refused(self, r_tilde, z, b_sq, field):
        with pytest.raises(ValueError, match=rf"one real root needs {field} > 0"):
            area_neg_disc(r_tilde, z, b_sq)

    def test_shape_uses_the_root_step_z(self):
        # ill-conditioned y^2 = x^3 - 3k^2 x + 2k^3 + 1 at k = 1e4: the Z
        # that two_torsion_roots reports is the one the periods use
        k = 10**4
        inv = derive_invariants(CurveModel(0, 0, 0, -3 * k * k, 2 * k**3 + 1))
        roots = two_torsion_roots(inv)
        assert period_data(inv, roots).t_or_c == roots.r_tilde / roots.z


class TestLemma1:
    def test_constants(self):
        constants = lemma1_constants()
        assert [w.name for w in constants] == ["lemma1.case_pos_constant", "lemma1.case_neg_constant"]
        assert all(w.op == "<=" and w.bound == AREA_BOUND_DENOMINATOR for w in constants)
        assert all(w.passed for w in constants)
        k1, k2 = lemma1_k1_k2()
        assert k1 == pytest.approx(K1_EXPECTED, abs=1e-9)
        assert k2 == pytest.approx(K2_EXPECTED, abs=1e-9)
        assert max(k1, k2) <= AREA_BOUND_DENOMINATOR

    def test_pos_disc_grid_minimised_at_half(self):
        k1, _ = lemma1_k1_k2()
        ts = np.linspace(0.05, 0.95, 19)
        values = [
            math.pi**2
            / ((4 * t * (1 - t)) ** (1 / 3) * agm(1, math.sqrt(t)) * agm(1, math.sqrt(1 - t)))
            for t in ts
        ]
        assert all(v >= k1 - 1e-9 for v in values)
        assert np.argmin(values) == 9  # t = 0.5

    def test_neg_disc_grid_minimised_at_extremal_c(self):
        # the AGM product multiplying D^(1/6)/pi^2 is minimised at
        # c = +-sqrt(4/3), so the local constant pi^2/product peaks there
        _, k2 = lemma1_k1_k2()
        cs = np.linspace(0.0, 3.0, 61)
        values = []
        for c in cs:
            off = 3 * c / math.sqrt(16 + 36 * c * c)
            values.append(
                math.pi**2
                / (
                    (1 + 2.25 * c * c) ** (1 / 6)
                    * agm(1, math.sqrt(0.5 + off))
                    * agm(1, math.sqrt(0.5 - off))
                )
            )
        assert all(v <= k2 + 1e-9 for v in values)
        c_star = cs[int(np.argmax(values))]
        assert c_star == pytest.approx(math.sqrt(4.0 / 3.0), abs=0.05)

    def test_check_examples(self):
        for a, expect_ok in [((0, 0, 1, -1, 0), True), ((0, 0, 0, -1, 1), True)]:
            inv = derive_invariants(CurveModel(*a))
            check = lemma1_check(inv, period_data(inv, two_torsion_roots(inv)))
            assert check.passed is expect_ok
            assert check.value >= check.bound

    def test_holds_on_random_curves(self):
        for curve in random_curves(10_000, seed=6):
            inv = derive_invariants(curve)
            check = lemma1_check(inv, period_data(inv, two_torsion_roots(inv)))
            assert check.passed, f"area bound failed for {curve.a_invariants}"


class TestPeriodOracle:
    def test_agm_matches_integration(self):
        curves = random_curves(24, seed=7, span=12)
        pos = [c for c in curves if derive_invariants(c).disc_positive]
        neg = [c for c in curves if not derive_invariants(c).disc_positive]
        assert len(pos) >= 5 and len(neg) >= 5
        for curve in curves:
            inv = derive_invariants(curve)
            data = period_data(inv, two_torsion_roots(inv))
            oracle, _ = real_period_by_integration(inv)
            assert data.real_period == pytest.approx(oracle, rel=1e-9)

    def test_closed_form_agreement(self):
        for curve in random_curves(50, seed=8):
            inv = derive_invariants(curve)
            roots = two_torsion_roots(inv)
            data = period_data(inv, roots)
            if inv.disc_positive:
                t = (roots.e1 - roots.e2) / (roots.e1 - roots.e3)
                closed = (
                    (roots.e1 - roots.e3)
                    * agm(1, math.sqrt(t))
                    * agm(1, math.sqrt(1 - t))
                    / math.pi**2
                )
                # the root spread recovers D^(1/6) from the exact disc
                spread = (roots.e1 - roots.e3) * (4 * t * (1 - t)) ** (1 / 3)
                assert spread == pytest.approx(inv.abs_disc ** (1 / 6), rel=1e-9)
            else:
                c = data.t_or_c
                scale = 1 + 2.25 * c * c
                # D^(1/6) from the exact integer discriminant
                d_sixth = inv.abs_disc ** (1 / 6)
                s = math.hypot(4.0, 6.0 * c)
                if c >= 0.0:
                    plus, minus = (s + 6 * c) / (2 * s), 8.0 / (s * (s + 6 * c))
                else:
                    plus, minus = 8.0 / (s * (s - 6 * c)), (s - 6 * c) / (2 * s)
                closed = (
                    d_sixth
                    * scale ** (1 / 6)
                    * agm(1, math.sqrt(plus))
                    * agm(1, math.sqrt(minus))
                    / math.pi**2
                )
            assert data.inv_omega == pytest.approx(closed, rel=1e-12)


class TestInvOmegaOracle:
    """1/Omega against the precision-scaled mpmath oracle, far beyond the
    coefficient range of the tables."""

    @staticmethod
    def _rel_error(a) -> float:
        inv = derive_invariants(CurveModel(*a))
        value = period_data(inv, two_torsion_roots(inv)).inv_omega
        oracle = inv_omega_oracle(inv)
        return abs(value - oracle) / oracle

    @given(st.tuples(*(st.integers(-10**5, 10**5) for _ in range(5))))
    def test_large_coefficients_hypothesis(self, a):
        try:
            derive_invariants(CurveModel(*a))
        except ValueError:
            return
        assert self._rel_error(a) <= 1e-13

    @pytest.mark.parametrize("span", [10**3, 10**5])
    def test_seeded_random_models(self, span):
        for curve in random_curves(500, seed=13, span=span):
            assert self._rel_error(curve.a_invariants) <= 1e-13, curve.a_invariants

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", [10**3, 10**4, 3 * 10**4, 10**5, 10**6, 10**7])
    def test_near_singular_family(self, k, sign):
        # y^2 = x^3 - 3k^2 x + 2k^3 +- 1, |c4^3/disc| about k^3
        assert self._rel_error((0, 0, 0, -3 * k * k, 2 * k**3 + sign)) <= 1e-13

    @pytest.mark.parametrize("k", [10**3, 10**5, 10**7])
    def test_translated_model(self, k):
        # y^2 = (x + k)^3 + 2: r_tilde = -2^(1/3) far below b2/12 = k
        assert self._rel_error((0, 3 * k, 0, 3 * k * k, k**3 + 2)) <= 1e-13
