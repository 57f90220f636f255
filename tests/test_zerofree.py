import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from moddeg.specfun import digamma
from moddeg.zerofree import (
    CM_QI,
    CM_ZETA3,
    MAX_CERTIFIED_N2,
    MIN_CERTIFIED_N2,
    NONCM,
    Waypoint,
    _endpoint_disc,
    _endpoint_eta,
    certify_cm_qi,
    certify_cm_zeta3,
    certify_noncm,
    quintic_beta_optimum,
    trig_poly_expand,
)

N2_LADDER = [142, 143, 1000, 10**6, 10**12]

# The case table in exact arithmetic: the region, its delta_max, its case
# quadratic (a2, a1, a0) as a function of delta, and the closed form of
# eta * delta at delta_max.
S2 = sp.sqrt(2)
EXACT_CASES = [
    (
        NONCM,
        2 * (5 - 2 * sp.sqrt(6)) / 5,
        lambda d: (sp.Rational(5, 2) * d, sp.Rational(5, 2) * d - 1, 2),
        2 * (sp.sqrt(6) - 2) / 5,
    ),
    (
        CM_QI,
        S2 + 2 - 2 ** sp.Rational(7, 4),
        lambda d: (S2 * d, S2 * d - 2 * S2 + 2, 2),
        S2 * (2 ** sp.Rational(1, 4) - 1),
    ),
    (
        CM_ZETA3,
        (554 - 12 * sp.sqrt(2014)) / 261,
        lambda d: (261 * d, 261 * d - 130, 212),
        (6 * sp.sqrt(2014) - 212) / 261,
    ),
]
CASE_IDS = ["noncm", "cm_qi", "cm_zeta3"]


def eta_delta_max(region) -> float:
    """The closed form of eta * delta at the region's delta_max."""
    return next(float(closed) for exact_region, _, _, closed in EXACT_CASES if exact_region is region)


def smaller_root(a2: float, a1: float, a0: float) -> float:
    """Test oracle: the smaller real part among numpy's roots of
    a2 x^2 + a1 x + a0 (at delta_max the rounded discriminant may fall just
    below zero, and the double root comes back as a conjugate pair)."""
    return float(np.roots([a2, a1, a0]).real.min())


class TestEtaSmallerRoot:
    def test_endpoint_double_root(self):
        region = NONCM
        d = region.delta_max
        eta = _endpoint_eta(region)
        assert eta == pytest.approx((2.0 - 5.0 * d) / (10.0 * d), rel=1e-9)
        assert eta == pytest.approx(4.44949, abs=1e-5)


class TestRegionConstants:
    def test_noncm(self):
        region = NONCM
        s6 = math.sqrt(6.0)
        assert region.delta_max == pytest.approx(2.0 * (5.0 - 2.0 * s6) / 5.0, rel=1e-15)
        assert region.delta_max == pytest.approx(0.040408, abs=5e-6)
        assert _endpoint_eta(region) * region.delta_max == pytest.approx(0.1797959, abs=1e-6)
        assert region.c_param == 96

    def test_cm_qi(self):
        region = CM_QI
        assert region.delta_max == pytest.approx(0.050628, abs=5e-6)
        assert _endpoint_eta(region) * region.delta_max == pytest.approx(0.2675793, abs=1e-6)
        assert region.c_param == 100

    def test_cm_zeta3(self):
        region = CM_ZETA3
        assert region.delta_max == pytest.approx(0.0592669, abs=1e-6)
        assert _endpoint_eta(region) * region.delta_max == pytest.approx(0.2194087, abs=1e-6)
        assert region.c_param == 64

    def test_delta_max_below_006(self):
        for region in (NONCM, CM_QI, CM_ZETA3):
            assert 0.0 < region.delta_max < 0.06

    def test_quadratic_discriminant_vanishes(self):
        for region in (NONCM, CM_QI, CM_ZETA3):
            disc, scale = _endpoint_disc(region)
            assert abs(disc) <= 1e-12 * scale

    @pytest.mark.parametrize("case", EXACT_CASES, ids=CASE_IDS)
    def test_delta_max_identities_exact(self, case):
        region, delta, quadratic, closed = case
        a2, a1, a0 = quadratic(delta)
        # a double root at delta_max, and that root times delta_max is the closed form
        assert sp.simplify(a1**2 - 4 * a2 * a0) == 0
        assert sp.simplify(-a1 / (2 * a2) * delta - closed) == 0
        # the doubles of the case table are those exact quantities
        assert region.delta_max == pytest.approx(float(delta), rel=1e-15)
        for d in (delta / 3, delta):
            assert region.quadratic(float(d)) == pytest.approx([float(c) for c in quadratic(d)], rel=1e-15)
        assert _endpoint_eta(region) * region.delta_max == pytest.approx(float(closed), rel=1e-15)

    def test_eta_delta_monotone_to_endpoint(self):
        for region in (NONCM, CM_QI, CM_ZETA3):
            deltas = np.linspace(region.delta_max / 50.0, region.delta_max, 50)
            products = [d * smaller_root(*region.quadratic(d)) for d in deltas]
            assert all(b > a for a, b in zip(products, products[1:]))
            assert products[-1] == pytest.approx(eta_delta_max(region), rel=1e-7)


def _frozen_rule(value, op, bound):
    """The pass rule written as six branches, the reference the op table
    behind Waypoint.passed is compared with."""
    if op == "<=":
        return value <= bound
    if op == "<":
        return value < bound
    if op == ">=":
        return value >= bound
    if op == "abs<=":
        return abs(value) <= bound
    if op == "in":
        lo, hi = bound
        return lo <= value <= hi
    if op == "abs_diff<=":
        target, tol = bound
        return abs(value - target) <= tol
    raise ValueError(f"unknown waypoint op {op!r}")


def _around(x):
    """x, one ulp either side of it, and NaN."""
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf), math.nan)


# each op with a bound and the values to judge: each end of the bound, one
# ulp either side of it, and NaN; then a NaN inside the bound
_RULE_CASES = [
    *((op, 1.5, _around(1.5)) for op in ("<=", "<", ">=")),
    ("abs<=", 1.5, _around(1.5) + _around(-1.5)),
    ("in", (-1.0, 2.5), _around(-1.0) + _around(2.5)),
    ("abs_diff<=", (2.5, 1e-8), _around(2.5 - 1e-8) + _around(2.5 + 1e-8) + _around(2.5)),
    *((op, math.nan, (0.0, 1.0, math.inf)) for op in ("<=", "<", ">=", "abs<=")),
    ("in", (math.nan, 2.5), (0.0, 1.0)),
    ("in", (-1.0, math.nan), (0.0, 1.0)),
    ("abs_diff<=", (math.nan, 1e-8), (0.0, 2.5)),
    ("abs_diff<=", (2.5, math.nan), (2.5, 3.0)),
]


class TestPassRule:
    @pytest.mark.parametrize("op, bound, values", _RULE_CASES)
    def test_each_op_as_the_frozen_branches(self, op, bound, values):
        verdicts = [Waypoint("x", value, op, bound).passed for value in values]
        assert verdicts == [_frozen_rule(value, op, bound) for value in values]

    def test_fields_and_verdict_follow_a_replaced_value(self):
        w = Waypoint("x", 1.0, "<=", 1.0)
        assert Waypoint._fields == ("name", "value", "op", "bound")
        assert w.passed
        assert not w._replace(value=math.nextafter(1.0, 2.0)).passed
        assert not w._replace(value=math.nan).passed
        assert w._replace(value=2.0, bound=2.0).passed
        assert not w._replace(op="<").passed

    def test_unknown_op(self):
        w = Waypoint("x", 1.0, "==", 1.0)
        with pytest.raises(ValueError, match="^unknown waypoint op '=='$"):
            w.passed

    def test_no_slack(self):
        assert Waypoint("x", 1.0, "<=", 1.0).passed
        assert not Waypoint("x", 1.0 + 1e-13, "<=", 1.0).passed
        assert Waypoint("x", 1.0, ">=", 1.0).passed
        assert not Waypoint("x", 1.0 - 1e-13, ">=", 1.0).passed

    def test_abs_diff(self):
        for value in (2.5 - 1e-9, 2.5 + 1e-9):
            assert Waypoint("x", value, "abs_diff<=", (2.5, 1e-8)).passed
        for value in (2.5 - 2e-8, 2.5 + 2e-8):
            assert not Waypoint("x", value, "abs_diff<=", (2.5, 1e-8)).passed


class TestCertifications:
    def test_noncm_at_142(self):
        waypoints = certify_noncm(142)
        assert all(w.passed for w in waypoints)
        wp = {w.name: w for w in waypoints}
        assert wp["noncm.sigma_max"].value == pytest.approx(1.4592736, abs=1e-6)
        assert wp["noncm.middle_term"].value == pytest.approx(-0.8417560, abs=1e-6)
        assert wp["noncm.gamma_factor_sum"].value == pytest.approx(1.7352666, abs=1e-6)
        assert wp["noncm.log_32_pi8"].value == pytest.approx(math.log(32.0) + 8.0 * math.log(math.pi), rel=1e-15)
        assert wp["noncm.contradiction_total"].value == pytest.approx(-0.3127045, abs=1e-6)

    def test_noncm_sigma_to_one_limit(self):
        waypoints = certify_noncm(10**18)
        wp = {w.name: w for w in waypoints}
        limit = 1.5 * digamma(0.5) + 4.0 * digamma(2.0) + 1.5 * digamma(1.0) + digamma(3.0)
        assert wp["noncm.gamma_factor_sum"].value == pytest.approx(limit, abs=0.05)
        assert wp["noncm.gamma_factor_sum"].value <= 1.74

    def test_qi_at_142(self):
        waypoints = certify_cm_qi(142)
        assert all(w.passed for w in waypoints)
        wp = {w.name: w for w in waypoints}
        assert wp["cm_qi.sigma_max"].value == pytest.approx(1.7630801, abs=1e-6)
        assert wp["cm_qi.middle_term"].value == pytest.approx(-0.6129665, abs=1e-6)
        assert abs(wp["cm_qi.endpoint_disc"].value) <= 1e-12
        assert wp["cm_qi.constant_block"].value == pytest.approx(9.4482774, abs=1e-6)
        assert wp["cm_qi.contradiction_total"].value == pytest.approx(-0.7263059, abs=1e-6)

    def test_zeta3_at_142(self):
        waypoints = certify_cm_zeta3(142)
        assert all(w.passed for w in waypoints)
        wp = {w.name: w for w in waypoints}
        assert wp["cm_zeta3.sigma_max"].value == pytest.approx(1.2753126, abs=1e-6)
        assert wp["cm_zeta3.gamma_factor_sum"].value == pytest.approx(151.18175, abs=1e-4)
        assert wp["cm_zeta3.middle_term"].value == pytest.approx(-59.271010, abs=1e-5)
        assert wp["cm_zeta3.constant_block"].value == pytest.approx(-644.52998, abs=1e-4)
        assert wp["cm_zeta3.half_261_log_64"].value == pytest.approx(130.5 * math.log(64.0), rel=1e-15)
        assert wp["cm_zeta3.contradiction_total"].value == pytest.approx(-7.7957339, abs=1e-6)

    def test_gamma_sums_recomputed(self):
        # independent reassembly of the extremal evaluation points
        n2 = 142
        log_ratio = math.log(n2 / NONCM.c_param)
        sigma = 1.0 + eta_delta_max(NONCM) / log_ratio
        expected = (
            1.5 * digamma(sigma / 2)
            + 4.0 * digamma(sigma + 1)
            + 1.5 * digamma((sigma + 1) / 2)
            + digamma(sigma + 2)
        )
        wp = {w.name: w for w in certify_noncm(n2)}
        assert wp["noncm.gamma_factor_sum"].value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("certify", [certify_noncm, certify_cm_qi, certify_cm_zeta3])
    def test_ladder_passes_with_monotone_margins(self, certify):
        def margins(waypoints):
            out = {}
            for w in waypoints:
                if w.op in ("<=", "<"):
                    out[w.name] = w.bound - w.value
                elif w.op == ">=":
                    out[w.name] = w.value - w.bound
            return out

        previous = None
        for n2 in N2_LADDER:
            waypoints = certify(n2)
            assert all(w.passed for w in waypoints), f"{certify.__name__} failed at n2 = {n2}"
            current = margins(waypoints)
            if previous is not None:
                for name, margin in current.items():
                    assert margin >= previous[name] - 1e-12, (name, n2)
            previous = current

    @pytest.mark.parametrize("certify", [certify_noncm, certify_cm_qi, certify_cm_zeta3])
    def test_precondition(self, certify):
        with pytest.raises(ValueError, match="below the certified minimum"):
            certify(MIN_CERTIFIED_N2 - 1)
        with pytest.raises(ValueError, match="above the certified maximum"):
            certify(MAX_CERTIFIED_N2 + 1)
        with pytest.raises(ValueError, match="^n2 must be an exact integer, got nan$"):
            certify(float("nan"))
        assert all(w.passed for w in certify(MAX_CERTIFIED_N2))


class TestTrigPoly:
    def test_beta_five_halves(self):
        assert trig_poly_expand(Fraction(5, 2)) == (
            Fraction(106, 16),
            Fraction(171, 16),
            Fraction(90, 16),
            Fraction(25, 16),
        )

    def test_beta_zero(self):
        assert trig_poly_expand(0) == (1, 1, 0, 0)

    @pytest.mark.parametrize("beta", [-1, Fraction(-1, 2)])
    def test_negative_beta_is_refused(self, beta):
        with pytest.raises(ValueError, match="^beta must be nonnegative$"):
            trig_poly_expand(beta)

    def test_beta_one(self):
        # (1 + cos t)^3 = (10 + 15 cos t + 6 cos 2t + cos 3t)/4
        assert trig_poly_expand(1) == (
            Fraction(10, 4),
            Fraction(15, 4),
            Fraction(6, 4),
            Fraction(1, 4),
        )

    @pytest.mark.parametrize("beta", [Fraction(5, 2), Fraction(1), Fraction(7, 3)])
    def test_sympy_oracle(self, beta):
        theta = sp.symbols("theta", real=True)
        b = sp.Rational(beta.numerator, beta.denominator)
        product = (1 + sp.cos(theta)) * (1 + b * sp.cos(theta)) ** 2
        c = trig_poly_expand(beta)
        expansion = sum(
            sp.Rational(ck.numerator, ck.denominator) * sp.cos(k * theta)
            for k, ck in enumerate(c)
        )
        assert sp.simplify(sp.expand_trig(product - expansion)) == 0

    def test_nonnegative_on_grid(self):
        # the expansion at 5/2 and at the optimal weight beta* evaluates,
        # like the product it expands, to no negative value
        theta = np.linspace(0.0, math.pi, 10_000)
        for beta in (Fraction(5, 2), Fraction(quintic_beta_optimum())):
            values = sum(float(c) * np.cos(k * theta) for k, c in enumerate(trig_poly_expand(beta)))
            assert values.min() >= -1e-12


QUINTIC = [1.0, -25.0, -4.0, 30.0, 19.0, 3.0]


class TestQuintic:
    def test_root_and_beta(self):
        beta_star = quintic_beta_optimum()
        root = beta_star / 2.0
        assert abs(np.polyval(QUINTIC, root)) < 1e-10
        assert root == pytest.approx(1.314576083, abs=1e-8)
        assert beta_star == pytest.approx(2.629152166, abs=1e-8)

    def test_numpy_oracle(self):
        roots = np.roots(QUINTIC)
        positive = sorted(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0)
        # two positive real roots; the relevant one is the smaller
        assert len(positive) == 2
        assert quintic_beta_optimum() / 2.0 == pytest.approx(positive[0], rel=1e-12)
