import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from moddeg.specfun import digamma
from moddeg.zerofree import (
    MAX_CERTIFIED_N2,
    MIN_CERTIFIED_N2,
    QI_COS_COEFFS,
    CertReport,
    _wp,
    certify_cm_qi,
    certify_cm_zeta3,
    certify_noncm,
    cos_poly_min_on_grid,
    cos_poly_value,
    eta_smaller_root,
    quintic_beta_optimum,
    region_cm_qi,
    region_cm_zeta3,
    region_noncm,
    trig_poly_expand,
)

N2_LADDER = [142, 143, 1000, 10**6, 10**12]


class TestEtaSmallerRoot:
    def test_hand_example(self):
        # delta = 0.04 in the non-CM quadratic: roots 4 and 5
        assert eta_smaller_root(0.1, -0.9, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_endpoint_double_root(self):
        region = region_noncm()
        d = region.delta_max
        eta = region.eta(d)
        assert eta == pytest.approx((2.0 - 5.0 * d) / (10.0 * d), rel=1e-9)
        assert eta == pytest.approx(4.44949, abs=1e-5)

    def test_beyond_endpoint(self):
        with pytest.raises(ValueError, match="complex roots"):
            eta_smaller_root(2.5 * 0.05, 2.5 * 0.05 - 1.0, 2.0)

    def test_nonpositive_roots(self):
        with pytest.raises(ValueError, match="positive"):
            eta_smaller_root(1.0, 2.0, -3.0)


class TestRegionConstants:
    def test_noncm(self):
        region = region_noncm()
        s6 = math.sqrt(6.0)
        assert region.delta_max == pytest.approx(2.0 * (5.0 - 2.0 * s6) / 5.0, rel=1e-15)
        assert region.delta_max == pytest.approx(0.040408, abs=5e-6)
        assert region.eta_delta_max == pytest.approx(0.1797959, abs=1e-6)
        assert region.c_param == 96

    def test_cm_qi(self):
        region = region_cm_qi()
        assert region.delta_max == pytest.approx(0.050628, abs=5e-6)
        assert region.eta_delta_max == pytest.approx(math.sqrt(2.0) * (2.0**0.25 - 1.0), rel=1e-15)
        assert region.eta_delta_max == pytest.approx(0.2675793, abs=1e-6)
        assert region.c_param == 100

    def test_cm_zeta3(self):
        region = region_cm_zeta3()
        assert region.delta_max == pytest.approx(0.0592669, abs=1e-6)
        assert region.eta_delta_max == pytest.approx((6 * math.sqrt(2014) - 212) / 261, rel=1e-15)
        assert region.c_param == 64

    def test_delta_max_below_006(self):
        for region in (region_noncm(), region_cm_qi(), region_cm_zeta3()):
            assert 0.0 < region.delta_max < 0.06

    def test_quadratic_discriminant_vanishes(self):
        # closed-form identities: 25 d^2 - 100 d + 4 = 0 and friends
        for region in (region_noncm(), region_cm_qi(), region_cm_zeta3()):
            a2, a1, a0 = region.quadratic_coefficients(region.delta_max)
            disc = a1 * a1 - 4.0 * a2 * a0
            assert abs(disc) <= 1e-12 * max(a1 * a1, abs(4.0 * a2 * a0))

    def test_eta_delta_monotone_to_endpoint(self):
        for region in (region_noncm(), region_cm_qi(), region_cm_zeta3()):
            deltas = np.linspace(region.delta_max / 50.0, region.delta_max, 50)
            products = [d * region.eta(d) for d in deltas]
            assert all(b > a for a, b in zip(products, products[1:]))
            assert products[-1] == pytest.approx(region.eta_delta_max, rel=1e-7)


class TestPassRule:
    def test_no_slack(self):
        assert _wp("x", 1.0, "<=", 1.0).passed
        assert not _wp("x", 1.0 + 1e-13, "<=", 1.0).passed
        assert _wp("x", 1.0, ">=", 1.0).passed
        assert not _wp("x", 1.0 - 1e-13, ">=", 1.0).passed

    def test_abs_diff(self):
        for value in (2.5 - 1e-9, 2.5 + 1e-9):
            assert _wp("x", value, "abs_diff<=", (2.5, 1e-8)).passed
        for value in (2.5 - 2e-8, 2.5 + 2e-8):
            assert not _wp("x", value, "abs_diff<=", (2.5, 1e-8)).passed

    def test_overall_pass_follows_waypoints(self):
        good = _wp("good", 0.0, "<=", 1.0)
        bad = _wp("bad", 2.0, "<=", 1.0)
        assert CertReport("noncm", (good,)).overall_pass
        assert not CertReport("noncm", (good, bad)).overall_pass


class TestCertifications:
    def test_noncm_at_142(self):
        report = certify_noncm(142)
        assert report.overall_pass
        wp = {w.name: w for w in report.waypoints}
        assert wp["sigma_max"].value == pytest.approx(1.4592736, abs=1e-6)
        assert wp["middle_term"].value == pytest.approx(-0.8417560, abs=1e-6)
        assert wp["gamma_factor_sum"].value == pytest.approx(1.7352666, abs=1e-6)
        assert wp["log_32_pi8"].value == pytest.approx(math.log(32.0) + 8.0 * math.log(math.pi), rel=1e-15)
        assert wp["contradiction_total"].value == pytest.approx(-0.3127045, abs=1e-6)

    def test_noncm_sigma_to_one_limit(self):
        report = certify_noncm(10**18)
        wp = {w.name: w for w in report.waypoints}
        limit = 1.5 * digamma(0.5) + 4.0 * digamma(2.0) + 1.5 * digamma(1.0) + digamma(3.0)
        assert wp["gamma_factor_sum"].value == pytest.approx(limit, abs=0.05)
        assert wp["gamma_factor_sum"].value <= 1.74

    def test_qi_at_142(self):
        report = certify_cm_qi(142)
        assert report.overall_pass
        wp = {w.name: w for w in report.waypoints}
        assert wp["sigma_max"].value == pytest.approx(1.7630801, abs=1e-6)
        assert wp["middle_term"].value == pytest.approx(-0.6129665, abs=1e-6)
        assert abs(wp["endpoint_disc"].value) <= 1e-12
        assert wp["constant_block"].value == pytest.approx(9.4482774, abs=1e-6)
        assert wp["contradiction_total"].value == pytest.approx(-0.7263059, abs=1e-6)
        assert report.notes  # statement/proof C mismatch is recorded

    def test_zeta3_at_142(self):
        report = certify_cm_zeta3(142)
        assert report.overall_pass
        wp = {w.name: w for w in report.waypoints}
        assert wp["sigma_max"].value == pytest.approx(1.2753126, abs=1e-6)
        assert wp["gamma_factor_sum"].value == pytest.approx(151.18175, abs=1e-4)
        assert wp["middle_term"].value == pytest.approx(-59.271010, abs=1e-5)
        assert wp["constant_block"].value == pytest.approx(-644.52998, abs=1e-4)
        assert wp["half_261_log_64"].value == pytest.approx(130.5 * math.log(64.0), rel=1e-15)
        assert wp["contradiction_total"].value == pytest.approx(-7.7957339, abs=1e-6)

    def test_gamma_sums_recomputed(self):
        # independent reassembly of the extremal evaluation points
        n2 = 142
        region = region_noncm()
        log_ratio = math.log(n2 / region.c_param)
        sigma = 1.0 + region.eta_delta_max / log_ratio
        expected = (
            1.5 * digamma(sigma / 2)
            + 4.0 * digamma(sigma + 1)
            + 1.5 * digamma((sigma + 1) / 2)
            + digamma(sigma + 2)
        )
        wp = {w.name: w for w in certify_noncm(n2).waypoints}
        assert wp["gamma_factor_sum"].value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("certify", [certify_noncm, certify_cm_qi, certify_cm_zeta3])
    def test_ladder_passes_with_monotone_margins(self, certify):
        def margins(report):
            out = {}
            for w in report.waypoints:
                if w.op in ("<=", "<"):
                    out[w.name] = w.bound - w.value
                elif w.op == ">=":
                    out[w.name] = w.value - w.bound
            return out

        previous = None
        for n2 in N2_LADDER:
            report = certify(n2)
            assert report.overall_pass, f"{certify.__name__} failed at n2 = {n2}"
            current = margins(report)
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
        assert certify(MAX_CERTIFIED_N2).overall_pass


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
        beta_star = quintic_beta_optimum().beta_star
        for coeffs in (
            QI_COS_COEFFS,
            trig_poly_expand(Fraction(5, 2)),
            _float_coeffs(beta_star),
        ):
            assert cos_poly_min_on_grid(coeffs, 10_000) >= -1e-12

    def test_grid_minimum_matches_numpy(self):
        theta = np.linspace(0.0, math.pi, 1001)
        for coeffs in (QI_COS_COEFFS, trig_poly_expand(Fraction(5, 2)), (0.5, -1.0, 0.25)):
            oracle = sum(float(c) * np.cos(k * theta) for k, c in enumerate(coeffs)).min()
            assert cos_poly_min_on_grid(coeffs, 1001) == pytest.approx(float(oracle), abs=1e-12)

    def test_value_matches_product(self):
        coeffs = trig_poly_expand(Fraction(5, 2))
        for theta in np.linspace(0.0, math.pi, 64):
            direct = (1 + math.cos(theta)) * (1 + 2.5 * math.cos(theta)) ** 2
            assert cos_poly_value(coeffs, float(theta)) == pytest.approx(direct, abs=1e-12)

    def test_qi_coefficients_match_square(self):
        # (1 + sqrt(2) cos t)^2 expands to 2 + 2 sqrt(2) cos t + cos 2t
        for theta in np.linspace(0.0, math.pi, 64):
            direct = (1 + math.sqrt(2) * math.cos(theta)) ** 2
            assert cos_poly_value(QI_COS_COEFFS, float(theta)) == pytest.approx(direct, abs=1e-12)


def _float_coeffs(beta: float) -> tuple[float, float, float, float]:
    b2 = beta * beta
    return (1 + (b2 + 2 * beta) / 2, 1 + 2 * beta + 0.75 * b2, (b2 + 2 * beta) / 2, b2 / 4)


class TestQuintic:
    def test_root_and_beta(self):
        result = quintic_beta_optimum()
        assert abs(result.residual) < 1e-10
        assert result.root == pytest.approx(1.314576083, abs=1e-8)
        assert result.beta_star == pytest.approx(2.629152166, abs=1e-8)

    def test_numpy_oracle(self):
        roots = np.roots([1.0, -25.0, -4.0, 30.0, 19.0, 3.0])
        positive = sorted(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0)
        # two positive real roots; the relevant one is the smaller
        assert len(positive) == 2
        assert quintic_beta_optimum().root == pytest.approx(positive[0], rel=1e-12)
