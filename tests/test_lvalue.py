import math

import pytest

import moddeg.curves
import moddeg.lvalue
from moddeg import CurveModel, derive_invariants, period_data, trace_of_frobenius, two_torsion_roots
from moddeg.lvalue import (
    lemma4_certify,
    symsq_lower_bound,
    symsq_value_estimate,
)
from moddeg.zerofree import MAX_CERTIFIED_N2

from conftest import EULER_CURVES, good_primes

N2_LADDER = [142, 10**3, 10**6, 10**12, 10**18]


class TestSymsqLowerBound:
    def test_at_142(self):
        assert symsq_lower_bound(142) == pytest.approx(0.033 / math.log(142), rel=1e-15)
        assert symsq_lower_bound(142) == pytest.approx(0.0066590, abs=1e-6)

    def test_at_1000(self):
        assert symsq_lower_bound(1000) == pytest.approx(0.0047772, abs=1e-6)

    def test_precondition(self):
        with pytest.raises(ValueError):
            symsq_lower_bound(100)
        with pytest.raises(ValueError, match="above the certified maximum"):
            symsq_lower_bound(MAX_CERTIFIED_N2 + 1)
        # NaN fails both range comparisons; the exact-integer rule comes first
        for n2 in (float("nan"), 1000.5, True):
            with pytest.raises(ValueError, match=f"^n2 must be an exact integer, got {n2!r}$"):
                symsq_lower_bound(n2)

    def test_strictly_decreasing(self):
        values = [symsq_lower_bound(n2) for n2 in N2_LADDER]
        assert all(b < a for a, b in zip(values, values[1:]))


def _values(n2: int) -> dict[str, float]:
    return {w.name: w.value for w in lemma4_certify(n2)}


class TestLemma4Certify:
    def test_at_142(self):
        waypoints = lemma4_certify(142)
        assert all(w.name.startswith("lvalue.") for w in waypoints)
        assert all(w.passed for w in waypoints)
        v = _values(142)
        assert v["lvalue.b_lower"] == pytest.approx(1.0 - 1.0 / (25.0 * math.log(142)), rel=1e-15)
        assert v["lvalue.b_lower"] == pytest.approx(0.9919287, abs=1e-7)
        assert v["lvalue.b_lower"] >= 0.99
        assert v["lvalue.log_x"] == pytest.approx(20.569, abs=1e-3)
        assert v["lvalue.log_x"] <= 4.2 * math.log(142)
        assert v["lvalue.x_power"] == pytest.approx(1.1806, abs=1e-3)
        assert v["lvalue.x_power"] <= 1.19
        assert v["lvalue.gamma_one_minus_b"] <= 25.0 * math.log(142)
        assert v["lvalue.error_integral"] < 62.0
        assert v["lvalue.chain_slack"] >= 0.0

    def test_x_power_identity(self):
        for n2 in N2_LADDER:
            v = _values(n2)
            identity = math.exp(v["lvalue.log_x"] / (25.0 * math.log(n2)))
            assert v["lvalue.x_power"] == pytest.approx(identity, rel=1e-12)
            assert v["lvalue.x_power"] <= math.exp(4.2 / 25.0) <= 1.19

    def test_chain_is_checked_against_symsq_lower_bound(self):
        for n2 in N2_LADDER:
            v = _values(n2)
            chain = (math.exp(-1e-6) - 0.01) / (v["lvalue.x_power"] * v["lvalue.gamma_one_minus_b"])
            assert v["lvalue.chain_slack"] == chain - symsq_lower_bound(n2)

    def test_ladder_passes(self):
        for n2 in N2_LADDER:
            assert all(w.passed for w in lemma4_certify(n2))

    def test_margins_grow(self):
        small = _values(142)
        large = _values(10**9)
        assert large["lvalue.x_power"] < small["lvalue.x_power"]
        assert 4.2 * math.log(10**9) - large["lvalue.log_x"] > 4.2 * math.log(142) - small["lvalue.log_x"]

    def test_precondition(self):
        with pytest.raises(ValueError):
            lemma4_certify(141)
        # the limit keeps 4000000.0 * n2 finite; it overflows from about 4.5e301
        for n2 in (MAX_CERTIFIED_N2 + 1, 10**302, 10**400):
            with pytest.raises(ValueError, match="above the certified maximum"):
                lemma4_certify(n2)
        assert all(w.passed for w in lemma4_certify(MAX_CERTIFIED_N2))


class TestEulerProductEstimate:
    CURVE = CurveModel(0, 0, 1, -1, 0, conductor=37)

    def test_cutoff_self_consistency(self):
        small = symsq_value_estimate(self.CURVE, 1000)
        large = symsq_value_estimate(self.CURVE, 10_000)
        assert small > 0.0 and large > 0.0
        assert abs(small - large) / large < 0.05

    def test_against_degree_formula(self):
        # for this curve the exact degree formula gives
        # L(Sym^2, 1) = 2 pi Omega deg / N with deg = 2
        inv = derive_invariants(self.CURVE)
        omega = period_data(inv, two_torsion_roots(inv)).omega
        target = 2.0 * math.pi * omega * 2.0 / 37.0
        estimate = symsq_value_estimate(self.CURVE, 10_000)
        assert estimate == pytest.approx(target, rel=0.02)

    def test_exceeds_certified_lower_bound(self):
        estimate = symsq_value_estimate(self.CURVE, 1000)
        assert estimate >= symsq_lower_bound(37**2)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            symsq_value_estimate(self.CURVE, 10**7)
        for cutoff in (1, 0, -5):
            with pytest.raises(ValueError, match="prime_cutoff"):
                symsq_value_estimate(self.CURVE, cutoff)

    def test_a_prime_cutoff_takes_its_own_factor(self):
        p = 1999
        a_p = trace_of_frobenius(self.CURVE, p)
        factor = (1.0 - (a_p * a_p - 2.0 * p) / (p * p) + 1.0 / (p * p)) * (1.0 - 1.0 / p)
        assert symsq_value_estimate(self.CURVE, p) * factor == pytest.approx(
            symsq_value_estimate(self.CURVE, p - 1), rel=1e-12
        )

    @pytest.mark.parametrize("label", EULER_CURVES)
    def test_is_the_euler_product_over_the_good_primes(self, label):
        # rebuilt in ascending order from the public a_p, over exactly the
        # primes not dividing |disc| * N; the seeded models have no conductor
        curve = EULER_CURVES[label]
        product = 1.0
        for p in good_primes(curve, 2000):
            a_p = trace_of_frobenius(curve, p)
            p2 = float(p * p)
            product /= (1.0 - (a_p * a_p - 2.0 * p) / p2 + 1.0 / p2) * (1.0 - 1.0 / p)
        assert symsq_value_estimate(curve, 2000) == pytest.approx(product, rel=1e-12)

    def test_derives_the_invariants_once(self, monkeypatch):
        calls = []

        def counted(curve):
            calls.append(curve)
            return derive_invariants(curve)

        monkeypatch.setattr(moddeg.curves, "derive_invariants", counted)
        monkeypatch.setattr(moddeg.lvalue, "derive_invariants", counted)
        symsq_value_estimate(self.CURVE, 2000)
        assert calls == [self.CURVE]


@pytest.mark.parametrize(
    "function, name, value",
    [
        (trace_of_frobenius, "p", 2.0),
        (trace_of_frobenius, "p", 5.0),
        (trace_of_frobenius, "p", True),
        (symsq_value_estimate, "prime_cutoff", True),
        (symsq_value_estimate, "prime_cutoff", 2000.0),
        (symsq_value_estimate, "prime_cutoff", "2000"),
    ],
)
def test_non_integer_argument_refused(function, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an exact integer, got {value!r}$"):
        function(EULER_CURVES["37a1"], value)
