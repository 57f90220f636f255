import math

import pytest

from moddeg.bounds import (
    crossover_check,
    degree_formula_bound,
    linear_bounds,
    theorem1,
    theorem2,
    theorem2_closed_form,
)


class TestDegreeFormulaBound:
    def test_algebraic_identity(self):
        # l = 2 pi omega / N collapses the bound to the empty product
        n, omega = 37, 7.338
        l_value = 2.0 * math.pi * omega / n
        assert degree_formula_bound(n, omega, l_value) == pytest.approx(1.0, rel=1e-15)

    def test_synthetic_arithmetic(self):
        n = 20000
        value = degree_formula_bound(n, 1.0, 0.033 / math.log(n * n))
        assert value == pytest.approx(n * 0.033 / (2.0 * math.pi * 2.0 * math.log(n)), rel=1e-15)
        assert value == pytest.approx(5.3035, abs=1e-3)

    def test_fudge_product(self):
        base = degree_formula_bound(100, 2.0, 0.01)
        assert degree_formula_bound(100, 2.0, 0.01, [0.5, 1.5]) == pytest.approx(0.75 * base)

    @pytest.mark.parametrize(
        "bad",
        [(0, 1.0, 1.0), (10, -1.0, 1.0), (10, 1.0, 0.0), (5, math.nan, 0.1), (5, 1.0, math.nan),
         (5, 1.0, 0.1, [math.nan])],
    )
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            degree_formula_bound(*bad)

    def test_fudge_domain(self):
        with pytest.raises(ValueError):
            degree_formula_bound(10, 1.0, 1.0, [0.0])


class TestTheorem1:
    def test_at_20000(self):
        result = theorem1(20000, 1.0)
        assert result["closed_form"] == pytest.approx(1.9666, abs=5e-3)

    def test_at_million(self):
        result = theorem1(10**6, 1.0)
        assert result["closed_form"] == pytest.approx(10**7 / (5350.0 * math.log(10**6)), rel=1e-15)
        assert result["closed_form"] == pytest.approx(135.29, abs=0.05)

    def test_analytic_form(self):
        n, omega = 50000, 0.37
        result = theorem1(n, omega)
        assert result["analytic"] == pytest.approx(n / omega * 0.033 / (2.0 * math.log(n)), rel=1e-15)

    def test_nan_omega(self):
        with pytest.raises(ValueError, match="omega > 0"):
            theorem1(20000, math.nan)


class TestTheorem2:
    def test_empty_product_intermediate(self):
        n, n2 = 20000, 20000**2
        result = theorem2(n, n2, 1.0)
        assert result["intermediate"] == pytest.approx(n ** (7 / 6) / (7150.0 * math.log(n2)), rel=1e-15)

    def test_closed_form_at_20000(self):
        value = theorem2_closed_form(20000)
        expected = 20000 ** (7 / 6) / math.log(20000) / 10300.0 / math.sqrt(
            0.02 + math.log(math.log(20000))
        )
        assert value == pytest.approx(expected, rel=1e-15)
        assert value == pytest.approx(0.67169, abs=1e-4)

    def test_fudge_weights(self):
        n, n2 = 30000, 30000**2
        fudge = [
            {"p": 7, "epsilon": 1, "u_inverse_at_1": 1 - 1 / 7, "determined": True},
            {"p": 5, "epsilon": 1, "u_inverse_at_1": 1 - 1 / 5, "determined": False},
        ]
        plain = theorem2(n, n2, 1.0)
        dressed = theorem2(n, n2, 1.0, fudge)
        # analytic picks up both local factors, intermediate only 7 (= 1 mod 3)
        assert dressed["analytic"] == pytest.approx(plain["analytic"] * (6 / 7) * (4 / 5), rel=1e-13)
        assert dressed["intermediate"] == pytest.approx(plain["intermediate"] * (6 / 7), rel=1e-13)

    def test_chain_ok_in_regime(self):
        # trivial fudge, D >= N scale omega: ordering holds from N = 20000 up
        for n in (20000, 10**5, 10**7):
            omega = 14.045 / n ** (1 / 6)
            result = theorem2(n, n * n, omega)
            assert result["chain_ok"]

    def test_nan_omega(self):
        with pytest.raises(ValueError, match="omega > 0"):
            theorem2(3, 2, math.nan)


class TestChainComparisons:
    def test_general_closed_form_weaker_than_semistable(self):
        # theorem2 closed / theorem1 closed = 5350/(10300 sqrt(0.02 + log log N)) <= 1
        for n in (11, 37, 389, 20000, 10**6, 10**12):
            ratio = theorem2_closed_form(n) / theorem1(n, 1.0)["closed_form"]
            assert ratio <= 1.0


class TestLinearBounds:
    def test_abramovich_exact(self):
        assert linear_bounds(1600)["abramovich"] == 7.0

    def test_selberg_exact(self):
        assert linear_bounds(192 * 11)["abramovich_selberg"] == 11.0


class TestCrossover:
    def test_bracket_evaluations(self):
        assert theorem2_closed_form(math.exp(80.0)) < math.exp(80.0)
        assert theorem2_closed_form(math.exp(90.0)) > math.exp(90.0)

    def test_location(self):
        log_n_star = crossover_check()
        assert 86.0 <= log_n_star <= 87.5
        assert log_n_star == pytest.approx(86.8, abs=0.7)
        assert log_n_star == pytest.approx(86.71585, abs=1e-4)

    def test_deterministic(self):
        assert crossover_check() == crossover_check()

    def test_monotone_ratio(self):
        # closed_form(N)/N strictly increasing well past e^10
        ratios = [theorem2_closed_form(math.exp(l)) / math.exp(l) for l in (40, 60, 80, 100)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("value", [math.nan, 37.0, True], ids=["nan", "float", "bool"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: degree_formula_bound(v, 1.0, 0.1), "conductor"),
        (lambda v: theorem1(v, 1.0), "conductor"),
        (lambda v: theorem2(v, 30000**2, 1.0), "conductor"),
        (lambda v: theorem2(30000, v, 1.0), "n2"),
        (linear_bounds, "conductor"),
    ],
    ids=["degree_formula_bound", "theorem1", "theorem2-conductor", "theorem2-n2", "linear_bounds"],
)
def test_non_integer_refused(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an exact integer, got {value!r}$"):
        call(value)
