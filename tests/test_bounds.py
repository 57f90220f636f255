import math
import random
import re
import sys

import pytest

from moddeg.bounds import (
    _bound_values,
    crossover_check,
    degree_formula_bound,
    linear_bounds,
    theorem1,
    theorem2,
    theorem2_closed_form,
)
from moddeg.fudge import fudge_factor_for
from moddeg.lvalue import L_VALUE_BOUND_NUMERATOR

from test_fudge import _inv, seeded_fudge_lists


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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: degree_formula_bound(37, 1.0, math.inf), "the L-value lower bound finite"),
            (lambda: degree_formula_bound(37, 1.0, 0.01, [math.inf]), "fudge inverses must be positive and finite"),
            (lambda: degree_formula_bound(37, 1.0, 10**400), "the L-value lower bound finite"),
            (lambda: degree_formula_bound(37, 1.0, 0.01, [10**400]), "fudge inverses must be positive and finite"),
        ],
        ids=["l_value_lower", "fudge_inverse", "l_value_lower-huge-int", "fudge_inverse-huge-int"],
    )
    def test_infinite_input_is_named(self, call, message):
        # not "conductor / omega puts the bound past double range", nor an
        # OverflowError from an int past the largest double
        with pytest.raises(ValueError, match=f"{message}$"):
            call()


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

    @pytest.mark.parametrize(
        "block",
        [
            {"p": 37, "epsilon": None, "u_inverse_at_1": -1.0, "determined": False},
            {"p": 37, "epsilon": None, "u_inverse_at_1": 0.0, "determined": False},
            {"p": 0, "epsilon": 1, "u_inverse_at_1": 1.0, "determined": True},
            {"p": 1, "epsilon": 1, "u_inverse_at_1": 1.0, "determined": True},
            {"p": True, "epsilon": 1, "u_inverse_at_1": 0.5, "determined": True},
            {"p": 37.0, "epsilon": 1, "u_inverse_at_1": 0.5, "determined": True},
            {"p": 37, "epsilon": 1, "determined": True},
            {"epsilon": 1, "u_inverse_at_1": 0.5, "determined": True},
            {"p": 37, "epsilon": None, "u_inverse_at_1": math.inf, "determined": False},
            {"p": 37, "epsilon": None, "u_inverse_at_1": math.nan, "determined": False},
            {"p": 37, "epsilon": None, "u_inverse_at_1": 10**400, "determined": False},
            {"p": 37, "epsilon": None, "u_inverse_at_1": "0.5", "determined": False},
            {"p": 37, "epsilon": None, "u_inverse_at_1": True, "determined": False},
            [37, 1, 0.5, True],
        ],
        ids=[
            "negative-u", "zero-u", "p-0", "p-1", "p-bool", "p-float", "no-u", "no-p",
            "inf-u", "nan-u", "huge-int-u", "string-u", "bool-u", "not-a-dict",
        ],
    )
    def test_unchecked_fudge_blocks_are_refused(self, block):
        # not a negative "lower bound", a bare KeyError or a message naming
        # conductor / omega; p^2 | N is not required (see test_fudge_weights)
        fudge = [fudge_factor_for(_inv(0, 0), 37, 1369), block]
        with pytest.raises(ValueError, match=r"^fudge_factors\[1\] must be a fudge_factor_for block"):
            theorem2(37, 1369, 1.0, fudge)


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


# N = 10^215 over 1/Omega = 2.7e97 (the model [0, 0, 0, -3e200, 2e300 - 1])
# leaves N^(7/6) a double but N/Omega past double range
_TINY_OMEGA = 1.0 / 2.7e97


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: degree_formula_bound(10**400, 1.0, 0.01), "conductor / omega"),
        (lambda: degree_formula_bound(10**215, _TINY_OMEGA, 0.01), "conductor / omega"),
        (lambda: theorem1(10**300, 1.0), "conductor puts N"),
        (lambda: theorem1(10**400, 1.0), "conductor puts N"),
        (lambda: theorem1(10**215, _TINY_OMEGA), "conductor / omega"),
        (lambda: theorem2(10**300, 10**10, 1.0), "conductor puts N"),
        (lambda: theorem2(10**400, 10**10, 1.0), "conductor puts N"),
        (lambda: theorem2(10**215, 10**10, _TINY_OMEGA), "conductor / omega"),
        (lambda: theorem2_closed_form(10**400), "conductor puts N"),
        (lambda: linear_bounds(10**309), "conductor puts the linear"),
        (lambda: linear_bounds(int(1.7e308)), "conductor puts the linear"),
    ],
    ids=[
        "formula-huge-N",
        "formula-N-over-omega",
        "theorem1-power",
        "theorem1-huge-N",
        "theorem1-N-over-omega",
        "theorem2-power",
        "theorem2-huge-N",
        "theorem2-N-over-omega",
        "closed-form-huge-N",
        "linear-huge-N",
        "linear-7N",
    ],
)
def test_past_double_range_is_a_value_error_naming_conductor(call, message):
    # not an OverflowError, and never an inf returned as a bound
    with pytest.raises(ValueError, match=f"^{message}.* past double range$"):
        call()


def test_the_largest_finite_bounds_are_still_returned():
    assert math.isfinite(theorem1(10**260, 1.0)["closed_form"])
    assert math.isfinite(theorem2(10**260, 10**300, 1.0)["analytic"])
    assert math.isfinite(linear_bounds(10**300)["abramovich"])
    assert math.isfinite(degree_formula_bound(10**300, 1.0, 1.0))


@pytest.mark.parametrize("conductor", [2, 0, -5, 2.5, 1, True, 2.999, math.nan, math.inf, -math.inf])
def test_closed_form_refuses_a_conductor_below_three(conductor):
    # as theorem2 requires N >= 3: not a bare math domain error, a
    # ZeroDivisionError (log 1 = 0) or a nan
    with pytest.raises(ValueError, match="^need a finite conductor >= 3$"):
        theorem2_closed_form(conductor)


def test_closed_form_takes_three_and_the_crossover_floats():
    assert theorem2_closed_form(3) == theorem2_closed_form(3.0) > 0.0
    for log_n in (60.0, 86.7, 120.0):
        assert math.isfinite(theorem2_closed_form(math.exp(log_n)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: degree_formula_bound(37, math.inf, 0.01),
        lambda: theorem1(37, math.inf),
        lambda: theorem2(37, 1369, math.inf),
    ],
    ids=["degree_formula_bound", "theorem1", "theorem2"],
)
def test_infinite_omega_is_refused(call):
    # N/Omega would make each bound 0.0
    with pytest.raises(ValueError, match="^omega must be finite, got inf$"):
        call()


def _public_values(n: int, n2: int, omega: float, fudge: list[dict]) -> tuple:
    """The numbers of a report's L-value side as the public functions give
    them, in the order of ``bounds._bound_values``."""
    l_lower = L_VALUE_BOUND_NUMERATOR / math.log(n2)
    return (
        [tuple(f.values()) for f in fudge],
        l_lower,
        degree_formula_bound(n, omega, l_lower, [f["u_inverse_at_1"] for f in fudge]),
        tuple(theorem1(n, omega).values()),
        tuple(theorem2(n, n2, omega, fudge).values()),
        tuple(linear_bounds(n).values()),
    )


def _bound_cases() -> list[tuple[int, int, float, int, int, bool, list[int]]]:
    """Seeded (N, n2, omega, c4, c6, twist_minimal, primes): N from 3 to
    10^257 with the fudge lists of ``seeded_fudge_lists``, n2 from 2 to
    10^300 and omega from 10^-100 to 100, each on a log scale; then the
    edges, N = 3 and 10^257, n2 = 2 and 10^300, and for each N the omega
    at which N/Omega leaves double range and its neighbours."""
    rng = random.Random(41)
    cases = []
    for c4, c6, n, twist_minimal, primes in seeded_fudge_lists(2000, seed=41):
        n2 = min(max(int(10 ** rng.uniform(math.log10(2), 300)), 2), 10**300)
        cases.append((n, n2, 10 ** rng.uniform(-100, 2), c4, c6, twist_minimal, primes))
    for n, primes in ((3, []), (10**257, []), (10**257, [2, 5])):
        edge = n / sys.float_info.max
        for omega in (5e-324, math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0), 14.045, 1e300):
            cases += [(n, n2, omega, 5, 25, True, primes) for n2 in (2, 10**300)]
    return cases


def test_report_path_agrees_with_the_public_functions():
    # build_report takes its L-value side from _bound_values, which runs the
    # kernel behind fudge_factor_for on each prime and computes log N, log
    # n2, N^(7/6) and N/Omega once for the kernels behind the bounds
    # functions: each fudge tuple must be fudge_factor_for's block for its
    # prime, key for key, and each number, chain_ok included, the public
    # functions', all compared by repr, and each refusal theirs with its
    # message
    agreed = refused = 0
    seen = set()
    for n, n2, omega, c4, c6, twist_minimal, primes in _bound_cases():
        fudge = [fudge_factor_for(_inv(c4, c6), p, n, twist_minimal) for p in primes]
        try:
            expected = _public_values(n, n2, omega, fudge)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                _bound_values(n, n2, omega, c4, c6, twist_minimal, primes)
            refused += 1
            continue
        values = _bound_values(n, n2, omega, c4, c6, twist_minimal, primes)
        assert repr(values) == repr(expected), (n, n2, omega, primes)
        for p in primes:
            if p == 2:
                seen.add((2, n % 2**9 == 2**8))
            elif p > 3:
                divisibility = c4 % p == 0 and c4 % (p * p) != 0 and c6 % (p * p) == 0
                seen.add((p % 12, divisibility, twist_minimal))
            else:
                seen.add((3,))
        agreed += 1
    assert agreed >= 1800 and refused >= 40, (agreed, refused)
    # p = 2 with and without 2^8 || N, p = 3, and each residue of p > 3
    # mod 12 with the condition met and not, in a minimal and a non-minimal
    # twist
    assert len(seen) == 2 + 1 + 4 * 2 * 2, sorted(seen)
