import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import mr as sympy_mr

from moddeg import curves
from moddeg.agm import lemma1_constants
from moddeg.cli import _verification_rows, main
from moddeg.curves import (
    _is_strong_probable_prime,
    _prime_product,
    _primes_up_to,
    _trial_divide,
    factorize,
    is_prime,
    squared_primes,
)
from moddeg.lvalue import lemma4_certify
from moddeg.report import build_report, dumps_report, invariants_document, parse_record
from moddeg.zerofree import (
    MAX_CERTIFIED_N2,
    MIN_CERTIFIED_N2,
    certify_cm_qi,
    certify_cm_zeta3,
    certify_noncm,
)

from test_golden import DATASET, child_env, run_cli

TESTS = Path(__file__).parent
DEMOS = TESTS.parent / "demos"


def _large_n_shapes(count: int, seed: int = 1) -> list[int]:
    """Conductors shaped like the large-N benchmark table: q and p^2 q,
    q a prime in [1e12, 1.1e12], p a prime in [1e3, 1e5]."""
    rng = random.Random(seed)
    shapes = []
    for i in range(count):
        q = sympy.nextprime(rng.randint(10**12, 11 * 10**11))
        shapes.append(q if i % 2 == 0 else sympy.nextprime(rng.randint(10**3, 10**5)) ** 2 * q)
    return shapes


def _wheel_products(seed: int = 30) -> list[int]:
    """One product for each of the eight residues prime to 30: two primes
    of that residue below 1e4, and 2, 3 and 5, with exponents 1 to 3."""
    rng = random.Random(seed)
    products = []
    for residue in (1, 7, 11, 13, 17, 19, 23, 29):
        primes = [p for p in sympy.primerange(7, 10**4) if p % 30 == residue]
        n = 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 3) * 5 ** rng.randint(0, 3)
        for p in rng.sample(primes, 2):
            n *= p ** rng.randint(1, 3)
        products.append(n)
    return products


# Trial division for squared primes stops at 1e7; its last wheel block,
# 9999997 to 10000021, holds the first prime above 1e7, so 10000079 and
# 10000103 are the first primes that only the cofactor test reaches.
_PAST_THE_LIMIT = [
    sympy.nextprime(10**7) ** 2,
    sympy.nextprime(10**7) * sympy.nextprime(sympy.nextprime(10**7)),
    10000079**2,
    10000079 * 10000103,
    10000079**2 * 999983,
    sympy.nextprime(10**14),
]


PSI_13 = 3317044064679887385961981

# psi_k for k = 2 to 12 (OEIS A014233): the least strong pseudoprime to
# each of the first k prime bases.
PSI_K = {
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    8: 341550071728321,
    9: 3825123056546413051,
    10: 3825123056546413051,
    11: 3825123056546413051,
    12: 318665857834031151167461,
}
MR_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def _squared_primes_by_trial_division(n: int) -> list[int] | None:
    """The squared primes by trial division up to 1e7 alone, and None for a
    cofactor above 1e21 there: the reference for squared_primes' refusals."""
    factors, cofactor = _trial_divide(n, 10**7)
    if cofactor > 10**21:
        return None
    root = math.isqrt(cofactor)
    return [p for p, e in factors.items() if e >= 2] + ([root] if cofactor > 1 and root * root == cofactor else [])


def _branch_cases(seed: int = 2017) -> list[tuple[str, int]]:
    """Seeded conductors for each way squared_primes can go, with the name
    of that way: a prime cofactor up to 1e21 (which takes the gcd too);
    p^2 q and p1^2 p2^2 q with p, p1, p2 in (2^10, 2^17] and q near 1e12;
    past the gcd, a prime above 2^51, a prime or prime squared in
    (2^17, 1e7] times a q in [1e12, 1e13], a prime in (6e7, 1e8) squared
    (above 2^51), two primes above 1e7 and a refused pair above 1e21; and
    a prime and a composite cofactor up to 2^51."""
    rng = random.Random(seed)

    def prime(lo: int, hi: int) -> int:
        return int(sympy.nextprime(rng.randint(lo, hi)))

    def gcd_prime() -> int:
        return prime(2**10, 2**17 - 100)

    cases = []
    for _ in range(3):
        q = prime(10**12, 10**13)
        cases += [
            ("prime", rng.randint(1, 10**3) * prime(2**20, 10**21 - 10**6)),
            ("gcd", gcd_prime() ** 2 * q),
            ("gcd-split", gcd_prime() ** 2 * gcd_prime() ** 2 * prime(10**3, 10**12)),
            ("gcd-prime", gcd_prime() ** 2 * prime(2**51, 10**21 - 10**6)),
            ("gcd-trial", gcd_prime() ** rng.randint(1, 3) * prime(2**17, 10**7 - 100) ** rng.randint(1, 2) * q),
            ("trial", gcd_prime() * prime(6 * 10**7, 10**8) ** 2),
            ("trial", prime(10**7, 10**8) * prime(10**10, 10**12)),
            ("trial-refused", gcd_prime() ** 2 * prime(10**10, 10**11) * prime(10**11, 10**12)),
        ]
    # 10000019, the first prime above 1e7, is in the last wheel block that
    # trial division up to 1e7 runs, so the prime above 1e20 is answered
    cases += [("trial", 10000019 * int(sympy.nextprime(10**20))), ("trial-refused", int(sympy.nextprime(10**21)))]
    # up to 2^51 a prime cofactor takes no gcd, and a composite one takes
    # it with no test after
    cases += [
        ("small-prime", 1000 * int(sympy.nextprime(2**20))),
        ("small-prime", int(sympy.prevprime(2**51))),
        ("gcd", 1031**2 * 131071),
    ]
    return cases


def _assert_factorization_matches_sympy(n: int) -> None:
    expected = {int(p): e for p, e in sympy.factorint(n).items()}
    assert factorize(n) == expected, n
    assert squared_primes(n) == sorted(p for p, e in expected.items() if e >= 2), n


class TestFactorize:
    def test_small(self):
        assert factorize(720) == {2: 4, 3: 2, 5: 1}
        assert factorize(999999999989) == {999999999989: 1}

    def test_squarefree(self):
        assert squared_primes(25000) == [2, 5]

    @pytest.mark.parametrize(
        "n",
        [
            *_large_n_shapes(4),
            1000003**2 * 7,
            1000003**3,
            2**40,
            3**25,
            7**2 * 13**2 * 19**2,
            42287,
            *_wheel_products(),
            *(p**e * sympy.nextprime(10**12) for p in sympy.primerange(7, 32) for e in (2, 3)),
            *_PAST_THE_LIMIT,
        ],
    )
    def test_against_sympy(self, n):
        _assert_factorization_matches_sympy(n)

    def test_cofactor_above_1e21_refused(self):
        # past the limit, a cofactor up to 1e21 has at most two prime
        # factors; one above it could have three, and is refused
        assert squared_primes(sympy.prevprime(10**21)) == []
        assert squared_primes(sympy.prevprime(10**21) * 4) == [2]
        with pytest.raises(ValueError, match='"conductor"'):
            squared_primes(sympy.nextprime(10**21))
        with pytest.raises(ValueError, match='"conductor"'):
            squared_primes(sympy.nextprime(10**21) * 4)

    def test_long_conductor_refused_by_its_size(self):
        # up to 64 digits a refused conductor is echoed, past that it is
        # named by its size in bits, never by its digits
        n = int(sympy.nextprime(10**99))
        with pytest.raises(ValueError, match='"conductor"') as refusal:
            squared_primes(n)
        message = str(refusal.value)
        assert len(message) < 150
        assert re.search(r"\d{65}", message) is None
        assert message.startswith(f'"conductor" of {n.bit_length()} bits is refused')
        n = int(sympy.prevprime(10**64))
        with pytest.raises(ValueError, match=f'^"conductor" {n} is refused'):
            squared_primes(n)

    @pytest.mark.parametrize("way, n", _branch_cases())
    def test_each_way_against_trial_division_and_sympy(self, monkeypatch, way, n):
        # the same answer as trial division up to 1e7 alone and as sympy,
        # and the same refusal, through the way named: a gcd with the primes
        # up to 2^10, whose result factorize splits ("small") when n has
        # such a prime, then a gcd with the prime product ("gcd"), then
        # factorize on its squared primes ("split"), then trial division up
        # to 1e7 ("trial") only where a composite above 2^51 is left;
        # is_prime is called at most once
        ways, primality = [], []

        def trial_divide(m, limit=None):
            # factorize's own call has no limit and is not a way
            if limit is not None:
                ways.append(limit)
            return _trial_divide(m, limit)

        def split(m):
            factors = factorize(m)
            ways.append("small" if max(factors) <= 2**10 else "split")
            return factors

        monkeypatch.setattr(curves, "_trial_divide", trial_divide)
        monkeypatch.setattr(curves, "factorize", split)
        monkeypatch.setattr(curves, "_prime_product", lambda: ways.append("gcd") or _prime_product())
        monkeypatch.setattr(curves, "is_prime", lambda m: primality.append(m) or is_prime(m))
        expected = _squared_primes_by_trial_division(n)
        if expected is None:
            with pytest.raises(ValueError, match=f'^"conductor" {n} is refused'):
                squared_primes(n)
        else:
            assert squared_primes(n) == expected
            assert expected == sorted(int(p) for p, e in sympy.factorint(n).items() if e >= 2)
        small = ["small"] if math.gcd(n, math.prod(sympy.primerange(2**10 + 1))) > 1 else []
        assert ways[: len(small)] == small
        assert len(primality) <= 1
        assert "-".join(str(w) for w in ways[len(small) :]).replace(str(10**7), "trial") == {
            "small-prime": "",
            "prime": "gcd",
            "gcd": "gcd",
            "gcd-split": "gcd-split",
            "gcd-prime": "gcd",
            "gcd-trial": "gcd-trial",
            "trial": "gcd-trial",
            "trial-refused": "gcd-trial",
        }[way]

    @pytest.mark.parametrize(
        "n",
        [
            1021,
            1031,
            1021**2 * 999999999989,
            1031**2 * 999999999989,
            1019 * 1021,
            3**20 * 1021**2,
            1021**3,
            1031**3,
            *(2**k for k in range(80)),
        ],
    )
    def test_small_prime_edge_against_trial_division_and_sympy(self, n):
        # 1021 is the last prime below 2^10, which the first gcd takes, and
        # 1031 the first above, which the second gcd takes
        expected = _squared_primes_by_trial_division(n)
        assert squared_primes(n) == expected
        assert expected == sorted(int(p) for p, e in sympy.factorint(n).items() if e >= 2)

    def test_prime_product_is_made_on_first_use(self):
        code = "import moddeg.cli, moddeg.curves as c; print(c._prime_product.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
        assert proc.stdout == "0\n", proc.stderr
        assert _prime_product() == math.prod(sympy.primerange(2**10, 2**17 + 1))

    @pytest.mark.parametrize("limit", [2, 3, 4, 2000, 2**17])
    def test_primes_up_to_against_sympy(self, limit):
        assert _primes_up_to(limit) == list(sympy.primerange(limit + 1))

    def test_against_sympy_on_random_n(self):
        rng = random.Random(20000)
        for _ in range(2000):
            _assert_factorization_matches_sympy(rng.randint(1, 10**6))

    def test_is_prime_against_sympy(self):
        assert [n for n in range(20000) if is_prime(n) != sympy.isprime(n)] == []

    def test_is_prime_against_sympy_from_2_to_the_20(self):
        # Miller-Rabin decides from 2^20 up to PSI_13: random integers,
        # primes and products of two primes of each size, both sides of
        # 2^20, and strong pseudoprimes to the first 4, 5, 6 and 8 bases
        rng = random.Random(1320)
        sample = [2**20 - 3, 2**20 - 1, 2**20, 2**20 + 7, 3215031751, 2152302898747, 3474749660383, 341550071728321]
        for digits in range(7, 25):
            for _ in range(8):
                n = rng.randint(10 ** (digits - 1), min(10**digits, PSI_13) - 1)
                half = rng.randint(10 ** (digits // 2 - 1), 10 ** (digits // 2))
                sample += [n, int(sympy.prevprime(n)), int(sympy.nextprime(half)) * int(sympy.nextprime(n // half))]
        sample = [n for n in sample if n < PSI_13]
        assert [n for n in sample if is_prime(n) != sympy.isprime(n)] == []

    def test_strong_pseudoprimes_to_eleven_twelve_and_thirteen_bases(self):
        # psi_11 passes the first 11 prime bases and psi_12 the first 12,
        # so is_prime needs the 12th and 13th; PSI_13 passes all 13, which
        # is why the test is used only below it, and PSI_13 is refused
        psi_11, psi_12 = 3825123056546413051, 318665857834031151167461
        assert psi_11 == 149491 * 747451 * 34233211
        assert psi_12 == 399165290221 * 798330580441
        assert PSI_13 == 1287836182261 * 2575672364521
        assert not is_prime(psi_11) and not is_prime(psi_12)
        assert _is_strong_probable_prime(PSI_13)
        with pytest.raises(ValueError, match=f"^primality is decided only below {PSI_13},"):
            is_prime(PSI_13)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_psi_k_needs_more_than_k_bases(self, k):
        # psi_k is composite and a strong probable prime to the first k
        # prime bases (to as many more as the next psi equals it), so
        # is_prime, which takes only the bases exact below each psi, must
        # take more of them there
        psi = PSI_K[k]
        passes = max(j for j in range(2, 13) if PSI_K[j] == psi)
        assert not sympy.isprime(psi)
        assert sympy_mr(psi, MR_BASES[:passes]) and not sympy_mr(psi, MR_BASES[: passes + 1])
        assert passes >= k and not is_prime(psi)

    def test_is_prime_against_sympy_in_each_band(self):
        # seeded odd numbers, primes and products of two primes in each band
        # of base counts, from 2^20 up to PSI_13, and each band's ends
        rng = random.Random(2014)
        edges = [2**20, *sorted(set(PSI_K.values())), PSI_13]
        sample = []
        for lo, hi in zip(edges, edges[1:]):
            sample += [lo, lo + 1, hi - 2, hi - 1]
            for _ in range(20):
                n = rng.randrange(lo, hi) | 1
                p = int(sympy.prevprime(rng.randrange(lo, hi)))
                half = int(sympy.nextprime(rng.randint(2, math.isqrt(lo))))
                sample += [n, p, half * int(sympy.nextprime(rng.randrange(lo, hi) // half))]
        sample = [n for n in sample if 2**20 <= n < PSI_13]
        assert [n for n in sample if is_prime(n) != sympy.isprime(n)] == []

    @pytest.mark.parametrize("n", [PSI_13, PSI_13 + 2, 10**30 + 57])
    def test_is_prime_refuses_from_psi_13_at_once(self, n):
        # no fixed set of bases is known to be exact from PSI_13 on, and
        # trial division of 10^30 + 57 would not end
        with pytest.raises(ValueError, match=f"^primality is decided only below {PSI_13},"):
            is_prime(n)


class TestParseRecord:
    def test_minimal(self):
        record = parse_record({"a": [0, 0, 1, -1, 0], "conductor": 37})
        assert record.a == (0, 0, 1, -1, 0)
        assert record.twist_minimal is True
        assert record.deg_phi is None

    @pytest.mark.parametrize(
        "obj",
        [
            {"conductor": 37},
            {"a": [0, 0, 1, -1], "conductor": 37},
            {"a": [0, 0, 1, -1, 0.5], "conductor": 37},
            {"a": [0, 0, 1, -1, 0], "conductor": 0},
            {"a": [0, 0, 1, -1, 0], "conductor": 37, "deg_phi": 0},
            [1, 2, 3],
        ],
    )
    def test_invalid(self, obj):
        with pytest.raises(ValueError):
            parse_record(obj)

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"a": [True, 0, 1, -1, 0]}, "a"),
            ({"conductor": True}, "conductor"),
            ({"conductor": 1}, "conductor"),
            ({"twist_minimal": "no"}, "twist_minimal"),
            ({"semistable": "yes"}, "semistable"),
            ({"n2": 1}, "n2"),
            ({"n2": 2.5}, "n2"),
            ({"n2": True}, "n2"),
            ({"deg_phi": True}, "deg_phi"),
            ({"conductor": "3_7"}, "conductor"),
            ({"conductor": " 37 "}, "conductor"),
            ({"conductor": "\u0663\u0667"}, "conductor"),
            ({"conductor": "1" * 5000}, "conductor"),
            ({"label": 37}, "label"),
            ({"label": ["37a1"]}, "label"),
        ],
    )
    def test_strict_contract_names_field(self, tmp_path, override, field):
        obj = {"a": [0, 0, 1, -1, 0], "conductor": 37, **override}
        with pytest.raises(ValueError, match=f'"{field}"'):
            parse_record(obj)
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        src.write_text(json.dumps(obj) + "\n")
        assert main(["bound", "--input", str(src), "--output", str(dst)]) == 0
        line = json.loads(dst.read_text())
        assert line["line"] == 1 and f'"{field}"' in line["error"]

    def test_big_int_strings(self):
        record = parse_record(
            {"a": [0, 0, 1, -1, 0], "conductor": "999999999989", "n2": "999999999978000000000121"}
        )
        assert record.conductor == 999999999989
        assert record.n2 == 999999999989**2

    @pytest.mark.parametrize("field", ["conductor", "n2", "deg_phi"])
    def test_digit_string_past_int_limit_is_too_long(self, field):
        # a valid digit string longer than int() converts is named as too
        # long, and the 5000 digits are not echoed
        obj = {"a": [0, 0, 1, -1, 0], "conductor": 37, field: "3" * 5000}
        with pytest.raises(ValueError) as info:
            parse_record(obj)
        assert str(info.value) == f'"{field}" is too long: 5000 digits, more than int() converts'


class TestIntegersPastTheDigitLimit:
    """A JSON integer longer than int() converts fails json.loads; bound
    reads the line again with it kept as text, so its error names the
    field, and a field the contract ignores is ignored."""

    DIGITS = "7" * 4400

    @pytest.mark.parametrize(
        "field, text, error",
        [
            ("conductor", DIGITS, '"conductor" is too long: 4400 digits, more than int() converts'),
            ("conductor", "-" + DIGITS, '"conductor" is too long: 4400 digits, more than int() converts'),
            ("n2", DIGITS, '"n2" is too long: 4400 digits, more than int() converts'),
            ("deg_phi", DIGITS, '"deg_phi" is too long: 4400 digits, more than int() converts'),
            ("label", DIGITS, '"label" must be a string or null'),
            ("semistable", DIGITS, '"semistable" must be true, false or null, got an integer of 4400 digits'),
            ("twist_minimal", "-" + DIGITS, '"twist_minimal" must be true or false, got an integer of 4400 digits'),
        ],
    )
    def test_the_error_names_the_field(self, tmp_path, capsys, field, text, error):
        src = tmp_path / "in.jsonl"
        src.write_text('{"a": [0, 0, 1, -1, 0], "conductor": 37, "%s": %s}\n' % (field, text))
        assert main(["bound", "--input", str(src), "--output", "-"]) == 0
        assert json.loads(capsys.readouterr().out) == {"line": 1, "error": error}

    def test_inside_a(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text('{"a": [0, 0, 1, -1, %s], "conductor": 37}\n' % self.DIGITS)
        assert main(["bound", "--input", str(src), "--output", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["error"] == '"a" must be a list of 5 exact integers'

    def test_an_ignored_field_leaves_the_report(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        plain = '{"a": [0, 0, 1, -1, 0], "conductor": 37}\n'
        src.write_text(plain + '{"a": [0, 0, 1, -1, 0], "conductor": 37, "note": [%s]}\n' % self.DIGITS)
        assert main(["bound", "--input", str(src), "--output", "-"]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == second and "error" not in json.loads(first)

    def test_a_malformed_line_keeps_its_decoder_error(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text('{"a": [0, 0, 1, -1, 0], "conductor": %s,\n' % self.DIGITS)
        assert main(["bound", "--input", str(src), "--output", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["error"].startswith("Expecting property name")


class TestInvariantsDocument:
    def test_37a1(self):
        doc = invariants_document((0, 0, 1, -1, 0))
        assert doc["disc"] == 37
        assert doc["lemma1_ok"] is True
        assert doc["case_tag"] == "pos_disc"
        assert doc["is_cm"] is False

    def test_neg_disc(self):
        doc = invariants_document((0, 0, 0, -1, 1))
        assert doc["disc"] == -368
        assert doc["case_tag"] == "neg_disc"


class TestBuildReport:
    def test_37a1(self):
        record = parse_record({"label": "37a1", "a": [0, 0, 1, -1, 0], "conductor": 37, "deg_phi": 2})
        report = build_report(record)
        assert report["n2"] == {"value": 1369, "source": "fallback_N_squared"}
        assert report["consistency_ok"] is True
        assert report["lemma1"]["ok"] is True
        assert any("below certified range" in w for w in report["warnings"])
        assert report["formula_bound"] == pytest.approx(0.0036671, abs=1e-6)

    def test_linear_bounds_are_the_certified_two(self, monkeypatch):
        record = parse_record({"a": [0, 0, 1, -1, 0], "conductor": 37, "deg_phi": 2})
        report = build_report(record)
        assert set(report["linear"]) == {"abramovich", "abramovich_selberg"}
        assert report["consistency_ok"] is True
        # each of the two, alone above the known degree, fails the check
        for key in report["linear"]:
            values = {"abramovich": 0.0, "abramovich_selberg": 0.0, key: 3.0}
            monkeypatch.setattr("moddeg.report.linear_bounds", lambda n: values)
            assert build_report(record)["consistency_ok"] is False, key

    def test_n2_supplied(self):
        record = parse_record({"a": [0, 1, 1, -2, 0], "conductor": 389, "n2": 151321})
        report = build_report(record)
        assert report["n2"]["source"] == "supplied"

    @pytest.mark.parametrize("n2", [2, pytest.param(MAX_CERTIFIED_N2, id="10**300")])
    def test_record_n2_from_two_to_the_certified_maximum(self, n2):
        record = parse_record({"a": [0, 0, 1, -1, 0], "conductor": 37, "n2": str(n2)})
        doc = json.loads(dumps_report(build_report(record)))
        assert doc["n2"] == {"value": n2 if n2 <= 2**53 else str(n2), "source": "supplied"}

    @pytest.mark.parametrize(
        "n2",
        [
            pytest.param(MAX_CERTIFIED_N2 + 1, id="10**300+1"),
            pytest.param(10 * MAX_CERTIFIED_N2, id="10**301"),
            pytest.param(10**4299, id="10**4299"),
        ],
    )
    def test_n2_above_the_maximum_is_refused(self, n2):
        # Lemma 4 certifies 0.033/log n2 only up to 10**300
        record = parse_record({"a": [0, 0, 1, -1, 0], "conductor": 37, "n2": str(n2)})
        with pytest.raises(ValueError, match=f'^"n2" of {n2.bit_length()} bits is above the certified maximum'):
            build_report(record)

    def test_fallback_n2_at_and_above_the_certified_maximum(self):
        # N = 10**150 gives N^2 = 10**300, the certified maximum; N = 1001 *
        # 10**147 gives N^2 above it, and N^2 = 10**300 + 1 has no integer N
        report = build_report(parse_record({"a": [0, 0, 1, -1, 0], "conductor": 10**150}))
        assert report["n2"] == {"value": str(MAX_CERTIFIED_N2), "source": "fallback_N_squared"}
        assert all(math.isfinite(x) for x in report["theorem2"].values())
        n = 1001 * 10**147
        with pytest.raises(ValueError, match='^"n2" \\(the fallback N\\^2\\) of 997 bits is above'):
            build_report(parse_record({"a": [0, 0, 1, -1, 0], "conductor": n}))
        record = parse_record({"a": [0, 0, 1, -1, 0], "conductor": n, "n2": MAX_CERTIFIED_N2})
        assert build_report(record)["n2"] == {"value": str(MAX_CERTIFIED_N2), "source": "supplied"}

    def test_semistable_mismatch(self):
        record = parse_record({"a": [0, 0, 1, -1, 0], "conductor": 36, "semistable": True})
        with pytest.raises(ValueError, match="semistable"):
            build_report(record)

    def test_big_conductor_serialization(self):
        record = parse_record(
            {"a": [0, 0, 0, -10000, 1], "conductor": 999999999989, "semistable": True}
        )
        text = dumps_report(build_report(record))
        doc = json.loads(text)
        # n2 = N^2 > 2^53 must ship as a decimal string
        assert doc["n2"]["value"] == str(999999999989**2)
        assert doc["conductor"] == 999999999989

    def test_synthetic_record_bounds_positive(self):
        record = parse_record(
            {"label": "syn", "a": [0, 0, 0, -1, 1], "conductor": 25000, "semistable": False}
        )
        report = build_report(record)
        assert report["formula_bound"] > 0
        assert report["theorem1"]["analytic"] > 0 and report["theorem1"]["closed_form"] > 0
        for key in ("analytic", "intermediate", "closed_form"):
            assert report["theorem2"][key] > 0
        assert report["linear"]["abramovich"] > 0
        assert not report["warnings"]
        assert report["consistency_ok"] is None

    @pytest.mark.xfail(
        strict=True,
        reason="known fault: with 7^2 | N and the N^2 fallback the intermediate bound "
        "(factor 6/7) falls below the closed form for 20000 <= N up to about 7.4e5",
    )
    def test_theorem2_chain_with_seven_squared(self):
        record = parse_record(
            {"a": [0, -1, 0, 68967, -99159], "conductor": 42287, "semistable": False}
        )
        assert build_report(record)["theorem2"]["chain_ok"] is True

    def test_all_reals_finite(self):
        record = parse_record({"label": "49a1", "a": [1, -1, 0, -2, -1], "conductor": 49, "deg_phi": 1})
        doc = json.loads(dumps_report(build_report(record)))

        def walk(value):
            if isinstance(value, float):
                assert math.isfinite(value)
            elif isinstance(value, dict):
                for v in value.values():
                    walk(v)
            elif isinstance(value, list):
                for v in value:
                    walk(v)

        walk(doc)


# The test extras: the runtime is the standard library, and test_golden
# runs where none of them is installed.
TEST_EXTRAS = ("numpy", "scipy", "mpmath", "sympy", "hypothesis")
# Standard-library modules that every CLI call would pay to import.
HEAVY_STDLIB = ("dataclasses", "inspect", "typing")


def test_cli_import_loads_no_test_oracle():
    for module in ("moddeg.cli", "test_golden"):
        code = f"import {module}, sys; print(sorted(m for m in {TEST_EXTRAS!r} if m in sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), cwd=TESTS
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module
    # -S: a .pth hook that site runs may import typing before moddeg does
    code = (
        "import sys; before = set(sys.modules); import moddeg.cli; "
        f"print(sorted(m for m in {HEAVY_STDLIB!r} if m in sys.modules and m not in before))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", ["invariants", "verify-lemmas", "bound"])
def test_closed_stdout_is_an_output_error(tmp_path, command, unbuffered):
    one = tmp_path / "one.jsonl"
    one.write_text('{"a": [0,0,1,-1,0], "conductor": 37}\n')
    args = {
        "invariants": ["invariants", "--a", "0,0,1,-1,0"],
        "verify-lemmas": ["verify-lemmas", "--json"],
        "bound": ["bound", "--input", str(one), "--output", "-"],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the child's stdout fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "moddeg", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot ") and proc.stderr.count("\n") == 1, proc.stderr


class TestCliInvariants:
    def test_json_output(self):
        proc = run_cli("invariants", "--a", "0,0,1,-1,0")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["disc"] == 37
        assert doc["lemma1_ok"] is True

    def test_singular_exit_code(self):
        proc = run_cli("invariants", "--a", "0,0,0,0,0")
        assert proc.returncode == 2
        assert b"singular" in proc.stderr

    TOO_LARGE = '"a" gives a model too large for double precision'

    # (a4, a6) of y^2 = x^3 + a4 x + a6; the ids "103" and "200" are the
    # exponents of -a4
    @pytest.mark.parametrize(
        "a4, a6",
        [
            pytest.param(-(10**103), 0, id="103"),
            pytest.param(-(10**200), 0, id="200"),
            pytest.param(10**105, 0, id="a4=+1e105"),
            pytest.param(-(10**105), 0, id="a4=-1e105"),
            pytest.param(-(10**216), 0, id="a4=-1e216"),
            pytest.param(0, 10**153, id="a6=+1e153"),
            pytest.param(0, -(10**153), id="a6=-1e153"),
            pytest.param(0, 10**156, id="a6=+1e156"),
            pytest.param(0, -(10**156), id="a6=-1e156"),
        ],
    )
    def test_huge_coefficient_is_an_input_error(self, tmp_path, capsys, a4, a6):
        # |disc|, or a power of c4 or c6 in the root step, does not fit
        # in a double: one refusal naming "a", from invariants and bound
        proc = run_cli("invariants", "--a", f"0,0,0,{a4},{a6}")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == f"error: {self.TOO_LARGE}\n".encode()
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"a": [0, 0, 0, a4, a6], "conductor": 37}) + "\n")
        assert main(["bound", "--input", str(src), "--output", "-"]) == 0
        assert json.loads(capsys.readouterr().out) == {"line": 1, "error": self.TOO_LARGE}

    @pytest.mark.parametrize("a4, a6", [(10**102, 0), (-(10**102), 0), (0, 10**152), (0, -(10**152))])
    def test_largest_models_still_report(self, a4, a6):
        doc = invariants_document((0, 0, 0, a4, a6))
        assert doc["lemma1_ok"] is True
        assert all(math.isfinite(doc[key]) for key in ("omega", "real_period", "imag_part", "inv_omega"))
        report = build_report(parse_record({"a": [0, 0, 0, a4, a6], "conductor": 37}))
        assert report["lemma1"]["ok"] is True

    def test_malformed_a(self):
        # the record rule for "a": JSON integers only, so no underscore,
        # non-ASCII digit, sign, leading zero, real or boolean
        for text in ["1,2,3", "0,0,1,-1,0,", "0,0,1_0,-1,\u0660", "+1,0,1,-1,0", "01,0,1,-1,0",
                     "1.0,0,1,-1,0", "true,0,1,-1,0"]:
            proc = run_cli("invariants", "--a", text)
            assert proc.returncode == 2, text
            assert b"--a" in proc.stderr and proc.stdout == b"", text


class TestCliBound:
    def test_malformed_line_continues(self, tmp_path):
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        not_json = b"this is not json"
        undecodable = b'{"label": "\xff", "a": [0,0,1,-1,0], "conductor": 37}'
        for middle in (not_json, undecodable):
            for eol in (b"\n", b"\r\n"):
                src.write_bytes(
                    b'{"label": "37a1", "a": [0,0,1,-1,0], "conductor": 37}' + eol
                    + middle + eol
                    + b'{"label": "11a1", "a": [0,-1,1,-10,-20], "conductor": 11}' + eol
                )
                assert main(["bound", "--input", str(src), "--output", str(dst)]) == 0
                lines = [json.loads(line) for line in dst.read_text().splitlines()]
                assert len(lines) == 3, (middle, eol)
                assert lines[0]["label"] == "37a1"
                assert lines[1] == {"line": 2, "error": lines[1]["error"]}
                assert lines[2]["label"] == "11a1"

    def test_deeply_nested_line_continues(self, tmp_path):
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        src.write_text(
            '{"label": "37a1", "a": [0,0,1,-1,0], "conductor": 37}\n'
            + "[" * 200000 + "\n"
            + '{"label": "11a1", "a": [0,-1,1,-10,-20], "conductor": 11}\n'
        )
        assert main(["bound", "--input", str(src), "--output", str(dst)]) == 0
        lines = [json.loads(line) for line in dst.read_text().splitlines()]
        assert len(lines) == 3
        assert [lines[0]["label"], lines[2]["label"]] == ["37a1", "11a1"]
        assert lines[1] == {"line": 2, "error": lines[1]["error"]}

    def test_deeply_nested_label_continues(self, tmp_path, monkeypatch):
        # json.loads accepts the label; parse_record refuses it before any report is built
        import moddeg.cli

        built = []
        real = moddeg.cli.build_report

        def counting_build(record):
            built.append(record.label)
            return real(record)

        monkeypatch.setattr(moddeg.cli, "build_report", counting_build)
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        src.write_text(
            '{"label": "37a1", "a": [0,0,1,-1,0], "conductor": 37}\n'
            + '{"label": ' + "[" * 600 + "]" * 600 + ', "a": [0,0,1,-1,0], "conductor": 37}\n'
            + '{"label": "11a1", "a": [0,-1,1,-10,-20], "conductor": 11}\n'
        )
        assert main(["bound", "--input", str(src), "--output", str(dst)]) == 0
        lines = [json.loads(line) for line in dst.read_text().splitlines()]
        assert len(lines) == 3
        assert [lines[0]["label"], lines[2]["label"]] == ["37a1", "11a1"]
        assert lines[1] == {"line": 2, "error": lines[1]["error"]}
        assert '"label"' in lines[1]["error"]
        assert built == ["37a1", "11a1"]

    def test_assume_cm_flag_is_gone(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text('{"a": [0,0,1,-1,0], "conductor": 37}\n')
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--input", str(src), "--output", "-", "--assume-cm", "cm"])
        assert exc.value.code == 2
        assert "--assume-cm" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bound", "verify-lemmas"])
    def test_n2_flag_is_gone(self, tmp_path, capsys, command):
        # n2 comes from each record; verify-lemmas runs at n2 = 142
        src = tmp_path / "in.jsonl"
        src.write_text('{"a": [0,0,1,-1,0], "conductor": 37}\n')
        argv = ["bound", "--input", str(src), "--output", "-"] if command == "bound" else [command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n2", "1000"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--n2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["1", "0", "x", "3_7", " 37 ", "\u0663\u0667"])
    def test_n2_flag_follows_record_rule(self, tmp_path, capsys, value):
        # a value the old flag refused is refused on the record's line, naming "n2";
        # the flag itself is an argparse error before any output is opened
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        src.write_text(json.dumps({"a": [0, 0, 1, -1, 0], "conductor": 37, "n2": value}) + "\n")
        assert main(["bound", "--input", str(src), "--output", str(dst)]) == 0
        line = json.loads(dst.read_text())
        assert line["line"] == 1 and '"n2"' in line["error"]
        dst.unlink()
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--input", str(src), "--output", str(dst), "--n2", value])
        assert exc.value.code == 2
        assert "--n2" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_separator_stays_in_record(self, tmp_path, separator):
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        label = f"37a1{separator}x"
        record = {"label": label, "a": [0, 0, 1, -1, 0], "conductor": 37}
        src.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert main(["bound", "--input", str(src), "--output", str(dst)]) == 0
        lines = dst.read_bytes().split(b"\n")
        assert lines[1:] == [b""]
        assert json.loads(lines[0])["label"] == label

    def test_output_naming_input_is_refused(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        before = b'{"a": [0,0,1,-1,0], "conductor": 37}\n'
        src.write_bytes(before)
        alias = tmp_path / "." / "in.jsonl"
        assert main(["bound", "--input", str(src), "--output", str(alias)]) == 2
        assert "input file" in capsys.readouterr().err
        assert src.read_bytes() == before

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that refuses writes")
    def test_write_failure_is_an_input_error(self, capsys):
        assert main(["bound", "--input", str(DATASET), "--output", "/dev/full"]) == 2
        assert "No space left" in capsys.readouterr().err

    def test_crash_keeps_written_reports(self, tmp_path, monkeypatch):
        import moddeg.cli

        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        src.write_text(
            '{"label": "37a1", "a": [0,0,1,-1,0], "conductor": 37}\n'
            '{"label": "boom", "a": [0,0,1,-1,0], "conductor": 37}\n'
        )
        real = moddeg.cli.build_report

        def build_or_crash(record, **kwargs):
            if record.label == "boom":
                raise RuntimeError("boom")
            return real(record, **kwargs)

        monkeypatch.setattr(moddeg.cli, "build_report", build_or_crash)
        with pytest.raises(RuntimeError):
            main(["bound", "--input", str(src), "--output", str(dst)])
        assert [json.loads(line)["label"] for line in dst.read_text().splitlines()] == ["37a1"]

    def test_deterministic_output(self, tmp_path):
        first = tmp_path / "out1.jsonl"
        second = tmp_path / "out2.jsonl"
        main(["bound", "--input", str(DATASET), "--output", str(first)])
        main(["bound", "--input", str(DATASET), "--output", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_missing_input(self, tmp_path):
        assert main(["bound", "--input", str(tmp_path / "nope.jsonl"), "--output", "-"]) == 2

    def test_inconsistent_degree_sets_exit_code(self, tmp_path):
        # a fake tiny known degree forces consistency failure
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        src.write_text(
            json.dumps(
                {"a": [0, 0, 0, -1, 1], "conductor": 30000, "semistable": False, "deg_phi": 1}
            )
            + "\n"
        )
        code = main(["bound", "--input", str(src), "--output", str(dst)])
        doc = json.loads(dst.read_text().splitlines()[0])
        assert doc["consistency_ok"] is False
        assert code == 1

    def test_large_conductors_get_a_report_or_a_named_error(self, tmp_path, capsys):
        # primorials of 150 to 4000 digits on 11a1, with the N^2 fallback
        # and with n2 = 142, a 5000-digit conductor, a 150-digit prime past
        # the trial-division limit, and N/Omega past 10^300 on a model with
        # 1/Omega near 3e97: each line is a report or an error naming its
        # field, never a float's overflow, and each record takes under 1 s
        # unless it goes through trial division up to 1e7
        primes = curves._primes_up_to(20000)
        records = []
        for digits in (150, 160, 220, 257, 262, 276, 290, 1000, 4000):
            n = 1
            for p in primes:
                n *= p
                if n >= 10 ** (digits - 1):
                    break
            records += [
                {"a": [0, -1, 1, -10, -20], "conductor": n},
                {"a": [0, -1, 1, -10, -20], "conductor": n, "n2": 142},
            ]
        records.append({"a": [0, -1, 1, -10, -20], "conductor": "9" * 5000})
        t = 10**100
        records.append({"a": [0, 0, 0, -3 * t * t, 2 * t**3 - 1], "conductor": 10**210, "n2": 142})
        for record in records:
            start = time.perf_counter()
            try:
                build_report(parse_record(record))
            except ValueError:
                pass
            assert time.perf_counter() - start < 1.0
        records.append({"a": [0, -1, 1, -10, -20], "conductor": int(sympy.nextprime(10**149)), "n2": 142})
        src = tmp_path / "in.jsonl"
        src.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["bound", "--input", str(src), "--output", "-"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == len(records)
        errors = [line["error"] for line in lines if "error" in line]
        reports = [line for line in lines if "error" not in line]
        # n2 = 142 reports at 151, 162 and 220 digits (the primorials
        # reached); each fallback N^2 is above 10**300
        assert len(reports) == 3
        assert all(re.match('^"(n2|conductor)"', error) for error in errors), errors
        assert errors[-1].startswith('"conductor" of 495 bits is refused: trial division up to 10^7')
        assert errors[-2].startswith('"conductor" of 698 bits is refused: the bounds are doubles')
        assert errors[-3].startswith('"conductor" is too long: 5000 digits')


class TestCliVerifyLemmas:
    def test_rows_are_the_library_waypoints(self):
        n2 = MIN_CERTIFIED_N2
        library = (
            *lemma1_constants(),
            *certify_noncm(n2),
            *certify_cm_qi(n2),
            *certify_cm_zeta3(n2),
            *lemma4_certify(n2),
        )
        rows = _verification_rows(n2)
        names = [w.name for w in library] + ["zeta3.beta_star", "theorem2.crossover_log_n"]
        assert [row["name"] for row in rows] == names
        for row, w in zip(rows, library):
            assert (row["value"], row["op"], row["bound"], row["pass"]) == (w.value, w.op, w.bound, w.passed)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=math.log(MIN_CERTIFIED_N2), max_value=math.log(MAX_CERTIFIED_N2)))
    @example(math.log(MIN_CERTIFIED_N2))
    @example(math.log(MAX_CERTIFIED_N2))
    def test_every_row_passes_over_the_certified_range(self, log_n2):
        # n2 log-uniform over [142, 10**300]
        n2 = min(max(round(math.exp(log_n2)), MIN_CERTIFIED_N2), MAX_CERTIFIED_N2)
        failed = [row["name"] for row in _verification_rows(n2) if not row["pass"]]
        assert not failed, (n2, failed)
