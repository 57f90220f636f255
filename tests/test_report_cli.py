import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moddeg.agm import lemma1_constants
from moddeg.cli import _verification_rows, main
from moddeg.curves import factorize, is_prime
from moddeg.lvalue import lemma4_certify
from moddeg.report import (
    build_report,
    dumps_report,
    invariants_document,
    parse_record,
    squared_primes,
)
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
        [*_large_n_shapes(4), 1000003**2 * 7, 1000003**3, 2**40, 3**25, 7**2 * 13**2 * 19**2, 42287],
    )
    def test_against_sympy(self, n):
        _assert_factorization_matches_sympy(n)

    def test_against_sympy_on_random_n(self):
        rng = random.Random(20000)
        for _ in range(2000):
            _assert_factorization_matches_sympy(rng.randint(1, 10**6))

    def test_is_prime_against_sympy(self):
        assert [n for n in range(20000) if is_prime(n) != sympy.isprime(n)] == []


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

    @pytest.mark.parametrize("n2", [2, 10 * MAX_CERTIFIED_N2])
    def test_record_n2_from_two_without_upper_limit(self, n2):
        # bound never runs the certification chains, so their limit is not its own
        record = parse_record({"a": [0, 0, 1, -1, 0], "conductor": 37, "n2": str(n2)})
        doc = json.loads(dumps_report(build_report(record)))
        assert doc["n2"] == {"value": n2 if n2 <= 2**53 else str(n2), "source": "supplied"}

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
