"""The eight golden outputs, each compared byte for byte by one test.

This module imports only the standard library, pytest and moddeg, and
no conftest, so ``pytest --noconftest tests/test_golden.py`` also runs
with none of the test extras installed: that run shows that the
standard-library runtime alone writes these bytes.  The dataset
``bound`` golden and both ``verify-lemmas`` goldens run
``python -m moddeg`` in a fresh interpreter, as a user would.
"""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from moddeg.cli import main
from moddeg.curves import CurveModel
from moddeg.lvalue import symsq_value_estimate

GOLDEN = Path(__file__).parent / "data"
DATASET = resources.files("moddeg").joinpath("data/curves.jsonl")
SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**overrides: str) -> dict[str, str]:
    """The environment of a child interpreter, with this checkout's src
    first on PYTHONPATH: pytest's pythonpath setting reaches only the test
    process itself."""
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return env


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m moddeg *args`` in a fresh interpreter; stdout and stderr
    are bytes, so a comparison sees every byte written."""
    return subprocess.run([sys.executable, "-m", "moddeg", *args], capture_output=True, env=child_env())


def dataset_records() -> list[dict]:
    return [json.loads(line) for line in DATASET.read_text().splitlines()]


class TestGolden:
    def test_bound_on_dataset(self, tmp_path):
        dst = tmp_path / "out.jsonl"
        proc = run_cli("bound", "--input", str(DATASET), "--output", str(dst))
        assert proc.returncode == 0, proc.stderr
        assert dst.read_bytes() == (GOLDEN / "bound_curves.golden.jsonl").read_bytes()

    def test_bound_on_local_factor_branches(self, tmp_path):
        # 2^8 || N; p = 1, 11 mod 12; p = 5, 7 mod 12 with and without the
        # c4/c6 divisibility; a declared non-minimal twist at p > 3; the
        # failing chain at N = 7^2 * 863; an n2 digit string above 2^53;
        # cofactors past the trial-division limit 1e7: a prime (in
        # 1e21 + 7 = 19 * 223 * q), a prime squared, two primes, and a
        # 40-digit prime refused as the line's error; squared primes found
        # by the gcd with the primes in (2^10, 2^17]: 1031^2 q, and
        # 1031^2 131071^2 q, which trial division up to 2^17 splits
        dst = tmp_path / "out.jsonl"
        assert main(["bound", "--input", str(GOLDEN / "bound_branches.jsonl"), "--output", str(dst)]) == 0
        assert dst.read_bytes() == (GOLDEN / "bound_branches.golden.jsonl").read_bytes()

    def test_bound_on_refusals(self, tmp_path):
        # one line for each error bound writes in place of a report, in
        # the order build_report checks: a singular model; a model too
        # large for doubles with disc > 0 and disc < 0; an n2 above
        # 10^300, supplied and as the fallback N^2; a conductor above
        # 10^257, and one with N/Omega above 10^300; a semistable flag
        # that disagrees with N; a cofactor trial division cannot decide;
        # a 5000-digit integer; malformed JSON; a label that is a number.
        # An error line leaves the exit code at 0.
        dst = tmp_path / "out.jsonl"
        assert main(["bound", "--input", str(GOLDEN / "bound_refusals.jsonl"), "--output", str(dst)]) == 0
        assert dst.read_bytes() == (GOLDEN / "bound_refusals.golden.jsonl").read_bytes()

    def test_verify_lemmas_json(self):
        proc = run_cli("verify-lemmas", "--json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "verify_lemmas.golden.json").read_bytes()

    def test_verify_lemmas_text(self):
        proc = run_cli("verify-lemmas")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "verify_lemmas.golden.txt").read_bytes()

    def test_invariants_on_table_curves(self, capsys):
        out = []
        for record in dataset_records():
            if not record["label"].startswith("synthetic"):
                assert main(["invariants", "--a", ",".join(map(str, record["a"]))]) == 0
                out.append(capsys.readouterr().out)
        assert "".join(out).encode() == (GOLDEN / "invariants_tables.golden.jsonl").read_bytes()

    def test_help_text(self, capsys, monkeypatch):
        # argparse writes the help and wraps it to the terminal, so each
        # page is pinned here 80 columns wide, after the command line that
        # prints it
        monkeypatch.setenv("COLUMNS", "80")
        pages = []
        for argv in (["--help"], ["invariants", "--help"], ["bound", "--help"], ["verify-lemmas", "--help"]):
            with pytest.raises(SystemExit) as done:
                main(argv)
            assert done.value.code == 0
            pages.append(f"$ moddeg {' '.join(argv)}\n{capsys.readouterr().out}")
        assert "".join(pages).encode() == (GOLDEN / "cli_help.golden.txt").read_bytes()

    def test_euler_estimates_on_table_curves(self):
        labels = ("11a1", "37a1", "389a1", "14a1", "27a1", "32a1", "36a1", "49a1")
        estimates = {
            r["label"]: repr(symsq_value_estimate(CurveModel(*r["a"], conductor=r["conductor"]), 2000))
            for r in dataset_records()
            if r["label"] in labels
        }
        text = json.dumps(estimates, indent=2) + "\n"
        assert text.encode() == (GOLDEN / "euler_estimates.golden.json").read_bytes()
