"""The command-line parser: the same behaviour as the argparse parser
main once used alone, and a spelled-out call that loads no argparse, nor
exact arithmetic outside verify-lemmas.

This module imports only the standard library, pytest and moddeg, and
no conftest, so it runs with none of the test extras installed.
"""

import argparse
import json
import os
import random
import re
import subprocess
import sys

import pytest

from moddeg import __version__, cli
from moddeg.cli import main
from moddeg.report import a_field

from test_golden import DATASET, child_env, run_cli


def _oracle_a_flag(text: str) -> tuple[int, int, int, int, int]:
    try:
        return a_field(json.loads(f"[{text}]"))
    except (ValueError, RecursionError):
        raise argparse.ArgumentTypeError(
            f"expects 5 comma-separated JSON integers a1,a2,a3,a4,a6, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser moddeg.cli.main used before, as the oracle of
    the one it uses now; each command runs the cmd_* function of moddeg.cli."""
    parser = argparse.ArgumentParser(
        prog="moddeg",
        description="Certified lower bounds on modular degrees of rational elliptic curves.",
    )
    parser.add_argument("--version", action="version", version=f"moddeg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="model invariants, 2-torsion roots, periods")
    p_inv.add_argument("--a", type=_oracle_a_flag, required=True, help="a-invariants a1,a2,a3,a4,a6 (integers)")
    p_inv.set_defaults(func=cli.cmd_invariants)

    p_bound = sub.add_parser("bound", help="degree-bound reports for a JSONL dataset")
    p_bound.add_argument("--input", required=True, help="input JSONL path")
    p_bound.add_argument("--output", required=True, help="output JSONL path (not the input), or - for stdout")
    p_bound.set_defaults(func=cli.cmd_bound)

    p_verify = sub.add_parser("verify-lemmas", help="run the constant-certification suite")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")
    p_verify.set_defaults(func=cli.cmd_verify_lemmas)
    return parser


def _oracle_main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


# IN is a one-record table, MISSING a path that does not exist.
IN, MISSING = "{in}", "{missing}"
CORPUS = [
    # a value as the next argument or after "="
    ["invariants", "--a", "0,0,1,-1,0"],
    ["invariants", "--a=0,0,1,-1,0"],
    ["bound", "--input", IN, "--output", "-"],
    ["bound", f"--input={IN}", "--output=-"],
    # unique prefixes of long options
    ["bound", "--inp", IN, "--out", "-"],
    ["verify-lemmas", "--js"],
    ["--ver"],
    ["--h"],
    # the last of a repeated option wins
    ["invariants", "--a", "0,0,0,0,1", "--a", "0,0,1,-1,0"],
    ["bound", "--input", MISSING, "--output", "-", "--input", IN],
    ["verify-lemmas", "--json", "--json"],
    # a value that looks like an option is refused, and taken after "="
    ["invariants", "--a", "-1,0,1,-1,0"],
    ["invariants", "--a=-1,0,1,-1,0"],
    # a flag given a value
    ["verify-lemmas", "--json=1"],
    ["verify-lemmas", "--js="],
    ["--help=1"],
    ["--version=1"],
    # usage errors
    [],
    ["--bogus"],
    ["foo"],
    ["invariants"],
    ["invariants", "--a"],
    ["invariants", "--a", "1,2"],
    ["bound", "--input", IN],
    ["bound", "--input", "--output", "-"],
    ["verify-lemmas", "extra"],
    ["bound", "--input", IN, "--output", "-", "extra"],
    ["bound", "--input", IN, "--output", "-", "--n2", "142"],
    ["verify-lemmas", "--n2", "142"],
    ["bound", "--input", IN, "--output", "-", "--assume-cm", "cm"],
    ["--bogus", "verify-lemmas"],
    # help and version, at each level and in either order
    ["-h"],
    ["--help"],
    ["--version"],
    ["invariants", "-h"],
    ["bound", "--help"],
    ["verify-lemmas", "-h"],
    ["-h", "--version"],
    ["--version", "-h"],
    ["invariants", "-h", "--a", "1,2"],
    ["invariants", "--a", "1,2", "-h"],
    ["bound", "--input", IN, "--output", "-", "-h"],
    # the command is run
    ["verify-lemmas"],
    ["verify-lemmas", "--json"],
    ["bound", "--input", MISSING, "--output", "-"],
]

_NAMED = (
    r"argument (\S+?): ",
    r"the following arguments are required: (.+)",
    r"unrecognized arguments: (.+)",
)


def _named_argument(err: str) -> str:
    """The argument a usage error names, after its usage line.  Only the
    name is compared: argparse words some errors differently from one
    Python version to the next."""
    usage, line = err.splitlines()
    assert usage.startswith("usage: moddeg ")
    message = line.partition(": error: ")[2]
    for pattern in _NAMED:
        named = re.match(pattern, message)
        if named:
            return named.group(1)
    raise AssertionError(f"no argument named in {line!r}")


def _run(entry, argv: list[str], capsys) -> tuple[object, str, str]:
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_main_matches_the_argparse_oracle(case, tmp_path, capsys, monkeypatch):
    # argparse wraps its help to the terminal: both helps are compared
    # 80 columns wide
    monkeypatch.setenv("COLUMNS", "80")
    table = tmp_path / "one.jsonl"
    table.write_text('{"a": [0,0,1,-1,0], "conductor": 37}\n')
    argv = [arg.replace(IN, str(table)).replace(MISSING, str(tmp_path / "missing.jsonl")) for arg in case]
    code, out, err = _run(main, argv, capsys)
    want_code, want_out, want_err = _run(_oracle_main, argv, capsys)
    assert (code, out) == (want_code, want_out)
    if want_err.startswith("usage: "):
        assert _named_argument(err) == _named_argument(want_err)
    else:
        assert err == want_err


# The phrases random argv are drawn from: each option exact, abbreviated
# and after "=", values the readers take and refuse, help and version in
# their spellings, "--", and arguments that look like negative numbers.
# None ends in "=--": argparse 3.11 keeps such a value as [], which main
# refuses (test_a_double_dash_value_is_a_usage_error).
PHRASES = [
    ("invariants",),
    ("bound",),
    ("verify-lemmas",),
    ("foo",),
    ("x",),
    ("--a", "0,0,1,-1,0"),
    ("--a=0,0,1,-1,0",),
    ("--a", "-1,0,1,-1,0"),
    ("--a=-1,0,1,-1,0",),
    ("--a", "1,2"),
    ("--a=x",),
    ("--a",),
    ("0,0,1,-1,0",),
    ("--input", "in.jsonl"),
    ("--inp", "in.jsonl"),
    ("--input=in.jsonl",),
    ("--in=x",),
    ("--input=",),
    ("--input",),
    ("--output", "-"),
    ("--out", "out.jsonl"),
    ("--output=-",),
    ("--o=y",),
    ("--output",),
    ("-",),
    ("--json",),
    ("--js",),
    ("--j",),
    ("--json=1",),
    ("-h",),
    ("--help",),
    ("-hh",),
    ("-hx",),
    ("--he=1",),
    ("--h",),
    ("--version",),
    ("--ver",),
    ("--version=1",),
    ("--",),
    ("--=x",),
    ("-1",),
    ("-5",),
    ("-1 2",),
    ("--bogus",),
    ("--n2", "142"),
]
# Each random argv starts from one of these, and gets up to three phrases
# put in anywhere, the front included.
STARTS = [
    (),
    ("invariants",),
    ("bound",),
    ("verify-lemmas",),
    ("invariants", "--a", "0,0,1,-1,0"),
    ("invariants", "--a=0,0,1,-1,0"),
    ("bound", "--input", "in.jsonl", "--output", "-"),
    ("bound", "--output=-", "--input", "in.jsonl"),
    ("verify-lemmas", "--json"),
]


def test_main_matches_the_argparse_oracle_on_random_argv(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("cmd_invariants", "cmd_bound", "cmd_verify_lemmas"):
        # a stub that prints what it was given, less the oracle's own entries
        def stub(args, name=name):
            given = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
            print(name, sorted(given.items()))
            return 0

        monkeypatch.setattr(cli, name, stub)
    oracle = build_parser()

    def oracle_main(argv):
        args = oracle.parse_args(argv)
        return args.func(args)

    rng = random.Random(43)
    differ, read, called = [], 0, 0
    for _ in range(2000):
        argv = list(rng.choice(STARTS))
        for phrase in rng.choices(PHRASES, k=rng.randint(0, 3)):
            at = rng.randint(0, len(argv))
            argv[at:at] = phrase
        got = _run(main, argv, capsys)
        want = _run(oracle_main, argv, capsys)
        if got != want:
            differ.append((argv, got, want))
        read += cli._read(argv) is not None
        called += want[1].startswith("cmd_")
    assert differ == []
    # both routes are taken: main reads most of the calls that run a
    # command itself, and leaves the rest, abbreviations among them, and
    # every error, help and version to argparse
    assert 250 < read < called


@pytest.mark.parametrize(
    "argv, option",
    [
        (["bound", "--inp", "in.jsonl", "--out=--"], "--output"),
        (["bound", "--input", "in.jsonl", "--output=--", "--output=--"], "--output"),
        (["bound", "--inp=--", "--output", "-"], "--input"),
    ],
)
def test_a_double_dash_value_is_a_usage_error(argv, option, tmp_path, capsys, monkeypatch):
    # argparse 3.11 keeps "--" after "=" as [], which open() would refuse
    # with a TypeError; main refuses it as a usage error naming the option
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.jsonl").write_text('{"a": [0,0,1,-1,0], "conductor": 37}\n')
    with pytest.raises(SystemExit) as failure:
        main(argv)
    assert failure.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"moddeg bound: error: argument {option}: expected one argument"
    assert [path.name for path in tmp_path.iterdir()] == ["in.jsonl"]


PARSER = ("argparse", "gettext")


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["invariants", "--a", "0,0,1,-1,0"], (*PARSER, "fractions", "decimal")),
        (["bound", "--input", str(DATASET), "--output", os.devnull], (*PARSER, "fractions", "decimal")),
        # the certification of the Q(zeta_3) case builds exact fractions
        (["verify-lemmas", "--json"], PARSER),
    ],
    ids=["invariants", "bound", "verify-lemmas"],
)
def test_start_up_loads_no_parser_or_exact_arithmetic(argv, unloaded):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "moddeg", *argv], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.rpartition("|")[2] for line in proc.stderr.splitlines() if line.startswith("import time:")]
    names = [line.strip() for line in lines]
    depth = [len(line) - len(name) for line, name in zip(lines, names)]
    # -X importtime writes a module's line when its import ends, after the
    # deeper-indented lines of the modules it imported: moddeg's own
    # imports start at the first of those above the line of moddeg
    package = first = names.index("moddeg")
    while first and depth[first - 1] > depth[package]:
        first -= 1
    loaded = names[first:]
    assert "moddeg.cli" in loaded
    assert [name for name in loaded if name.split(".")[0] in unloaded] == []


def test_each_command_is_looked_up_when_called(monkeypatch):
    calls = []
    for name in ("cmd_invariants", "cmd_bound", "cmd_verify_lemmas"):
        monkeypatch.setattr(cli, name, lambda args, name=name: calls.append((name, vars(args))) or len(calls))
    assert main(["invariants", "--a", "0,0,1,-1,0"]) == 1
    assert main(["bound", "--input", "in", "--output", "-"]) == 2
    assert main(["verify-lemmas"]) == 3
    assert calls == [
        ("cmd_invariants", {"a": (0, 0, 1, -1, 0)}),
        ("cmd_bound", {"input": "in", "output": "-"}),
        ("cmd_verify_lemmas", {"json": False}),
    ]


def test_usage_error_leaves_no_state_for_the_next_call(tmp_path, capsys):
    # a call that fails in the parser, then bound on the shipped dataset:
    # the same bytes as a fresh interpreter writes
    with pytest.raises(SystemExit) as failure:
        main(["invariants", "--a", "1,2"])
    assert failure.value.code == 2
    assert "--a" in capsys.readouterr().err
    dst = tmp_path / "out.jsonl"
    assert main(["bound", "--input", str(DATASET), "--output", str(dst)]) == 0
    fresh = run_cli("bound", "--input", str(DATASET), "--output", "-")
    assert fresh.returncode == 0, fresh.stderr
    assert dst.read_bytes() == fresh.stdout


def test_version_exits_zero_on_each_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as done:
            main(["--version"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("moddeg ")
