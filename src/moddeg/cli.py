"""Command-line interface.

Subcommands:

    invariants --a a1,a2,a3,a4,a6        model invariants, roots, periods
    bound --input F --output F           JSONL degree-bound reports
    verify-lemmas [--json]               the full constant-certification suite

bound takes each record's n2 from its own "n2" field.  verify-lemmas
certifies at n2 = 142; the test suite covers the range [142, 10**300].

bound writes each line that ``build_report`` returns as it stands, and
exits 1 when a record's known degree is below one of its certified
bounds.  Every other JSON text (the invariants and verify-lemmas --json
documents, bound's error objects) is ``dumps_report`` of raw values.

Exit codes: 0 success, 1 certification or consistency failure,
2 input error or an output that cannot be written.

main reads a spelled-out call itself: the command first, then each of
its options spelled in full and given once, with a value that the
option's reader accepts, given as the next argument and "-" or not
starting with "-" (``--a 0,0,1,-1,0``), or after "=" and not starting
with "--" (``--a=-1,0,1,-1,0``).  Every other argv (help, ``--version``,
an abbreviated or repeated option, ``--``, a refused value or any other
usage error) goes to an argparse parser built from the same table,
``_COMMANDS``, and only such a call imports argparse.  main looks each
cmd_* function up by its name when it calls it, so one replaced on the
module is the one called.

Only bound imports the json package, to read its records: ``--a`` is
read without it, and every output is written by ``report``'s own
writers.  No command imports ``fractions``.
"""

from __future__ import annotations

import contextlib
import os
import sys
import types

from . import __version__
from .agm import lemma1_constants
from .bounds import crossover_check
from .lvalue import lemma4_certify
from .report import _json_int, build_report, dumps_report, invariants_document, parse_record
from .zerofree import (
    MIN_CERTIFIED_N2,
    Waypoint,
    certify_cm_qi,
    certify_cm_zeta3,
    certify_noncm,
    quintic_beta_optimum,
)

EXIT_OK = 0
EXIT_CERTIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2


def cmd_invariants(args: types.SimpleNamespace) -> int:
    try:
        doc = invariants_document(args.a)
    except (ValueError, ArithmeticError) as exc:  # SingularCurveError and the too-large refusal included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK if _print_or_fail(dumps_report(doc)) else EXIT_INPUT_ERROR


def cmd_bound(args: types.SimpleNamespace) -> int:
    """Write one report or error object per input line, as soon as it is made."""
    import json  # here, so that no other command loads the JSON parser

    any_inconsistent = False
    try:
        with contextlib.ExitStack() as stack:
            source = stack.enter_context(open(args.input, "rb"))
            sink = sys.stdout
            if args.output != "-":
                if os.path.exists(args.output) and os.path.samefile(args.input, args.output):
                    print(f"error: --output {args.output} is the input file", file=sys.stderr)
                    return EXIT_INPUT_ERROR
                sink = stack.enter_context(open(args.output, "w", encoding="utf-8"))
            for line_no, raw in enumerate(source, start=1):
                try:
                    line = raw.decode("utf-8")
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                    except ValueError:
                        # an integer past int()'s digit limit fails the read:
                        # read again with it kept as text, so that
                        # parse_record names its field (a malformed line
                        # fails again, with the same error)
                        obj = json.loads(line, parse_int=_json_int)
                    text, consistency_ok = build_report(parse_record(obj))
                # UnicodeDecodeError included; json.loads raises RecursionError
                # on deep nesting
                except (ValueError, ArithmeticError, RecursionError) as exc:
                    sink.write(dumps_report({"line": line_no, "error": str(exc)}) + "\n")
                    continue
                any_inconsistent |= consistency_ok is False
                sink.write(text + "\n")
            sink.flush()  # a closed stdout fails here, inside the try, not at exit
    except OSError as exc:  # opening, reading or writing, also part-way through
        print(f"error: cannot stream {args.input} to {args.output}: {exc}", file=sys.stderr)
        _release_stdout()
        return EXIT_INPUT_ERROR
    return EXIT_CERTIFICATION_FAILURE if any_inconsistent else EXIT_OK


def _a_flag(text: str) -> tuple[int, int, int, int, int]:
    """The value of --a: five comma-separated JSON integers, each ASCII
    digits with an optional "-" and no leading zero, with JSON white
    space around it; the values ``a_field`` takes from the text read as
    the body of a JSON array, read without the JSON parser."""
    tokens = [token.strip(" \t\n\r") for token in text.split(",")]
    if len(tokens) == 5 and all(map(_is_json_integer, tokens)):
        try:
            return tuple(map(int, tokens))
        except ValueError:  # past int()'s digit limit, as json.loads fails too
            pass
    raise ValueError(f"expects 5 comma-separated JSON integers a1,a2,a3,a4,a6, got {text!r}")


def _is_json_integer(token: str) -> bool:
    """Whether token is a JSON integer: "-"?, then "0" or ASCII digits
    that do not start with "0"."""
    digits = token[1:] if token.startswith("-") else token
    return digits.isascii() and digits.isdigit() and (digits == "0" or digits[0] != "0")


def _release_stdout() -> None:
    """Flush stdout after a stream error, or, when stdout itself cannot be
    written, point it at the null device: the flush at exit must not fail
    a second time after the error was reported."""
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_or_fail(text: str) -> bool:
    """Print text; False after one error line when stdout cannot take it."""
    try:
        print(text, flush=True)
    except OSError as exc:  # a reader that closed the pipe included
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        _release_stdout()
        return False
    return True


def _verification_rows(n2: int) -> list[dict[str, object]]:
    """Every verify-lemmas row, for the table and --json: a Waypoint's fields and its verdict."""
    waypoints = (
        *lemma1_constants(),
        *certify_noncm(n2),
        *certify_cm_qi(n2),
        *certify_cm_zeta3(n2),
        *lemma4_certify(n2),
        Waypoint("zeta3.beta_star", quintic_beta_optimum(), "abs_diff<=", (2.629152166, 1e-8)),
        Waypoint("theorem2.crossover_log_n", crossover_check(), "in", (86.0, 87.5)),
    )
    return [{**w._asdict(), "pass": w.passed} for w in waypoints]


def cmd_verify_lemmas(args: types.SimpleNamespace) -> int:
    rows = _verification_rows(MIN_CERTIFIED_N2)
    all_pass = all(row["pass"] for row in rows)
    if args.json:
        text = dumps_report({"n2": MIN_CERTIFIED_N2, "waypoints": rows, "pass": all_pass})
    else:
        width = max(len(row["name"]) for row in rows)
        lines = []
        for row in rows:
            status = "PASS" if row["pass"] else "FAIL"
            bound = row["bound"]
            bound_text = (
                f"[{bound[0]:.6g}, {bound[1]:.6g}]" if isinstance(bound, tuple) else f"{bound:.6g}"
            )
            lines.append(f"{status}  {row['name']:<{width}}  {row['value']:+.10g}  {row['op']} {bound_text}")
        lines.append(f"{'PASS' if all_pass else 'FAIL'}  overall ({len(rows)} waypoints, n2 = {MIN_CERTIFIED_N2})")
        text = "\n".join(lines)
    if not _print_or_fail(text):
        return EXIT_INPUT_ERROR
    return EXIT_OK if all_pass else EXIT_CERTIFICATION_FAILURE


# Each command: the name of its cmd_* function, looked up when main calls
# it, its help, and its options, each with the function that reads its
# value and its help.  A reader of None marks a flag, which is optional;
# every option with a value is required.
_COMMANDS = {
    "invariants": (
        "cmd_invariants",
        "model invariants, 2-torsion roots, periods",
        {"--a": (_a_flag, "a-invariants a1,a2,a3,a4,a6 (integers)")},
    ),
    "bound": (
        "cmd_bound",
        "degree-bound reports for a JSONL dataset",
        {
            "--input": (str, "input JSONL path"),
            "--output": (str, "output JSONL path (not the input), or - for stdout"),
        },
    ),
    "verify-lemmas": (
        "cmd_verify_lemmas",
        "run the constant-certification suite",
        {"--json": (None, "machine-readable output")},
    ),
}


def _read(argv: list[str]) -> tuple[str, types.SimpleNamespace] | None:
    """The command and its option values of a spelled-out call, or None
    for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][2]
    values = {}
    rest = iter(argv[1:])
    for arg in rest:
        option, eq, value = arg.partition("=")
        if option not in options or option[2:] in values:
            return None
        read = options[option][0]
        if read is None:  # a flag takes no value
            if eq:
                return None
            values[option[2:]] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None or (value.startswith("-") and value != "-"):
                return None
        elif value.startswith("--"):  # --output=-- is a usage error
            return None
        try:
            values[option[2:]] = read(value)
        except ValueError:
            return None
    for option, (read, _) in options.items():
        if option[2:] not in values:
            if read is not None:  # a required option is missing
                return None
            values[option[2:]] = False
    return argv[0], types.SimpleNamespace(**values)


def _parse(argv: list[str]) -> tuple[str, types.SimpleNamespace]:
    """The command and its option values by argparse; a usage error or a
    help or version request raises SystemExit."""
    import argparse

    def checked(read):  # argparse's error then gives the reader's message
        def value(text: str):
            try:
                return read(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return value

    parser = argparse.ArgumentParser(
        prog="moddeg", description="Certified lower bounds on modular degrees of rational elliptic curves."
    )
    parser.add_argument("--version", action="version", version=f"moddeg {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, options) in _COMMANDS.items():
        sub = commands.add_parser(command, help=text)
        for option, (read, help_text) in options.items():
            if read is None:
                sub.add_argument(option, action="store_true", help=help_text)
            else:
                sub.add_argument(option, type=checked(read), required=True, help=help_text)
    values = vars(parser.parse_args(argv))
    command = values.pop("command")
    for option in _COMMANDS[command][2]:
        # a "--" after "=", as in --output=--: argparse 3.11 stores [] and
        # a later one may store the text; either is refused
        if values[option[2:]] in ([], "--"):
            commands.choices[command].error(f"argument {option}: expected one argument")
    return command, types.SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command, args = _read(argv) or _parse(argv)
    return globals()[_COMMANDS[command][0]](args)


if __name__ == "__main__":
    sys.exit(main())
