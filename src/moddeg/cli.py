"""Command-line interface.

Subcommands:

    invariants --a a1,a2,a3,a4,a6        model invariants, roots, periods
    bound --input F --output F           JSONL degree-bound reports
    verify-lemmas [--json]               the full constant-certification suite

bound takes each record's n2 from its own "n2" field.  verify-lemmas
certifies at n2 = 142; the test suite covers the range [142, 10**300].

Exit codes: 0 success, 1 certification or consistency failure,
2 input error or an output that cannot be written.

main builds its parser once per process, on its first call, and reuses
it: an empty bound call then costs about 0.08 ms in place of 0.8 ms
(CPython 3.11, one Xeon core).  ``build_parser`` still returns a fresh
parser.  Parsing leaves no state on the parser, but set_defaults binds
each subcommand to its cmd_* function when the parser is built, so a
cmd_* replaced afterwards is not called; no test replaces one.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import __version__
from .agm import lemma1_constants
from .bounds import crossover_check
from .lvalue import lemma4_certify
from .report import _json_int, _real, a_field, build_report, dumps_report, invariants_document, parse_record
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


def cmd_invariants(args: argparse.Namespace) -> int:
    try:
        doc = invariants_document(args.a)
    except (ValueError, ArithmeticError) as exc:  # SingularCurveError and the too-large refusal included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK if _print_or_fail(dumps_report(doc)) else EXIT_INPUT_ERROR


def cmd_bound(args: argparse.Namespace) -> int:
    """Write one report or error object per input line, as soon as it is made."""
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
                    record = parse_record(obj)
                    report = build_report(record)
                    text = dumps_report(report)
                # UnicodeDecodeError included; json.loads raises RecursionError
                # on deep nesting
                except (ValueError, ArithmeticError, RecursionError) as exc:
                    sink.write(json.dumps({"line": line_no, "error": str(exc)}) + "\n")
                    continue
                any_inconsistent |= report["consistency_ok"] is False
                sink.write(text + "\n")
            sink.flush()  # a closed stdout fails here, inside the try, not at exit
    except OSError as exc:  # opening, reading or writing, also part-way through
        print(f"error: cannot stream {args.input} to {args.output}: {exc}", file=sys.stderr)
        _release_stdout()
        return EXIT_INPUT_ERROR
    return EXIT_CERTIFICATION_FAILURE if any_inconsistent else EXIT_OK


def _a_flag(text: str) -> tuple[int, int, int, int, int]:
    """An argparse type for --a: the record's rule for "a", applied to the
    text read as the body of a JSON array."""
    try:
        return a_field(json.loads(f"[{text}]"))
    except (ValueError, RecursionError):  # json.JSONDecodeError is a ValueError
        raise argparse.ArgumentTypeError(
            f"expects 5 comma-separated JSON integers a1,a2,a3,a4,a6, got {text!r}"
        ) from None


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
    """Every verify-lemmas row: a Waypoint and its verdict, as a dict."""
    waypoints = (
        *lemma1_constants(),
        *certify_noncm(n2),
        *certify_cm_qi(n2),
        *certify_cm_zeta3(n2),
        *lemma4_certify(n2),
        Waypoint("zeta3.beta_star", quintic_beta_optimum(), "abs_diff<=", (2.629152166, 1e-8)),
        Waypoint("theorem2.crossover_log_n", crossover_check(), "in", (86.0, 87.5)),
    )
    return [{"name": w.name, "value": w.value, "op": w.op, "bound": w.bound, "pass": w.passed} for w in waypoints]


def _wire_row(row: dict[str, object]) -> dict[str, object]:
    """A verify-lemmas row as the JSON document writes it: its value and
    bound rounded by the report's rule, its verdict as judged before."""
    bound = row["bound"]
    return {
        **row,
        "value": _real(row["value"]),
        "bound": [_real(b) for b in bound] if isinstance(bound, tuple) else _real(bound),
    }


def cmd_verify_lemmas(args: argparse.Namespace) -> int:
    rows = _verification_rows(MIN_CERTIFIED_N2)
    all_pass = all(row["pass"] for row in rows)
    if args.json:
        text = dumps_report({"n2": MIN_CERTIFIED_N2, "waypoints": [_wire_row(row) for row in rows], "pass": all_pass})
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moddeg",
        description="Certified lower bounds on modular degrees of rational elliptic curves.",
    )
    parser.add_argument("--version", action="version", version=f"moddeg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="model invariants, 2-torsion roots, periods")
    p_inv.add_argument("--a", type=_a_flag, required=True, help="a-invariants a1,a2,a3,a4,a6 (integers)")
    p_inv.set_defaults(func=cmd_invariants)

    p_bound = sub.add_parser("bound", help="degree-bound reports for a JSONL dataset")
    p_bound.add_argument("--input", required=True, help="input JSONL path")
    p_bound.add_argument("--output", required=True, help="output JSONL path (not the input), or - for stdout")
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify-lemmas", help="run the constant-certification suite")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")
    p_verify.set_defaults(func=cmd_verify_lemmas)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on its first call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
