"""Command-line interface.

Subcommands:

    invariants --a a1,a2,a3,a4,a6        model invariants, roots, periods
    bound --input F --output F [...]     JSONL degree-bound reports
    verify-lemmas [--json] [--n2 K]      the full constant-certification suite

Exit codes: 0 success, 1 certification or consistency failure,
2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import Any

from . import __version__
from .agm import lemma1_constants
from .bounds import crossover_check
from .lvalue import lemma4_certify
from .report import build_report, dumps_report, int_field, invariants_document, parse_record
from .zerofree import (
    certify_cm_qi,
    certify_cm_zeta3,
    certify_noncm,
    quintic_beta_optimum,
)

EXIT_OK = 0
EXIT_CERTIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2


def _parse_a_list(text: str) -> tuple[int, int, int, int, int]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 5:
        raise ValueError("--a expects 5 comma-separated integers a1,a2,a3,a4,a6")
    return tuple(int(part) for part in parts)


def cmd_invariants(args: argparse.Namespace) -> int:
    try:
        a = _parse_a_list(args.a)
        doc = invariants_document(a)
    except ValueError as exc:  # SingularCurveError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(dumps_report(doc))
    return EXIT_OK


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
                    record = parse_record(json.loads(line))
                    if args.n2 is not None:
                        record = dataclasses.replace(record, n2=args.n2)
                    report = build_report(record, assume_cm=args.assume_cm)
                except (ValueError, ArithmeticError) as exc:  # UnicodeDecodeError included
                    sink.write(json.dumps({"line": line_no, "error": str(exc)}) + "\n")
                    continue
                any_inconsistent |= report["consistency_ok"] is False
                sink.write(dumps_report(report) + "\n")
            sink.flush()  # a closed stdout fails here, inside the try, not at exit
    except OSError as exc:  # opening, reading or writing, also part-way through
        print(f"error: cannot stream {args.input} to {args.output}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_CERTIFICATION_FAILURE if any_inconsistent else EXIT_OK


def _n2_flag(text: str) -> int:
    """bound --n2, under the record's rule for "n2"."""
    try:
        return int_field("n2", text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _row(name: str, value: float, op: str, bound, passed: bool) -> dict[str, Any]:
    """One verify-lemmas row; a tuple bound becomes a JSON list."""
    if isinstance(bound, tuple):
        bound = list(bound)
    return {"name": name, "value": value, "op": op, "bound": bound, "pass": passed}


def _verification_rows(n2: int) -> list[dict[str, Any]]:
    constants = lemma1_constants()
    rows = [
        _row("lemma1.case_pos_constant", constants.k1, "<=", 14.045, constants.k1 <= 14.045),
        _row("lemma1.case_neg_constant", constants.k2, "<=", 14.045, constants.k2 <= 14.045),
    ]
    chains = [(c.case_tag, c.waypoints) for c in (certify_noncm(n2), certify_cm_qi(n2), certify_cm_zeta3(n2))]
    chains.append(("lvalue", lemma4_certify(n2).waypoints))
    for tag, waypoints in chains:
        rows.extend(_row(f"{tag}.{wp.name}", wp.value, wp.op, wp.bound, wp.passed) for wp in waypoints)

    beta_star = quintic_beta_optimum().beta_star
    rows.append(
        _row("zeta3.beta_star", beta_star, "abs_diff<=", [2.629152166, 1e-8], abs(beta_star - 2.629152166) <= 1e-8)
    )
    log_n_star = crossover_check()
    rows.append(_row("theorem2.crossover_log_n", log_n_star, "in", [86.0, 87.5], 86.0 <= log_n_star <= 87.5))
    return rows


def cmd_verify_lemmas(args: argparse.Namespace) -> int:
    try:
        rows = _verification_rows(args.n2)
    except ValueError as exc:
        if args.json:
            print(json.dumps({"error": str(exc), "pass": False}))
        else:
            print(f"FAIL  precondition: {exc}")
        return EXIT_CERTIFICATION_FAILURE

    all_pass = all(row["pass"] for row in rows)
    if args.json:
        doc = {"n2": args.n2, "waypoints": rows, "pass": all_pass}
        print(dumps_report(doc))
    else:
        width = max(len(row["name"]) for row in rows)
        for row in rows:
            status = "PASS" if row["pass"] else "FAIL"
            bound = row["bound"]
            bound_text = (
                f"[{bound[0]:.6g}, {bound[1]:.6g}]" if isinstance(bound, list) else f"{bound:.6g}"
            )
            print(f"{status}  {row['name']:<{width}}  {row['value']:+.10g}  {row['op']} {bound_text}")
        print(f"{'PASS' if all_pass else 'FAIL'}  overall ({len(rows)} waypoints, n2 = {args.n2})")
    return EXIT_OK if all_pass else EXIT_CERTIFICATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moddeg",
        description="Certified lower bounds on modular degrees of rational elliptic curves.",
    )
    parser.add_argument("--version", action="version", version=f"moddeg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="model invariants, 2-torsion roots, periods")
    p_inv.add_argument("--a", required=True, help="a-invariants a1,a2,a3,a4,a6")
    p_inv.set_defaults(func=cmd_invariants)

    p_bound = sub.add_parser("bound", help="degree-bound reports for a JSONL dataset")
    p_bound.add_argument("--input", required=True, help="input JSONL path")
    p_bound.add_argument("--output", required=True, help="output JSONL path (not the input), or - for stdout")
    p_bound.add_argument("--n2", type=_n2_flag, default=None, help="n2 for every record (integer >= 2)")
    p_bound.add_argument(
        "--assume-cm", choices=("auto", "cm", "noncm"), default="auto", dest="assume_cm"
    )
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify-lemmas", help="run the constant-certification suite")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")
    p_verify.add_argument("--n2", type=int, default=142, help="symmetric-square conductor (>= 142)")
    p_verify.set_defaults(func=cmd_verify_lemmas)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
