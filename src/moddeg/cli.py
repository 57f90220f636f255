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

The grammar is fixed, so main reads it from one table, ``_COMMANDS``,
and a fresh call does not pay for importing argparse and building its
parsers:

    moddeg [-h | --help] [--version] COMMAND [OPTION ...]

Each command takes -h/--help and its own options; a value option is
required, and ``--json`` is an optional flag.  An option's value is the
next argument, as in ``--a 0,0,1,-1,0``, or follows "=", as in
``--a=0,0,1,-1,0``; the next argument is not taken when it looks like an
option, so a negative a1 needs the "=" form.  A long option may be
shortened to any prefix that names one option (``--inp``, ``--js``), and
the last of a repeated option wins.  ``--help`` prints the help and
``--version`` the version, each to stdout, and exit 0.  A usage error
exits 2 and writes two lines to stderr, the usage line and

    moddeg[ COMMAND]: error: argument --a: expected one argument

naming the argument at fault; an unknown argument after the command is
the top level's error (``moddeg: error: unrecognized arguments: ...``).
main looks each cmd_* function up by its name when it calls it, so one
replaced on the module is the one called.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
import types

from . import __version__
from .agm import lemma1_constants
from .bounds import crossover_check
from .lvalue import lemma4_certify
from .report import _json_int, a_field, build_report, dumps_report, invariants_document, parse_record
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
    """The value of --a: the record's rule for "a", applied to the text
    read as the body of a JSON array."""
    try:
        return a_field(json.loads(f"[{text}]"))
    except (ValueError, RecursionError):  # json.JSONDecodeError is a ValueError
        raise ValueError(
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
# it, and its options, each with its metavar, the function that reads its
# value and its help.  A metavar of None marks a flag, which is optional;
# every option with a value is required.
_COMMANDS = {
    "invariants": ("cmd_invariants", {"--a": ("A", _a_flag, "a-invariants a1,a2,a3,a4,a6 (integers)")}),
    "bound": (
        "cmd_bound",
        {
            "--input": ("INPUT", str, "input JSONL path"),
            "--output": ("OUTPUT", str, "output JSONL path (not the input), or - for stdout"),
        },
    ),
    "verify-lemmas": ("cmd_verify_lemmas", {"--json": (None, None, "machine-readable output")}),
}
_USAGE = "usage: moddeg [-h] [--version] {invariants,bound,verify-lemmas} ..."
_HELP = (
    f"{_USAGE}\n\n"
    "Certified lower bounds on modular degrees of rational elliptic curves.\n\n"
    "positional arguments:\n"
    "  {invariants,bound,verify-lemmas}\n"
    "    invariants          model invariants, 2-torsion roots, periods\n"
    "    bound               degree-bound reports for a JSONL dataset\n"
    "    verify-lemmas       run the constant-certification suite\n\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --version             show program's version number and exit\n"
)


def _write(stream, text: str) -> None:
    """Write text; a missing or closed stream is passed over."""
    try:
        stream.write(text)
    except (AttributeError, OSError):
        pass


def _usage_error(usage: str, prog: str, message: str):
    _write(sys.stderr, f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_INPUT_ERROR)


def _option(arg: str, names: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """What arg is among the option names: None for a positional, else
    (the option it names, or None for an unknown one; the text after its
    "=", or after "-h" in "-hX", or None).  An ambiguous prefix is the top
    level's usage error, wherever it stands."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in names:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in names:
        return name, value
    if arg.startswith("--"):
        matches = [(option, value if eq else None) for option in names if option.startswith(name)]
    else:
        matches = [(option, arg[2:]) for option in names if option == arg[:2]]
    if len(matches) > 1:
        _usage_error(_USAGE, "moddeg", f"ambiguous option: {arg} could match {', '.join(m for m, _ in matches)}")
    if matches:
        return matches[0]
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, arg


def _flag(option: str, value: str | None, usage: str, prog: str) -> None:
    """Refuse a value given to a flag, as "--json=1" or "-hx"; "-hh" is "-h"."""
    if value is not None and (option != "-h" or not value or value.lstrip("h")):
        rest = value.lstrip("h") if option == "-h" and value else value
        name = "-h/--help" if option in ("-h", "--help") else option
        _usage_error(usage, prog, f"argument {name}: ignored explicit argument {rest!r}")


def _parse(argv: list[str]) -> tuple[str, types.SimpleNamespace]:
    """The command and its option values, for main; a usage error or a
    help or version request raises SystemExit."""
    top = ("-h", "--help", "--version")
    for arg in argv:  # an ambiguous option anywhere is refused first
        if arg == "--":
            break
        _option(arg, top)
    extras = []
    command = None
    for index, arg in enumerate(argv):
        if arg == "--":  # taken for the command, unless nothing follows it
            command = arg if argv[index + 1 :] else None
            break
        found = _option(arg, top)
        if found is None:
            command = arg
            break
        option, value = found
        if option is None:
            extras.append(arg)
            continue
        _flag(option, value, _USAGE, "moddeg")
        _write(sys.stdout, f"moddeg {__version__}\n" if option == "--version" else _HELP)
        raise SystemExit(EXIT_OK)
    if command is None:
        _usage_error(_USAGE, "moddeg", "the following arguments are required: command")
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(_USAGE, "moddeg", f"argument command: invalid choice: {command!r} (choose from {choices})")
    _, options = _COMMANDS[command]
    prog = f"moddeg {command}"
    usage = " ".join([f"usage: {prog} [-h]"] + [f"{o} {m}" if m else f"[{o}]" for o, (m, _, _) in options.items()])
    names = ("-h", "--help", *options)
    values = {o[2:]: False for o, (m, _, _) in options.items() if m is None}
    rest = argv[index + 1 :]
    position = 0
    while position < len(rest):
        arg = rest[position]
        position += 1
        if arg == "--":  # no argument from here on is an option
            extras += rest[position - 1 :]
            break
        found = _option(arg, names)
        if found is None or found[0] is None:
            extras.append(arg)
            continue
        option, value = found
        if option in ("-h", "--help"):
            _flag(option, value, usage, prog)
            rows = [("-h, --help", "show this help message and exit")]
            rows += [(f"{o} {m}" if m else o, text) for o, (m, _, text) in options.items()]
            width = max(len(row) for row, _ in rows) + 2
            _write(sys.stdout, f"{usage}\n\noptions:\n" + "".join(f"  {r:<{width}}{t}\n" for r, t in rows))
            raise SystemExit(EXIT_OK)
        metavar, read, _ = options[option]
        if metavar is None:
            _flag(option, value, usage, prog)
            values[option[2:]] = True
            continue
        if value is None:
            if position == len(rest) or rest[position] == "--" or _option(rest[position], names):
                _usage_error(usage, prog, f"argument {option}: expected one argument")
            value = rest[position]
            position += 1
        try:
            values[option[2:]] = read(value)
        except ValueError as exc:
            _usage_error(usage, prog, f"argument {option}: {exc}")
    missing = [o for o, (m, _, _) in options.items() if m and o[2:] not in values]
    if missing:
        _usage_error(usage, prog, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(_USAGE, "moddeg", f"unrecognized arguments: {' '.join(extras)}")
    return command, types.SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    return globals()[_COMMANDS[command][0]](args)


if __name__ == "__main__":
    sys.exit(main())
