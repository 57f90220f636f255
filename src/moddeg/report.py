"""Dataset records and per-curve degree-bound reports.

Input wire format: UTF-8 JSON, one record per ``\n``-terminated line
(CRLF is accepted):

    {"label": "37a1", "a": [0,0,1,-1,0], "conductor": 37,
     "n2": null, "semistable": true, "twist_minimal": true, "deg_phi": 2}

Only "a" and "conductor" are required.  "a" holds five JSON integers;
"conductor" (>= 3), "n2" (>= 2) and "deg_phi" (>= 1) are integers or
strings of ASCII digits, never booleans; "twist_minimal" is a boolean
(default true), "semistable" a boolean or null and "label" a string or
null.  ``parse_record`` is the one place that holds this contract, and
a record's "n2" is the only source of its n2.

``build_report`` holds one range rule before it looks for squared
primes: an n2 above 10**300, supplied or the fallback N^2, is refused
naming "n2", and a conductor above 10**257, or with N/Omega above
10^300, naming "conductor", so that every bound is a finite double.

``bound`` writes one JSON object per input line, in input order, as soon
as it is made: a report, or ``{"line": k, "error": ...}`` for a line that
cannot be decoded, parsed or reported.  A JSON integer with more digits
than int() converts (4300 by default) makes ``json.loads`` fail; ``bound``
then reads the line again with ``_json_int``, which keeps such an integer
as a ``_LongInteger``, so that its error names the field: "conductor", "n2"
and "deg_phi" are too long, as for a digit string, and "a", "label",
"semistable" and "twist_minimal" are of the wrong type.  A field the
contract ignores is ignored whatever it holds, so a long integer there
leaves the record's report as it would be without it.

``build_report`` and ``invariants_document`` return their documents in
wire form: each real rounded once to 12 significant digits, and each
integer above 2^53 in absolute value, which a double-based JSON reader
would round, as a decimal string.  Every verdict ("ok", "chain_ok",
"consistency_ok") is decided on the values before rounding.
``dumps_report`` is then a plain ``json.dumps``.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .agm import lemma1_check, period_data
from .bounds import (
    CONDUCTOR_THRESHOLD,
    degree_formula_bound,
    linear_bounds,
    theorem1,
    theorem2,
)
from .curves import CurveModel, derive_invariants, is_cm, squared_primes, two_torsion_roots
from .fudge import fudge_factor_for
from .lvalue import L_VALUE_BOUND_NUMERATOR
from .zerofree import MAX_CERTIFIED_N2, MIN_CERTIFIED_N2

__all__ = [
    "CurveRecord",
    "parse_record",
    "a_field",
    "build_report",
    "invariants_document",
    "dumps_report",
]

_MAX_EXACT_JSON_INT = 2**53

# The bounds are doubles: up to this conductor N^(7/6) stays below 10^300,
# and build_report holds N/Omega, the other large factor, to _MAX_BOUND.
_MAX_CONDUCTOR = 10**257
_MAX_BOUND = 1e300


class _LongInteger(str):
    """The text of a JSON integer with more digits than int() converts,
    as ``_json_int`` keeps it."""

    __slots__ = ()


def _json_int(text: str) -> int | _LongInteger:
    """A ``parse_int`` for ``json.loads``: the int, or for a digit run
    past int()'s limit its text as a ``_LongInteger``."""
    try:
        return int(text)
    except ValueError:
        return _LongInteger(text)


def _shown(value: object) -> str:
    """value as an error message echoes it: its JSON text, or the size of a
    ``_LongInteger``, whose digits would swamp the line."""
    if isinstance(value, _LongInteger):
        return f"an integer of {len(value.lstrip('-'))} digits"
    return json.dumps(value)


class CurveRecord(
    namedtuple(
        "CurveRecord",
        "label a conductor n2 semistable twist_minimal deg_phi",
        defaults=(None, None, True, None),
    )
):
    """One dataset record as ``parse_record`` validates it: "a" is a tuple
    of five ints, an absent "twist_minimal" is True and any other absent
    field None."""

    __slots__ = ()


# The least value of each integer scalar of a record.
_INT_MINIMUM = {"conductor": 3, "n2": 2, "deg_phi": 1}


def int_field(name: str, value: object) -> int | None:
    """value as the record field name: an integer >= the field's minimum,
    or None for null.

    A JSON integer or a string of ASCII digits is accepted; a boolean,
    a sign, a space, an underscore or a non-ASCII digit is not, nor a
    digit string or a ``_LongInteger`` longer than int() converts (4300
    digits by default).
    """
    if value is None:
        return None
    if isinstance(value, str) and (value.isascii() and value.isdigit() or isinstance(value, _LongInteger)):
        try:
            value = int(value)
        except ValueError:  # past sys.get_int_max_str_digits(); not echoed
            digits = len(value.lstrip("-"))
            raise ValueError(f'"{name}" is too long: {digits} digits, more than int() converts') from None
    minimum = _INT_MINIMUM[name]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f'"{name}" must be an integer >= {minimum}, got {json.dumps(value)}')
    return value


def a_field(value: object) -> tuple[int, int, int, int, int]:
    """value as the record field "a": a list of five JSON integers."""
    if not (
        isinstance(value, list)
        and len(value) == 5
        and all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise ValueError('"a" must be a list of 5 exact integers')
    return tuple(value)


def parse_record(obj: object) -> CurveRecord:
    """Validate one input record; every error names the offending field."""
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    label = obj.get("label")
    if label is not None and (not isinstance(label, str) or isinstance(label, _LongInteger)):
        raise ValueError('"label" must be a string or null')
    a = a_field(obj.get("a"))
    conductor = int_field("conductor", obj.get("conductor"))
    if conductor is None:
        raise ValueError('record is missing required field "conductor"')
    semistable = obj.get("semistable")
    if semistable is not None and not isinstance(semistable, bool):
        raise ValueError(f'"semistable" must be true, false or null, got {_shown(semistable)}')
    twist_minimal = obj.get("twist_minimal", True)
    if not isinstance(twist_minimal, bool):
        raise ValueError(f'"twist_minimal" must be true or false, got {_shown(twist_minimal)}')
    return CurveRecord(
        label=label,
        a=a,
        conductor=conductor,
        n2=int_field("n2", obj.get("n2")),
        semistable=semistable,
        twist_minimal=twist_minimal,
        deg_phi=int_field("deg_phi", obj.get("deg_phi")),
    )


def _real(x: float) -> float:
    """x rounded to the 12 significant digits of the wire format."""
    return float(f"{x:.12g}")


def _integer(n: int) -> int | str:
    """n as the wire format writes it: a decimal string above 2^53 in
    absolute value, else n itself (a bool included)."""
    return str(n) if abs(n) > _MAX_EXACT_JSON_INT else n


def _reals(block: dict[str, float]) -> dict[str, float]:
    """A block of reals, each rounded by ``_real``."""
    return {name: _real(value) for name, value in block.items()}


# A document is a fresh tree without cycles, so the encoder skips that check.
_encode = json.JSONEncoder(check_circular=False).encode


def dumps_report(report: dict[str, object]) -> str:
    """report, already in wire form, as one line of JSON: ``json.dumps``."""
    return _encode(report)


def invariants_document(a: tuple[int, int, int, int, int]) -> dict[str, object]:
    """Document for the `invariants` command, in wire form: invariants,
    roots, periods, and the Lemma 1 check."""
    inv = derive_invariants(CurveModel(*a))
    roots = two_torsion_roots(inv)
    period = period_data(inv, roots)
    check = lemma1_check(inv, period)
    root_names = ("e1", "e2", "e3") if inv.disc_positive else ("r", "z", "r_tilde")
    return {
        "a": [_integer(x) for x in a],
        **{name: _integer(value) for name, value in zip(inv._fields, inv)},
        "is_cm": is_cm(inv),
        "case_tag": period.case_tag,
        "roots": {name: _real(getattr(roots, name)) for name in root_names},
        "omega": _real(period.omega),
        "real_period": _real(period.real_period),
        "imag_part": _real(period.imag_part),
        "inv_omega": _real(period.inv_omega),
        "t_or_c": _real(period.t_or_c),
        "lemma1_rhs": _real(check.bound),
        "lemma1_margin": _real(check.value - check.bound),
        "lemma1_ok": check.passed,
    }


def build_report(record: CurveRecord) -> dict[str, object]:
    """Full degree-bound report for one record, in wire form."""
    inv = derive_invariants(CurveModel(*record.a))
    roots = two_torsion_roots(inv)
    period = period_data(inv, roots)
    check = lemma1_check(inv, period)
    n = record.conductor

    n2, n2_source = (n * n, "fallback_N_squared") if record.n2 is None else (record.n2, "supplied")
    # the range rule, before squared_primes, whose cost grows with N: an n2
    # that Lemma 4 certifies, and a conductor whose bounds are finite doubles
    if n2 > MAX_CERTIFIED_N2:
        fallback = " (the fallback N^2)" if record.n2 is None else ""
        raise ValueError(f'"n2"{fallback} of {n2.bit_length()} bits is above the certified maximum 10**300')
    if n > _MAX_CONDUCTOR or n * period.inv_omega > _MAX_BOUND:
        raise ValueError(
            f'"conductor" of {n.bit_length()} bits is refused: the bounds are doubles, '
            "and need N^(7/6) and N/Omega below 10^300"
        )

    warnings: list[str] = []
    if n < CONDUCTOR_THRESHOLD:
        warnings.append("conductor below certified range (N >= 20000); consult curve tables")
    if n2 < MIN_CERTIFIED_N2:
        warnings.append(f"n2 below the certified minimum {MIN_CERTIFIED_N2}")

    square_ps = squared_primes(n)
    squarefree = not square_ps
    if record.semistable is not None and record.semistable != squarefree:
        raise ValueError(
            f"semistable flag {record.semistable} disagrees with squarefree(N) = {squarefree}"
        )
    if not record.twist_minimal:
        warnings.append("declared non-twist-minimal; worst-case local factors used")

    fudge = [
        fudge_factor_for(inv, p, n, twist_minimal=record.twist_minimal) for p in square_ps
    ]
    l_lower = L_VALUE_BOUND_NUMERATOR / math.log(n2)
    formula = degree_formula_bound(n, period.omega, l_lower, [f["u_inverse_at_1"] for f in fudge])
    th1 = theorem1(n, period.omega)
    th2 = theorem2(n, n2, period.omega, fudge)
    lin = linear_bounds(n)

    certified = [formula, th2["analytic"], th2["intermediate"], th2["closed_form"]]
    if squarefree:
        certified.extend(th1.values())
    certified.extend(lin.values())
    consistency_ok = None
    if record.deg_phi is not None:
        consistency_ok = all(b <= record.deg_phi for b in certified)

    return {
        "label": record.label,
        "conductor": _integer(n),
        "n2": {"value": _integer(n2), "source": n2_source},
        "conductor_provenance": "supplied",
        "semistable": {"declared": record.semistable, "squarefree": squarefree},
        "twist_minimal": record.twist_minimal,
        "cm": is_cm(inv),
        "disc": _integer(inv.disc),
        "abs_disc": _integer(inv.abs_disc),
        "omega": _real(period.omega),
        "inv_omega": _real(period.inv_omega),
        "case_tag": period.case_tag,
        "lemma1": {"rhs": _real(check.bound), "margin": _real(check.value - check.bound), "ok": check.passed},
        # squared_primes gives p <= 10^10.5, so only the real needs rounding
        "fudge": [{**f, "u_inverse_at_1": _real(f["u_inverse_at_1"])} for f in fudge],
        "l_value_lower": _real(l_lower),
        "formula_bound": _real(formula),
        "theorem1": {**_reals(th1), "applicable": squarefree},
        "theorem2": {
            "analytic": _real(th2["analytic"]),
            "intermediate": _real(th2["intermediate"]),
            "closed_form": _real(th2["closed_form"]),
            "chain_ok": th2["chain_ok"],
        },
        "linear": _reals(lin),
        "known_degree": None if record.deg_phi is None else _integer(record.deg_phi),
        "consistency_ok": consistency_ok,
        "warnings": warnings,
    }
