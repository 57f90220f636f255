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

``bound`` writes one JSON object per input line, in input order, as soon
as it is made: a report, or ``{"line": k, "error": ...}`` for a line that
cannot be decoded, parsed or reported.  ``dumps_report`` gives reals 12
significant digits and writes integers above 2^53 as decimal strings.
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
from .curves import CurveModel, derive_invariants, factorize, is_cm, two_torsion_roots
from .fudge import fudge_factor_for
from .lvalue import L_VALUE_BOUND_NUMERATOR
from .zerofree import MIN_CERTIFIED_N2

__all__ = [
    "CurveRecord",
    "parse_record",
    "a_field",
    "build_report",
    "invariants_document",
    "dumps_report",
    "squared_primes",
]

_MAX_EXACT_JSON_INT = 2**53


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
    a sign, a space, an underscore or a non-ASCII digit is not.
    """
    if value is None:
        return None
    if isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            value = int(value)
        except ValueError:  # more digits than int() converts; named below
            pass
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
    if label is not None and not isinstance(label, str):
        raise ValueError('"label" must be a string or null')
    a = a_field(obj.get("a"))
    conductor = int_field("conductor", obj.get("conductor"))
    if conductor is None:
        raise ValueError('record is missing required field "conductor"')
    semistable = obj.get("semistable")
    if semistable is not None and not isinstance(semistable, bool):
        raise ValueError(f'"semistable" must be true, false or null, got {json.dumps(semistable)}')
    twist_minimal = obj.get("twist_minimal", True)
    if not isinstance(twist_minimal, bool):
        raise ValueError(f'"twist_minimal" must be true or false, got {json.dumps(twist_minimal)}')
    return CurveRecord(
        label=label,
        a=a,
        conductor=conductor,
        n2=int_field("n2", obj.get("n2")),
        semistable=semistable,
        twist_minimal=twist_minimal,
        deg_phi=int_field("deg_phi", obj.get("deg_phi")),
    )


def squared_primes(n: int) -> list[int]:
    return sorted(p for p, e in factorize(n).items() if e >= 2)


def _wire(value: object) -> object:
    """value with reals rounded to 12 significant digits and integers
    above 2^53 turned into decimal strings, in one recursive walk."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _MAX_EXACT_JSON_INT else value
    if isinstance(value, dict):
        return {k: _wire(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_wire(v) for v in value]
    return value


def dumps_report(report: dict[str, object]) -> str:
    return json.dumps(_wire(report))


def invariants_document(a: tuple[int, int, int, int, int]) -> dict[str, object]:
    """Document for the `invariants` command: invariants, roots, periods,
    and the Lemma 1 check."""
    inv = derive_invariants(CurveModel(*a))
    roots = two_torsion_roots(inv)
    period = period_data(inv, roots)
    check = lemma1_check(inv, period)
    period_fields = period._asdict()
    case_tag = period_fields.pop("case_tag")
    doc: dict[str, object] = {"a": list(a), **inv._asdict(), "is_cm": is_cm(inv), "case_tag": case_tag}
    if inv.disc_positive:
        doc["roots"] = {"e1": roots.e1, "e2": roots.e2, "e3": roots.e3}
    else:
        doc["roots"] = {"r": roots.r, "z": roots.z, "r_tilde": roots.r_tilde}
    doc.update(
        period_fields,
        lemma1_rhs=check.bound,
        lemma1_margin=check.value - check.bound,
        lemma1_ok=check.passed,
    )
    return doc


def build_report(record: CurveRecord) -> dict[str, object]:
    """Full degree-bound report for one record."""
    inv = derive_invariants(CurveModel(*record.a))
    roots = two_torsion_roots(inv)
    period = period_data(inv, roots)
    check = lemma1_check(inv, period)
    n = record.conductor

    n2, n2_source = (n * n, "fallback_N_squared") if record.n2 is None else (record.n2, "supplied")

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
        "conductor": n,
        "n2": {"value": n2, "source": n2_source},
        "conductor_provenance": "supplied",
        "semistable": {"declared": record.semistable, "squarefree": squarefree},
        "twist_minimal": record.twist_minimal,
        "cm": is_cm(inv),
        "disc": inv.disc,
        "abs_disc": inv.abs_disc,
        "omega": period.omega,
        "inv_omega": period.inv_omega,
        "case_tag": period.case_tag,
        "lemma1": {"rhs": check.bound, "margin": check.value - check.bound, "ok": check.passed},
        "fudge": fudge,
        "l_value_lower": l_lower,
        "formula_bound": formula,
        "theorem1": {**th1, "applicable": squarefree},
        "theorem2": th2,
        "linear": lin,
        "known_degree": record.deg_phi,
        "consistency_ok": consistency_ok,
        "warnings": warnings,
    }

