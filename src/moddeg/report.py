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

``parse_record`` checks each field once, and ``build_report`` takes the
checked record as it is.  It makes each side of the degree formula in
one call: ``agm._model_values`` gives the invariants, Omega and Lemma 1
of "a", and ``bounds._bound_values`` the local factors and every bound.
Both run the private kernels of plain numbers behind the public
functions, which check named tuples or their arguments and call the
same kernels, so a report builds no ``CurveModel`` or result dict and
checks no field a second time.

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

Every document is in wire form: each real rounded once to 12
significant digits, and each integer above 2^53 in absolute value, which
a double-based JSON reader would round, as a decimal string.  Every
verdict ("ok", "chain_ok", "consistency_ok", "pass") is decided on the
values before rounding.  ``build_report`` returns ``(line,
consistency_ok)``: the report's JSON text, written by one template in
key order, and its verdict, which ``bound`` needs for its exit code; a
library caller reads the document as ``json.loads(line)``.
``dumps_report`` writes any other document of raw values, such as
``invariants_document``'s, by the template's own leaf writers.  Strings
are written by ``encode_basestring_ascii`` from ``_json``, the C writer
that ``json.dumps`` uses, so writing a document loads neither the
``json`` package nor its parser; only ``_shown`` and the rare fallback
of ``_real_text`` import ``json``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

try:  # json.dumps's own string writer, without the json package
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .agm import _model_values, lemma1_check, period_data
from .bounds import CONDUCTOR_THRESHOLD, _bound_values
from .curves import CurveModel, derive_invariants, is_cm, squared_primes, two_torsion_roots
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
    """value as an error message echoes it: its JSON text up to 64
    characters, and past that, where the text would swamp the line, its
    kind and size: "an integer of 4000 digits" (the sign not counted; a
    ``_LongInteger`` always), "a string of 5000 characters", "an array
    of 3000 items" or "an object of 70 members".  An int's digits are
    counted from its bit length, since str() refuses one of more than
    4300."""
    if isinstance(value, _LongInteger):
        return f"an integer of {len(value.lstrip('-'))} digits"
    if isinstance(value, int) and not -(10**63) < value < 10**64:
        # n has k or k + 1 digits, k counted from the bits below its top one
        n = abs(value)
        k = int((n.bit_length() - 1) * math.log10(2)) + 1
        return f"an integer of {k + (n >= 10**k)} digits"
    import json

    text = json.dumps(value)
    if len(text) <= 64:
        return text
    if isinstance(value, str):
        return f"a string of {len(value)} characters"
    if isinstance(value, list):
        return f"an array of {len(value)} items"
    return f"an object of {len(value)} members"


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
        raise ValueError(f'"{name}" must be an integer >= {minimum}, got {_shown(value)}')
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


_LITERAL = {None: "null", True: "true", False: "false"}


def _real_text(x: float) -> str:
    """x rounded to 12 significant digits, as ``json.dumps`` writes it,
    from one format of at most DBL_DIG = 15 digits: repr of the rounded
    double differs from it only where repr switches to exponents at 1e16,
    not 1e12, and for subnormals, inf and nan."""
    text = f"{x:.12g}"
    if "e" in text:
        if not (text[-4:-1] == "e+1" and text[-1] in "2345" or abs(x) < sys.float_info.min):
            return text
    elif "." in text:
        return text
    elif text[-1] not in "fn":  # not inf, -inf or nan
        return text + ".0"
    import json

    return json.dumps(float(text))


def _integer_text(n: int) -> str:
    """The JSON text of an int n: a decimal string above 2^53 in absolute
    value, which a double-based reader would round, else n itself."""
    return str(n) if -_MAX_EXACT_JSON_INT <= n <= _MAX_EXACT_JSON_INT else f'"{n}"'


def _json_text(value: object) -> str:
    """The JSON text of a document value in wire form, each leaf by the
    writer the report template uses."""
    if value is None or value is True or value is False:
        return _LITERAL[value]
    if isinstance(value, float):
        return _real_text(value)
    if isinstance(value, int):
        return _integer_text(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        members = (f"{encode_basestring_ascii(k)}: {_json_text(v)}" for k, v in value.items())
        return f"{{{', '.join(members)}}}"
    return f"[{', '.join(map(_json_text, value))}]"  # a list or tuple


def dumps_report(doc: dict[str, object]) -> str:
    """doc, a document of raw values with string keys, as one line of JSON
    in wire form."""
    return _json_text(doc)


def _fudge_text(factor: tuple[int, int | None, float, bool]) -> str:
    """A fudge factor (p, epsilon, u_inverse_at_1, determined), as
    ``bounds._bound_values`` gives it, as its block's JSON text; squared_primes
    gives p <= 10^10.5, so p is written as it is."""
    p, epsilon, u, determined = factor
    return (
        f'{{"p": {p}, "epsilon": {"null" if epsilon is None else epsilon}, '
        f'"u_inverse_at_1": {_real_text(u)}, "determined": {_LITERAL[determined]}}}'
    )


def invariants_document(a: tuple[int, int, int, int, int]) -> dict[str, object]:
    """Document for the `invariants` command, of raw values: invariants,
    roots, periods, and the Lemma 1 check."""
    inv = derive_invariants(CurveModel(*a))
    roots = two_torsion_roots(inv)
    period = period_data(inv, roots)
    check = lemma1_check(inv, period)
    root_names = ("e1", "e2", "e3") if inv.disc_positive else ("r", "z", "r_tilde")
    return {
        "a": list(a),
        **inv._asdict(),
        "is_cm": is_cm(inv),
        "case_tag": period.case_tag,
        "roots": {name: getattr(roots, name) for name in root_names},
        "omega": period.omega,
        "real_period": period.real_period,
        "imag_part": period.imag_part,
        "inv_omega": period.inv_omega,
        "t_or_c": period.t_or_c,
        "lemma1_rhs": check.bound,
        "lemma1_margin": check.value - check.bound,
        "lemma1_ok": check.passed,
    }


def build_report(record: CurveRecord) -> tuple[str, bool | None]:
    """Full degree-bound report for one record: its JSON text in wire form,
    and its "consistency_ok" verdict, judged on the values before rounding."""
    # the model side: parse_record has checked "a"
    inv, omega, inv_omega, case_tag, lemma1_rhs, lemma1_ok = _model_values(*record.a)
    n = record.conductor

    n2, n2_source = (n * n, "fallback_N_squared") if record.n2 is None else (record.n2, "supplied")
    # the range rule, before squared_primes, whose cost grows with N: an n2
    # that Lemma 4 certifies, and a conductor whose bounds are finite doubles
    if n2 > MAX_CERTIFIED_N2:
        fallback = " (the fallback N^2)" if record.n2 is None else ""
        raise ValueError(f'"n2"{fallback} of {n2.bit_length()} bits is above the certified maximum 10**300')
    if n > _MAX_CONDUCTOR or n * inv_omega > _MAX_BOUND:
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

    # the L-value side: squared_primes gives primes whose squares divide N,
    # and parse_record and the range rule have checked N and n2
    fudge, l_lower, formula, th1, th2, linear = _bound_values(
        n, n2, omega, inv.c4, inv.c6, record.twist_minimal, square_ps
    )
    th2_analytic, intermediate, th2_closed, chain_ok = th2

    certified = [formula, th2_analytic, intermediate, th2_closed]
    if squarefree:
        certified.extend(th1)
    certified.extend(linear)
    consistency_ok = None
    if record.deg_phi is not None:
        consistency_ok = all(b <= record.deg_phi for b in certified)

    label = "null" if record.label is None else encode_basestring_ascii(record.label)
    known_degree = "null" if record.deg_phi is None else _integer_text(record.deg_phi)
    line = (
        f'{{"label": {label}, "conductor": {_integer_text(n)}, '
        f'"n2": {{"value": {_integer_text(n2)}, "source": "{n2_source}"}}, "conductor_provenance": "supplied", '
        f'"semistable": {{"declared": {_LITERAL[record.semistable]}, "squarefree": {_LITERAL[squarefree]}}}, '
        f'"twist_minimal": {_LITERAL[record.twist_minimal]}, "cm": {_LITERAL[is_cm(inv)]}, '
        f'"disc": {_integer_text(inv.disc)}, "abs_disc": {_integer_text(inv.abs_disc)}, '
        f'"omega": {_real_text(omega)}, "inv_omega": {_real_text(inv_omega)}, '
        f'"case_tag": "{case_tag}", '
        f'"lemma1": {{"rhs": {_real_text(lemma1_rhs)}, "margin": {_real_text(inv_omega - lemma1_rhs)}, '
        f'"ok": {_LITERAL[lemma1_ok]}}}, '
        f'"fudge": [{", ".join(map(_fudge_text, fudge))}], '
        f'"l_value_lower": {_real_text(l_lower)}, "formula_bound": {_real_text(formula)}, '
        f'"theorem1": {{"analytic": {_real_text(th1[0])}, "closed_form": {_real_text(th1[1])}, '
        f'"applicable": {_LITERAL[squarefree]}}}, '
        f'"theorem2": {{"analytic": {_real_text(th2_analytic)}, "intermediate": {_real_text(intermediate)}, '
        f'"closed_form": {_real_text(th2_closed)}, "chain_ok": {_LITERAL[chain_ok]}}}, '
        f'"linear": {{"abramovich": {_real_text(linear[0])}, "abramovich_selberg": {_real_text(linear[1])}}}, '
        f'"known_degree": {known_degree}, "consistency_ok": {_LITERAL[consistency_ok]}, '
        f'"warnings": [{", ".join(map(encode_basestring_ascii, warnings))}]}}'
    )
    return line, consistency_ok
