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

import functools
import itertools
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
from .curves import (
    CurveModel,
    _is_strong_probable_prime,
    _trial_divide,
    derive_invariants,
    factorize,
    is_cm,
    two_torsion_roots,
)
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


# squared_primes trial-divides up to _WHEEL_LIMIT, takes the primes in
# (_WHEEL_LIMIT, _GCD_LIMIT] by one gcd, and trial-divides a composite
# cofactor above _GCD_LIMIT**3 up to _TRIAL_LIMIT.
_WHEEL_LIMIT = 2**10
_GCD_LIMIT = 2**17
_TRIAL_LIMIT = 10**7


@functools.cache
def _prime_product() -> int:
    """The product of the primes in (_WHEEL_LIMIT, _GCD_LIMIT], made on first
    use by a bytearray sieve and a pairwise product tree."""
    sieve = bytearray([1]) * (_GCD_LIMIT + 1)
    for p in range(2, math.isqrt(_GCD_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, _GCD_LIMIT + 1, p)))
    level = list(itertools.compress(range(_WHEEL_LIMIT + 1, _GCD_LIMIT + 1), sieve[_WHEEL_LIMIT + 1 :]))
    while len(level) > 1:
        level = [a * b for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1 :]
    return level[0]


def _is_prime_to_1e21(c: int) -> bool:
    """Whether c, odd and above 2^20, is a prime up to _TRIAL_LIMIT**3."""
    return c <= _TRIAL_LIMIT**3 and _is_strong_probable_prime(c)


def squared_primes(n: int) -> list[int]:
    """The primes p with p^2 | n, in increasing order.

    Trial division runs up to 2^10 or to the square root of what is left.
    A cofactor c above 2^20 that is not a prime up to 1e21 (Miller-Rabin
    on the first thirteen prime bases, exact there) takes one gcd g with
    the product of the primes in (2^10, 2^17]; gcd(g, c/g) holds the
    squared ones, and g's primes are divided out of c.  math.isqrt then
    tells the square of what is left when it is at most 2^51 (at most two
    prime factors, all above 2^17) or a prime up to 1e21.  Only a larger
    composite is trial-divided up to 1e7 (about 0.2 s), and refused with
    ValueError naming "conductor" when what is left there is still above
    1e21 and could have three or more prime factors.  The gcd removes only
    primes that this trial division would, so the refusals are those of
    trial division up to 1e7 alone.  A p^2 q with p near 5e4 and q near
    1e12 takes about 0.13 ms, after about 11 ms once per process to make
    the prime product (CPython 3.11, one Xeon core).
    """
    factors, c = _trial_divide(n, _WHEEL_LIMIT)
    square_ps = [p for p, e in factors.items() if e >= 2]
    if c > _WHEEL_LIMIT**2 and not _is_prime_to_1e21(c):
        g = math.gcd(c, _prime_product() % c)
        if g > 1:
            h = math.gcd(g, c // g)
            # two primes above 2^10 make more than 2^20: a smaller h is prime
            if h >= _WHEEL_LIMIT**2:
                square_ps += sorted(factorize(h))
            elif h > 1:
                square_ps.append(h)
            while g > 1:
                c //= g
                g = math.gcd(c, g)
        if c > _GCD_LIMIT**3 and not _is_prime_to_1e21(c):
            factors, c = _trial_divide(c, _TRIAL_LIMIT)
            if c > _TRIAL_LIMIT**3:
                raise ValueError(
                    f'"conductor" {n} is refused: trial division up to 10^7 leaves a cofactor '
                    "above 10^21, whose squared primes it cannot decide"
                )
            square_ps += [p for p, e in factors.items() if e >= 2]
    root = math.isqrt(c)
    if c > 1 and root * root == c:
        square_ps.append(root)
    return square_ps


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

