"""The wire format, checked against a frozen oracle.

Every document moddeg writes rounds each real to 12 significant digits
and writes each integer above 2^53 as a decimal string.
``build_report`` writes its report's JSON text by one template, and
``dumps_report`` writes every other document (``invariants``,
``verify-lemmas --json`` and ``bound``'s error objects) from raw values,
both by the same leaf writers.  The oracle is the recursive walk that
once rounded documents before ``json.dumps`` wrote them, frozen here:
a report read back from its line must be left unchanged by it, and
``dumps_report`` of any document must be ``json.dumps`` of its walk, so
a value written past the rule fails here even where no golden reaches it.
"""

import json
import math
import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import moddeg.cli
import moddeg.curves
from moddeg.agm import lemma1_check, period_data
from moddeg.bounds import degree_formula_bound, linear_bounds, theorem1, theorem2
from moddeg.curves import CurveModel, derive_invariants, is_cm, squared_primes, two_torsion_roots
from moddeg.fudge import fudge_factor_for
from moddeg.lvalue import L_VALUE_BOUND_NUMERATOR
from moddeg.report import _real_text, build_report, dumps_report, invariants_document, parse_record

from test_golden import DATASET, GOLDEN, child_env

TWO_53 = 2**53


def frozen_wire(value: object) -> object:
    """value with reals rounded to 12 significant digits and integers
    above 2^53 turned into decimal strings, in one recursive walk."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > TWO_53 else value
    if isinstance(value, dict):
        return {k: frozen_wire(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [frozen_wire(v) for v in value]
    return value


def assert_wire_ready(doc: dict[str, object]) -> None:
    walked = frozen_wire(doc)
    assert walked == doc
    assert json.dumps(walked) == json.dumps(doc)
    assert dumps_report(doc) == json.dumps(walked)


def assert_written_in_wire_form(doc: object) -> str:
    """dumps_report's text for a document of raw values: json.dumps of
    the document rounded by the oracle, which reads back as that."""
    text = dumps_report(doc)
    assert text == json.dumps(frozen_wire(doc))
    assert json.loads(text) == frozen_wire(doc)
    return text


def report_document(record: dict) -> dict[str, object]:
    """The report of record read back from its line, which must be the
    line ``json.dumps`` writes for what it holds."""
    line, _ = build_report(parse_record(record))
    doc = json.loads(line)
    assert json.dumps(doc) == line
    return doc


def _random_records(count: int, seed: int = 30) -> list[dict]:
    """Seeded records shaped like the small-conductor benchmark table, with
    n2, deg_phi and twist_minimal sometimes given."""
    rng = random.Random(seed)
    records = []
    for i in range(count):
        a = [rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1), rng.randint(-10**5, 10**5),
             rng.randint(-10**5, 10**5)]
        record = {"label": f"r{i}", "a": a, "conductor": rng.randint(11, 10**6)}
        if rng.random() < 0.3:
            record["n2"] = rng.randint(2, 10**12)
        if rng.random() < 0.3:
            record["deg_phi"] = rng.randint(1, 10**6)
        if rng.random() < 0.2:
            record["twist_minimal"] = False
        records.append(record)
    return records


# Each field at 2^53, which stays an integer, and at 2^53 + 1, which
# becomes a string, given as digit strings.
_EDGE_RECORDS = [
    {"a": [0, 0, 1, -1, 0], "conductor": str(TWO_53), "n2": str(TWO_53 + 1), "deg_phi": str(TWO_53)},
    {"a": [0, 0, 1, -1, 0], "conductor": str(TWO_53 + 1), "n2": str(TWO_53), "deg_phi": str(TWO_53 + 1)},
    # |disc| above 2^53 with either sign
    {"a": [0, 0, 0, -(10**6), 1], "conductor": 37},
    {"a": [0, 0, 0, 10**6, 1], "conductor": 37},
    # fudge blocks at p = 2 (2^8 || N), 3, 5, 7, 11 and 13 (1, 5, 7 and
    # 11 mod 12), minimal and declared non-minimal, and p = 2 off 2^8 || N
    {"a": [0, 0, 0, -1, 1], "conductor": 2**8 * 3**2 * 5**2 * 7**2 * 11**2 * 13**2},
    {"a": [0, 0, 0, -1, 1], "conductor": 2**8 * 3**2 * 5**2 * 7**2 * 11**2 * 13**2, "twist_minimal": False},
    {"a": [0, 0, 0, -1, 1], "conductor": 2**5 * 5**2 * 7**3, "deg_phi": 10**9},
]

# The four models of TestCliInvariants::test_largest_models_still_report.
_LARGEST_MODELS = [(0, 0, 0, 10**102, 0), (0, 0, 0, -(10**102), 0), (0, 0, 0, 0, 10**152), (0, 0, 0, 0, -(10**152))]


def test_seeded_reports_are_wire_ready():
    checked = 0
    for record in _random_records(300):
        try:
            doc = report_document(record)
        except ValueError:  # a singular model
            continue
        assert_wire_ready(doc)
        checked += 1
    assert checked > 290


@pytest.mark.parametrize("record", _EDGE_RECORDS)
def test_edge_report_is_wire_ready(record):
    assert_wire_ready(report_document(record))


def test_integers_past_2_to_the_53_are_strings():
    at, past = (report_document(record) for record in _EDGE_RECORDS[:2])
    assert (at["conductor"], at["n2"]["value"], at["known_degree"]) == (TWO_53, str(TWO_53 + 1), TWO_53)
    assert (past["conductor"], past["n2"]["value"], past["known_degree"]) == (str(TWO_53 + 1), TWO_53, str(TWO_53 + 1))


def test_fudge_blocks_of_every_residue():
    doc = report_document(_EDGE_RECORDS[4])
    assert [f["p"] for f in doc["fudge"]] == [2, 3, 5, 7, 11, 13]
    assert [f["epsilon"] for f in doc["fudge"]] == [1, 1, 1, 1, -1, 1]
    assert [f["u_inverse_at_1"] for f in doc["fudge"]] == [0.5, 0.666666666667, 0.8, 0.857142857143, 1.09090909091, 0.923076923077]


@pytest.mark.parametrize("a", [tuple(r["a"]) for r in _EDGE_RECORDS[2:4]] + _LARGEST_MODELS + [(0, 0, 1, -1, 0)])
def test_invariants_document_is_wire_ready(a):
    text = assert_written_in_wire_form(invariants_document(a))
    _, _, _, a4, a6 = a
    assert isinstance(json.loads(text)["disc"], str) == (16 * abs(4 * a4**3 + 27 * a6**2) > TWO_53)


@pytest.mark.parametrize("a", _LARGEST_MODELS)
def test_largest_models_report_is_wire_ready(a):
    assert_wire_ready(report_document({"a": list(a), "conductor": 37}))


def test_verify_lemmas_document_is_wire_ready(monkeypatch, capsys):
    documents = []

    def capture(doc):
        documents.append(doc)
        return dumps_report(doc)

    monkeypatch.setattr(moddeg.cli, "dumps_report", capture)
    assert moddeg.cli.main(["verify-lemmas", "--json"]) == 0
    (doc,) = documents
    text = assert_written_in_wire_form(doc)
    assert capsys.readouterr().out == text + "\n"


def test_consistency_is_judged_before_rounding(monkeypatch, tmp_path, capsys):
    # a linear bound 1e-13 above the known degree rounds to it: the raw
    # value fails the check, and the report prints the rounded one, in
    # the library and through bound, whose exit code is the verdict's
    record = {"a": [0, 0, 1, -1, 0], "conductor": 37, "deg_phi": 3}
    # build_report takes the linear bounds from the kernel behind linear_bounds
    values = (3.0000000000001, 0.0)
    monkeypatch.setattr("moddeg.bounds._linear_bounds", lambda n: values)
    line, consistency_ok = build_report(parse_record(record))
    doc = json.loads(line)
    assert doc["linear"]["abramovich"] == 3.0
    assert doc["consistency_ok"] is False and consistency_ok is False
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(record) + "\n")
    assert moddeg.cli.main(["bound", "--input", str(src), "--output", "-"]) == 1
    out = capsys.readouterr().out
    assert out == line + "\n"
    assert '"abramovich": 3.0,' in out and '"consistency_ok": false,' in out


def test_bound_writes_reports_without_the_generic_encoder(monkeypatch, tmp_path):
    # each report line comes from build_report's template alone
    def refuse(doc):
        raise AssertionError("bound called dumps_report")

    monkeypatch.setattr(moddeg.cli, "dumps_report", refuse)
    dst = tmp_path / "out.jsonl"
    assert moddeg.cli.main(["bound", "--input", str(DATASET), "--output", str(dst)]) == 0
    assert dst.read_bytes() == (GOLDEN / "bound_curves.golden.jsonl").read_bytes()


def test_bound_checks_each_record_once(monkeypatch, tmp_path):
    # parse_record checks a record's fields; build_report takes them as
    # they are, with no CurveModel to check "a" a second time
    def refuse(cls, *args, **kwargs):
        raise AssertionError("bound built a CurveModel")

    monkeypatch.setattr(moddeg.curves.CurveModel, "__new__", refuse)
    dst = tmp_path / "out.jsonl"
    assert moddeg.cli.main(["bound", "--input", str(DATASET), "--output", str(dst)]) == 0
    assert dst.read_bytes() == (GOLDEN / "bound_curves.golden.jsonl").read_bytes()


def _seeded_doubles(count: int, seed: int = 37) -> list[float]:
    """count doubles of random sign, biased exponent (0 to 2047, so
    subnormals, inf and nan included) and mantissa bits."""
    rng = random.Random(seed)
    return [
        struct.unpack("<d", struct.pack("<Q", rng.getrandbits(1) << 63 | rng.randrange(2048) << 52 | rng.getrandbits(52)))[0]
        for _ in range(count)
    ]


def _edge_doubles() -> list[float]:
    """The exponent boundaries of %.12g (1e12) and repr (1e16) with their
    neighbours and the values that round onto them, integer-valued reals,
    signed zeros, the extremes of the normal and subnormal ranges, inf and
    nan."""
    edges = [0.0, -0.0, 1.0, -1.0, 3.0, 123456.0, 2.0**53, 1e-4, 1e-5, 9.9999999999995e-5]
    for x in (1e12, 1e13, 1e15, 1e16, 1e17, 999999999999.5, 9999999999999995.0):
        edges += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    tiny = sys.float_info.min
    edges += [tiny, math.nextafter(tiny, 0.0), math.nextafter(0.0, 1.0), 5e-324, sys.float_info.max]
    edges += [math.inf, math.nan]
    return edges + [-x for x in edges]


@pytest.mark.parametrize("source", ["seeded", "edges"])
def test_real_text_is_the_rounded_double_as_json_writes_it(source):
    doubles = _seeded_doubles(100_000) if source == "seeded" else _edge_doubles()
    for x in doubles:
        assert _real_text(x) == json.dumps(float(f"{x:.12g}")), repr(x)
    if source == "seeded":
        # each band where the text is not %.12g as it stands is met
        assert sum(1e12 <= abs(x) < 1e16 for x in doubles) > 100
        assert sum(0.0 < abs(x) < sys.float_info.min for x in doubles) > 10
        assert sum(math.isnan(x) for x in doubles) > 10


# Integers on either side of 2^53, where the wire format turns to strings.
_EDGE_INTS = [0, 1, -1, TWO_53 - 1, TWO_53, TWO_53 + 1, -TWO_53, -TWO_53 - 1, -TWO_53 + 1, 10**40, -(10**40)]
# Plain, escaped, control, non-ASCII, astral and lone-surrogate characters.
_CHARACTERS = 'aZ0 "\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u03c9\u2028\ufeff\U0001f600\ud800\udfff'


def _random_document(rng: random.Random, doubles: list[float], depth: int = 0) -> object:
    """A seeded value of the kinds a document holds: a dict with string
    keys, list or tuple down to depth 4, and otherwise a real, an int, a
    bool, None or a string."""
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(doubles)
    if kind == 1:
        return rng.choice(_EDGE_INTS) + rng.choice([0, 0, rng.randint(-1000, 1000)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind in (3, 4):
        return "".join(rng.choices(_CHARACTERS, k=rng.randrange(6)))
    items = [_random_document(rng, doubles, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return {"".join(rng.choices(_CHARACTERS, k=rng.randrange(4))): item for item in items}
    return items if kind == 6 else tuple(items)


def _documents() -> list[dict[str, object]]:
    """One document of every edge value and character, and 2000 seeded ones."""
    rng = random.Random(38)
    doubles = _seeded_doubles(2000) + _edge_doubles()
    documents = [{"doubles": doubles, "ints": _EDGE_INTS, "characters": list(_CHARACTERS), "empty": [{}, [], ()]}]
    documents += [{str(i): _random_document(rng, doubles) for i in range(rng.randrange(1, 6))} for _ in range(2000)]
    return documents


def test_dumps_report_is_json_dumps_of_the_rounded_document():
    for doc in _documents():
        # nan != nan, so the text alone is compared
        assert dumps_report(doc) == json.dumps(frozen_wire(doc)), doc


# Writes dumps_report of each document, one line each, where _json cannot
# be imported, so moddeg.report writes strings by json.encoder's Python
# writer.
_WITHOUT_C_JSON = """
import sys

sys.modules["_json"] = None
sys.path.insert(0, sys.argv[1])
import json.encoder

import moddeg.report
from test_wire_format import _documents

assert moddeg.report.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii
for doc in _documents():
    print(moddeg.report.dumps_report(doc))
"""


def test_dumps_report_without_the_c_json_writer_writes_the_same_text():
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_C_JSON, str(Path(__file__).parent)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # each line is ASCII: encode_basestring_ascii escapes every line break
    assert proc.stdout.splitlines() == [dumps_report(doc) for doc in _documents()]


def public_chain_document(obj: dict) -> dict[str, object]:
    """The report of a record as the public functions give it, step by
    step: ``derive_invariants`` of a ``CurveModel``, ``two_torsion_roots``,
    ``period_data``, ``lemma1_check``, then ``squared_primes`` and
    ``fudge_factor_for`` for each squared prime, then the four bounds.
    The key order is the report's, and every value is raw."""
    record = parse_record(obj)
    inv = derive_invariants(CurveModel(*record.a))
    roots = two_torsion_roots(inv)
    period = period_data(inv, roots)
    check = lemma1_check(inv, period)
    n = record.conductor
    n2 = n * n if record.n2 is None else record.n2
    square_ps = squared_primes(n)
    squarefree = not square_ps
    fudge = [fudge_factor_for(inv, p, n, twist_minimal=record.twist_minimal) for p in square_ps]
    l_lower = L_VALUE_BOUND_NUMERATOR / math.log(n2)
    formula = degree_formula_bound(n, period.omega, l_lower, [f["u_inverse_at_1"] for f in fudge])
    th1 = theorem1(n, period.omega)
    th2 = theorem2(n, n2, period.omega, fudge)
    lin = linear_bounds(n)
    consistency_ok = None
    if record.deg_phi is not None:
        certified = [formula, th2["analytic"], th2["intermediate"], th2["closed_form"], *lin.values()]
        if squarefree:
            certified += th1.values()
        consistency_ok = max(certified) <= record.deg_phi
    warnings = []
    if n < 20000:
        warnings.append("conductor below certified range (N >= 20000); consult curve tables")
    if n2 < 142:
        warnings.append("n2 below the certified minimum 142")
    if not record.twist_minimal:
        warnings.append("declared non-twist-minimal; worst-case local factors used")
    return {
        "label": record.label,
        "conductor": n,
        "n2": {"value": n2, "source": "fallback_N_squared" if record.n2 is None else "supplied"},
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


def _agreement_records() -> list[dict]:
    """The seeded records, the edge records, the shipped dataset and the
    local-factor branches of the golden tests."""
    branches = (GOLDEN / "bound_branches.jsonl").read_text().splitlines()
    return [*_random_records(300), *_EDGE_RECORDS, *map(json.loads, DATASET.read_text().splitlines()), *map(json.loads, branches)]


def test_reports_agree_with_the_public_functions():
    # build_report runs the model layers, the local factors and the bounds
    # through the kernels behind the public functions; each field it
    # writes must be what the public functions give, rounded by the frozen
    # oracle
    checked = 0
    for obj in _agreement_records():
        try:
            line, consistency_ok = build_report(parse_record(obj))
        except ValueError as exc:  # a singular model, or a refused conductor
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                public_chain_document(obj)
            continue
        expected = frozen_wire(public_chain_document(obj))
        doc = json.loads(line)
        assert list(doc) == list(expected)
        for key, value in expected.items():
            assert doc[key] == value, (obj, key)
        assert consistency_ok is expected["consistency_ok"]
        checked += 1
    assert checked > 330
