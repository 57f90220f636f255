"""The wire format is applied where documents are assembled.

``build_report``, ``invariants_document`` and the ``verify-lemmas --json``
document round each real to 12 significant digits and write each integer
above 2^53 as a decimal string as they build their blocks.  The oracle is
the recursive walk that once did this at serialization, frozen here: it
must leave every document unchanged, so a value added later without its
rounding fails here even where no golden reaches it.
"""

import json
import random

import pytest

import moddeg.cli
from moddeg.report import build_report, dumps_report, invariants_document, parse_record

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
            doc = build_report(parse_record(record))
        except ValueError:  # a singular model
            continue
        assert_wire_ready(doc)
        checked += 1
    assert checked > 290


@pytest.mark.parametrize("record", _EDGE_RECORDS)
def test_edge_report_is_wire_ready(record):
    assert_wire_ready(build_report(parse_record(record)))


def test_integers_past_2_to_the_53_are_strings():
    at, past = (build_report(parse_record(record)) for record in _EDGE_RECORDS[:2])
    assert (at["conductor"], at["n2"]["value"], at["known_degree"]) == (TWO_53, str(TWO_53 + 1), TWO_53)
    assert (past["conductor"], past["n2"]["value"], past["known_degree"]) == (str(TWO_53 + 1), TWO_53, str(TWO_53 + 1))


def test_fudge_blocks_of_every_residue():
    doc = build_report(parse_record(_EDGE_RECORDS[4]))
    assert [f["p"] for f in doc["fudge"]] == [2, 3, 5, 7, 11, 13]
    assert [f["epsilon"] for f in doc["fudge"]] == [1, 1, 1, 1, -1, 1]
    assert [f["u_inverse_at_1"] for f in doc["fudge"]] == [0.5, 0.666666666667, 0.8, 0.857142857143, 1.09090909091, 0.923076923077]


@pytest.mark.parametrize("a", [tuple(r["a"]) for r in _EDGE_RECORDS[2:4]] + _LARGEST_MODELS + [(0, 0, 1, -1, 0)])
def test_invariants_document_is_wire_ready(a):
    doc = invariants_document(a)
    assert_wire_ready(doc)
    _, _, _, a4, a6 = a
    assert isinstance(doc["disc"], str) == (16 * abs(4 * a4**3 + 27 * a6**2) > TWO_53)


@pytest.mark.parametrize("a", _LARGEST_MODELS)
def test_largest_models_report_is_wire_ready(a):
    assert_wire_ready(build_report(parse_record({"a": list(a), "conductor": 37})))


def test_verify_lemmas_document_is_wire_ready(monkeypatch, capsys):
    documents = []

    def capture(doc):
        documents.append(doc)
        return dumps_report(doc)

    monkeypatch.setattr(moddeg.cli, "dumps_report", capture)
    assert moddeg.cli.main(["verify-lemmas", "--json"]) == 0
    (doc,) = documents
    assert_wire_ready(doc)
    assert capsys.readouterr().out == dumps_report(doc) + "\n"


def test_consistency_is_judged_before_rounding(monkeypatch):
    # a linear bound 1e-13 above the known degree rounds to it: the raw
    # value fails the check, and the report prints the rounded one
    record = parse_record({"a": [0, 0, 1, -1, 0], "conductor": 37, "deg_phi": 3})
    values = {"abramovich": 3.0000000000001, "abramovich_selberg": 0.0}
    monkeypatch.setattr("moddeg.report.linear_bounds", lambda n: values)
    doc = build_report(record)
    assert doc["linear"]["abramovich"] == 3.0
    assert doc["consistency_ok"] is False
