"""JSON round trips, deterministic bytes, and schema errors with path context."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from braceforge.braces import BraceRelationError, LeftIdealFlag, trivial
from braceforge.census import census_lookup
from braceforge.classify import TheoremRow, is_good, verify_theorem
from braceforge.constructions import example_q8
from braceforge.groups import FiniteGroup
from braceforge.jsonio import (BUNDLE_SCHEMA, SchemaError, brace_from_obj,
                               brace_to_obj, canonical_bytes, canonical_dumps,
                               descriptor_from_obj, descriptor_to_obj,
                               group_from_obj, group_to_obj, loads, parse, serialize,
                               theorem_report_to_obj, verdict_entry_from_obj,
                               verdict_to_obj)
from braceforge.report import hg_descriptor, report_bundle


def test_canonical_dumps_is_sorted_and_newline_terminated():
    s = canonical_dumps({"b": 1, "a": [1, 2]})
    assert s == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert canonical_bytes({"b": 1, "a": [1, 2]}) == s.encode("utf-8")


# Any JSON value, with tuples, every float (-0.0, nan, inf), big ints, and
# keys drawn from every code point, surrogates and control characters included.
ANY_TEXT = st.text(st.characters(exclude_categories=()))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])
    | ANY_TEXT | st.sampled_from(["é", "\x00\x1f", "\u2028", "\"\\/"]),
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(ANY_TEXT | st.sampled_from(["", "é", "\n"]), kids)),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_canonical_dumps_matches_the_stdlib_encoder(value):
    assert canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_canonical_dumps_refuses_what_it_cannot_write():
    for bad in ({1: 0}, {None: 0}, {"x": {1, 2}}, [object()]):
        with pytest.raises(TypeError):
            canonical_dumps(bad)


def test_canonical_dumps_refuses_records():
    # a NamedTuple is a tuple, but a record reaching the writer unconverted is
    # a bug: it must not come out as a bare array of its fields
    records = (is_good(census_lookup("Q8")),
               [LeftIdealFlag(members=(0,), is_left_ideal=True)],
               TheoremRow(label="C2", order=2, predicted=True, computed=True))
    for bad in records:
        with pytest.raises(TypeError, match="Verdict|LeftIdealFlag|TheoremRow"):
            canonical_dumps(bad)


def test_group_round_trip():
    g = census_lookup("D8")
    back = group_from_obj(json.loads(canonical_dumps(group_to_obj(g))))
    assert back.table == g.table and back.label == "D8"


def test_group_from_obj_errors_carry_paths():
    with pytest.raises(SchemaError) as exc:
        group_from_obj([1, 2])
    assert exc.value.path == "$"
    with pytest.raises(SchemaError) as exc:
        group_from_obj({"order": 2, "label": "x"})
    assert "missing keys" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        group_from_obj({"order": 2, "label": "x", "table": [[0, 1], [1, 0]], "junk": 1})
    assert "unexpected keys" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        group_from_obj({"order": 2, "label": "x", "table": [[0, 1]]})
    assert exc.value.path == "$.table"
    with pytest.raises(SchemaError) as exc:
        group_from_obj({"order": 2, "label": "x", "table": [[0, True], [1, 0]]})
    assert exc.value.path == "$.table[0][1]"
    with pytest.raises(SchemaError) as exc:
        group_from_obj({"order": 0, "label": "x", "table": []})
    assert exc.value.path == "$.order"


def test_group_from_obj_still_validates_group_axioms():
    with pytest.raises(ValueError, match="associative"):
        group_from_obj({"order": 5, "label": "x", "table": [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]})


def test_brace_round_trip_validates():
    b = example_q8()
    obj = json.loads(canonical_dumps(brace_to_obj(b)))
    back = brace_from_obj(obj)
    assert back.dot.table == b.dot.table
    assert back.circ.table == b.circ.table
    assert back.label == b.label


def test_brace_from_obj_rejects_corrupt_circ():
    b = trivial(census_lookup("S3"))
    obj = brace_to_obj(b)
    g = census_lookup("C6")
    obj["circ"] = [list(r) for r in g.table]
    with pytest.raises(BraceRelationError):
        brace_from_obj(obj)


def test_brace_from_obj_names_a_row_that_is_not_a_list():
    obj = brace_to_obj(example_q8())
    obj["dot"][1] = 7
    with pytest.raises(SchemaError) as exc:
        brace_from_obj(obj)
    assert exc.value.path == "$.dot[1]"


def test_verdict_to_obj_layout():
    # the layout `classify --json` prints
    v = is_good(census_lookup("Q8"), exhaustive=True)
    obj = json.loads(canonical_dumps(verdict_to_obj(v)))
    w = v.witness
    assert obj == {"group": "Q8", "good": False, "braces_examined": v.braces_examined,
                   "exhaustive": True,
                   "witness": {"brace": brace_to_obj(w.brace), "subgroup": list(w.subgroup),
                               "failing": list(w.failing), "kind": w.kind}}
    assert verdict_to_obj(is_good(census_lookup("C15")))["witness"] is None


def _q8_entry():
    # a cached bad verdict: the witness brace and the count
    v = is_good(census_lookup("Q8"))
    return {"brace": brace_to_obj(v.witness.brace), "braces_examined": v.braces_examined}


def _q8_descriptor():
    return descriptor_to_obj(hg_descriptor(example_q8()))


# field -> (encoded object, its decoder, the keys that lead to one int in it)
_BOOL_CASES = {
    "braces_examined": (_q8_entry, verdict_entry_from_obj, ("braces_examined",)),
    "order": (lambda: group_to_obj(census_lookup("C1")), group_from_obj, ("order",)),
    "gamma_orbits": (_q8_descriptor, descriptor_from_obj, ("gamma_orbits", 1, -1)),
    "members": (_q8_descriptor, descriptor_from_obj, ("lattice", 1, "members", -1)),
    "failing_pair": (_q8_descriptor, descriptor_from_obj, ("lattice", 2, "failing_pair", -1)),
}


@pytest.mark.parametrize("field, path", [("braces_examined", "$.braces_examined"),
                                         ("order", "$.order"),
                                         ("gamma_orbits", "$.gamma_orbits"),
                                         ("members", "$.lattice[1].members"),
                                         ("failing_pair", "$.lattice[2].failing_pair")])
def test_verdict_from_obj_rejects_bools_for_ints(field, path):
    # JSON true is a Python int; no decoder may take it as an element index,
    # a count or an order
    make, decode, keys = _BOOL_CASES[field]
    obj = make()
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = True
    with pytest.raises(SchemaError) as exc:
        decode(obj)
    assert exc.value.path == path


def test_theorem_report_to_obj_shape():
    r = verify_theorem(6)
    obj = theorem_report_to_obj(r)
    assert obj["max_order"] == 6
    assert obj["all_match"] is True
    assert obj["good_labels"] == ["C1", "C2", "C3", "C2xC2", "C5"]
    assert [row["label"] for row in obj["rows"]] == [e.label for e in r.rows]
    json.dumps(obj)  # must be JSON-clean


def test_brace_from_obj_reuses_a_trusted_dot_group(monkeypatch):
    b = example_q8()
    obj = brace_to_obj(b)
    checked = []
    from_table = FiniteGroup.from_table

    def counting(rows, label=""):
        checked.append(rows)
        return from_table(rows, label)

    monkeypatch.setattr(FiniteGroup, "from_table", counting)
    back = brace_from_obj(obj, dot=b.dot)
    assert back == b and back.dot is b.dot
    assert checked == [obj["circ"]]  # only the circ table goes through the gate
    with pytest.raises(SchemaError) as exc:
        brace_from_obj(obj, dot=census_lookup("D8"))
    assert exc.value.path == "$.dot"


def test_descriptor_round_trip():
    d = hg_descriptor(example_q8())
    back = descriptor_from_obj(json.loads(canonical_dumps(descriptor_to_obj(d))))
    assert back == d


def test_descriptor_from_obj_rejects_bad_failure_kind():
    d = hg_descriptor(example_q8())
    obj = descriptor_to_obj(d)
    obj["lattice"][0]["failure_kind"] = "?"
    with pytest.raises(SchemaError) as exc:
        descriptor_from_obj(obj)
    assert exc.value.path == "$.lattice[0].failure_kind"


def test_descriptor_from_obj_rejects_a_lattice_that_is_not_a_list():
    obj = descriptor_to_obj(hg_descriptor(example_q8()))
    obj["lattice"] = {"members": [0]}
    with pytest.raises(SchemaError) as exc:
        descriptor_from_obj(obj)
    assert exc.value.path == "$.lattice"


def test_bundle_serialize_parse_round_trip():
    bundle = report_bundle(example_q8())._replace(timing_ms=3.25)
    data = serialize(bundle)
    assert data == serialize(bundle)
    back = parse(data)
    assert back == bundle
    obj = json.loads(data)
    assert obj["schema"] == BUNDLE_SCHEMA


def test_parse_rejects_wrong_schema_and_garbage():
    bundle = report_bundle(trivial(census_lookup("C2")))
    obj = json.loads(serialize(bundle))
    obj["schema"] = "braceforge/report-v999"
    with pytest.raises(SchemaError) as exc:
        parse(canonical_bytes(obj))
    assert exc.value.path == "$.schema"
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse(b"{nope")


@pytest.mark.parametrize("data", [b"[" + b"1" * 5000 + b"]", b"\xff\xfe{", b"[" * 200_000,
                                  '"x"'.encode("utf-16")],
                         ids=["5000-digit int", "non-UTF-8", "deep nesting", "UTF-16"])
def test_parse_refuses_undecodable_bytes_at_the_root(data):
    # every decoding failure, the digit limit's plain ValueError included, is a
    # SchemaError at $ from the one decoder
    for decode in (parse, loads):
        with pytest.raises(SchemaError, match="not valid JSON") as exc:
            decode(data)
        assert exc.value.path == "$"


@pytest.mark.parametrize("count", [-7, 0])
def test_verdict_from_obj_rejects_a_count_below_one(count):
    # every scan examines at least the trivial brace
    obj = _q8_entry()
    obj["braces_examined"] = count
    with pytest.raises(SchemaError, match="expected a positive int") as exc:
        verdict_entry_from_obj(obj)
    assert exc.value.path == "$.braces_examined"


@pytest.mark.parametrize("timing", [b"true", b"NaN", b"Infinity", b"-Infinity"])
def test_parse_refuses_a_timing_that_is_not_a_finite_number(timing):
    data = serialize(report_bundle(trivial(census_lookup("C2"))))
    assert b'"timing_ms": null' in data
    with pytest.raises(SchemaError, match="expected null or a number") as exc:
        parse(data.replace(b'"timing_ms": null', b'"timing_ms": ' + timing))
    assert exc.value.path == "$.timing_ms"
