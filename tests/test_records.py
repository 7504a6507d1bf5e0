"""The package's records and its two frozen classes.

Records are NamedTuples: field equality and hash, the `Name(field=value)`
repr, immutability, pickling.  FiniteGroup and SkewBrace are subclasses of
`groups.Frozen` and keep the semantics of a frozen dataclass: equality and
hash over the compared fields (a label is not one), never equal to another
class, and no field can be assigned or deleted.  The frozen test covers the
NamedTuple BraceEnumeration too.
"""

from __future__ import annotations

import pickle

import pytest

from braceforge.braces import LeftIdealFlag, trivial, validate
from braceforge.census import census, census_lookup
from braceforge.classify import is_good
from braceforge.enumeration import enumerate_circ, with_mult_types
from braceforge.groups import FiniteGroup, relabel


def _hand_written():
    s3 = census_lookup("S3")
    return {
        "FiniteGroup": s3,
        "SkewBrace": trivial(s3),
    }


FIELDS = {
    "FiniteGroup": ("table", "inv", "label"),
    "SkewBrace": ("dot", "circ", "label"),
}
HAND_WRITTEN = sorted(FIELDS)


def test_finite_group_equality_and_hash_ignore_label():
    g = census_lookup("S3")
    h = relabel(g, "x")
    assert h.label == "x" and g.label == "S3"
    assert h == g and hash(h) == hash(g)
    assert FiniteGroup(g.table, g.inv) == g
    assert relabel(g, "x") != census_lookup("C6")


def test_relabel_carries_no_cached_property_over():
    g = census_lookup("D8")
    assert g.element_orders and "element_orders" in vars(g)
    h = relabel(g, "y")
    assert h is not g and "element_orders" not in vars(h)
    assert h.element_orders == g.element_orders


def test_skew_brace_equality_and_hash_ignore_label():
    g = census_lookup("Q8")
    b = trivial(g)
    other = validate(relabel(g, "x"), g, label="another name")
    assert other == b and hash(other) == hash(b)
    assert b != validate(g, g.opposite())


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_hand_written_class_is_never_equal_to_another_type(name):
    obj = _hand_written()[name]
    assert obj == _hand_written()[name]
    values = tuple(getattr(obj, f) for f in FIELDS[name])
    for other in (values, values[:2], list(values), name, None, object()):
        assert (obj == other) is False and (obj != other) is True
        assert obj.__eq__(other) is NotImplemented


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_equal_hand_written_instances_hash_equal(name):
    # a pickle round trip rebuilds every nested object, so no part is shared
    obj = _hand_written()[name]
    twin = pickle.loads(pickle.dumps(obj))
    assert twin is not obj and getattr(twin, FIELDS[name][0]) is not getattr(obj, FIELDS[name][0])
    assert twin == obj and hash(twin) == hash(obj)


# BraceEnumeration is a NamedTuple, so it has no vars(); its state is the tuple
@pytest.mark.parametrize("name", sorted(HAND_WRITTEN + ["BraceEnumeration"]))
def test_hand_written_class_is_frozen(name):
    obj = {**_hand_written(), "BraceEnumeration": enumerate_circ(census_lookup("C4"))}[name]
    state = (lambda: dict(vars(obj))) if hasattr(obj, "__dict__") else (lambda: tuple(obj))
    before = state()
    for field in FIELDS.get(name) or obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert state() == before


def test_record_is_frozen():
    v = is_good(census_lookup("C4"))
    with pytest.raises(AttributeError):
        v.good = True
    with pytest.raises(AttributeError):
        del v.witness
    with pytest.raises(AttributeError):
        v.witness.kind = "gamma"
    assert v._replace(good=True).good and not v.good
    enum = enumerate_circ(census_lookup("C4"))
    assert enum._replace(iso_classes=()).iso_classes == () and enum.iso_classes is None


def test_enumeration_pickles_to_an_equal_hash():
    # a pickle round trip rebuilds every nested object, so no part is shared
    enum = with_mult_types(enumerate_circ(census_lookup("C4")))
    twin = pickle.loads(pickle.dumps(enum))
    assert twin is not enum and twin.additive is not enum.additive
    assert twin == enum and hash(twin) == hash(enum)


def test_reprs_keep_the_dataclass_form():
    c2 = census_lookup("C2")
    assert repr(c2) == "FiniteGroup(table=((0, 1), (1, 0)), inv=(0, 1), label='C2')"
    assert repr(census(2)[1]) == f"CensusEntry(order=2, label='C2', group={c2!r})"
    assert repr(trivial(c2)) == f"SkewBrace(dot={c2!r}, circ={c2!r}, label='trivial(C2)')"
    assert repr(LeftIdealFlag((0,), True)) == (
        "LeftIdealFlag(members=(0,), is_left_ideal=True, failing_pair=None, failure_kind=None)")
    enum = enumerate_circ(census_lookup("C1"))
    assert repr(enum) == (f"BraceEnumeration(additive={enum.additive!r}, "
                          f"operations=({enum.operations[0]!r},), "
                          "iso_classes=None, by_mult_type=None)")
