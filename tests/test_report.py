"""Descriptors, gamma orbits, the DOT rendering, and report bundles."""

from __future__ import annotations

import hashlib
import importlib
import json

import pytest

import braceforge
from braceforge import braces
from braceforge.braces import almost_trivial, gamma, gamma_reach, trivial
from braceforge.cache import table_digest
from braceforge.census import census, census_label, census_lookup, census_match
from braceforge.classify import first_failure
from braceforge.constructions import (brace_order4_nontrivial, example_c2cubed,
                                      example_cn_even, example_p_odd, example_pq,
                                      example_q8)
from braceforge.groups import (direct_product, make_abelian, make_cyclic, make_dicyclic,
                               make_dihedral, relabel, subgroups)
from braceforge.jsonio import serialize
from braceforge.morphisms import are_isomorphic
from braceforge.report import (ReportBundle, brace_digest, gamma_orbits, hg_descriptor,
                               render_dot, report_bundle)

from oracles import (oracle_conjugacy_classes, oracle_hg_descriptor, oracle_render_dot,
                     transport)


def test_trivial_braces_are_classical_and_bijective():
    for e in census(10):
        d = hg_descriptor(trivial(e.group))
        assert d.classical and d.bijective
        assert d.type_label == d.galois_label == e.label
        assert d.canonical_nonclassical == e.group.is_abelian
        assert d.gamma_orbits == tuple((i,) for i in range(e.order))
        assert len(d.lattice) == len(subgroups(e.group))
        assert all(x.is_left_ideal for x in d.lattice)


def test_almost_trivial_q8_descriptor():
    g = census_lookup("Q8")
    d = hg_descriptor(almost_trivial(g))
    assert d.gamma_orbits == tuple(oracle_conjugacy_classes(g))
    assert d.gamma_orbits == ((0,), (1, 3), (2,), (4, 6), (5, 7))
    assert d.bijective  # every subgroup of Q8 is normal
    assert d.canonical_nonclassical and not d.classical


def test_almost_trivial_s3_is_not_bijective():
    d = hg_descriptor(almost_trivial(census_lookup("S3")))
    assert not d.bijective
    bad = [e for e in d.lattice if not e.is_left_ideal]
    assert len(bad) == 3  # the three reflection subgroups
    assert all(e.failure_kind == "gamma" for e in bad)


def test_gamma_orbits_of_almost_trivial_match_conjugacy(census15):
    for e in census(12):
        got = gamma_orbits(almost_trivial(e.group))
        assert got == tuple(oracle_conjugacy_classes(e.group))


# (type, galois, lattice size, ideal count, bijective, orbit count)
DESCRIPTOR_EXPECTED = {
    "q8": ("Q8", "D8", 10, 6, False, 5),
    "c2cubed": ("C2xC2xC2", "C2xC2xC2", 16, 6, False, 5),
    "cn4": ("C4", "C2xC2", 5, 3, False, 3),
    "cn6": ("C6", "S3", 6, 4, False, 4),
    "cn8": ("C8", "D8", 10, 4, False, 5),
    "cn10": ("C10", "D10", 8, 4, False, 6),
    "pq321": ("C6", "S3", 6, 4, False, 4),
    "pq731": ("unknown-order-21", "unknown-order-21", 10, 4, False, 9),
    "podd311": ("C3xC3", "C3xC3", 6, 3, False, 5),
    "podd511": ("unknown-order-25", "unknown-order-25", 8, 3, False, 9),
    "podd321": ("unknown-order-27", "unknown-order-27", 10, 7, False, 15),
    "order4": ("C2xC2", "C4", 3, 3, True, 3),
}

BUILDERS = {
    "q8": example_q8,
    "c2cubed": example_c2cubed,
    "cn4": lambda: example_cn_even(4),
    "cn6": lambda: example_cn_even(6),
    "cn8": lambda: example_cn_even(8),
    "cn10": lambda: example_cn_even(10),
    "pq321": lambda: example_pq(3, 2, 1, 1),
    "pq731": lambda: example_pq(7, 3, 1, 1),
    "podd311": lambda: example_p_odd(3, 1, 1),
    "podd511": lambda: example_p_odd(5, 1, 1),
    "podd321": lambda: example_p_odd(3, 2, 1),
    "order4": brace_order4_nontrivial,
}


@pytest.mark.parametrize("name", sorted(DESCRIPTOR_EXPECTED))
def test_construction_descriptors(name):
    d = hg_descriptor(BUILDERS[name]())
    ideals = sum(1 for e in d.lattice if e.is_left_ideal)
    got = (d.type_label, d.galois_label, len(d.lattice), ideals,
           d.bijective, len(d.gamma_orbits))
    assert got == DESCRIPTOR_EXPECTED[name]


def test_cn8_gamma_orbits_pair_up_inverses():
    d = hg_descriptor(example_cn_even(8))
    assert d.gamma_orbits == ((0,), (1, 7), (2, 6), (3, 5), (4,))


def test_gamma_orbits_partition():
    for b in (example_q8(), example_pq(7, 3, 1, 1)):
        orbits = gamma_orbits(b)
        flat = sorted(x for orbit in orbits for x in orbit)
        assert flat == list(range(b.order))
        assert orbits == tuple(sorted(orbits))


def test_render_dot_trivial_c2_exact():
    d = hg_descriptor(trivial(census_lookup("C2")))
    assert render_dot(d) == (
        "digraph hg_lattice {\n"
        "  rankdir=BT;\n"
        '  n0 [label="{0}" style=solid];\n'
        '  n1 [label="{0,1}" style=solid];\n'
        "  n0 -> n1;\n"
        "}\n"
    )


def test_render_dot_q8_shape():
    d = hg_descriptor(example_q8())
    out = render_dot(d)
    assert out == render_dot(hg_descriptor(example_q8()))
    lines = out.splitlines()
    assert sum(1 for l in lines if "[label=" in l) == 10
    assert sum(1 for l in lines if "->" in l) == 15
    assert sum(1 for l in lines if "style=dashed" in l) == 4
    assert out.endswith("}\n")


def test_render_dot_covers_only():
    # order4 lattice is the chain {0} < {0,2} < all, so exactly two edges
    out = render_dot(hg_descriptor(brace_order4_nontrivial()))
    edges = [l for l in out.splitlines() if "->" in l]
    assert len(edges) == 2


def test_brace_digest_ignores_labels():
    from braceforge.braces import SkewBrace
    b = example_q8()
    relabeled = SkewBrace(dot=relabel(b.dot, "x"), circ=relabel(b.circ, "y"), label="z")
    assert brace_digest(relabeled) == brace_digest(b)
    assert len(brace_digest(b)) == 64
    assert brace_digest(trivial(b.dot)) != brace_digest(b)


def test_report_bundle_fields():
    b = example_c2cubed()
    bundle = report_bundle(b)
    assert bundle.tool_version == braceforge.__version__
    assert bundle.input_sha256 == brace_digest(b)
    assert bundle.timing_ms is None
    assert bundle.descriptor == hg_descriptor(b)


census_module = importlib.import_module("braceforge.census")  # the package exports census()

# Above the census cap, so the lattice comes from the group itself.
BEYOND_CENSUS = [make(g) for g in (direct_product(make_dihedral(8), make_cyclic(2)),
                                   make_abelian([4, 4]), make_dicyclic(4))
                 for make in (trivial, almost_trivial)]
BEYOND_CENSUS += [example_pq(7, 3, 1, 1), example_p_odd(3, 2, 1)]


def _assert_matches_oracle(b):
    d = hg_descriptor(b)
    assert d == oracle_hg_descriptor(b), b.label
    data = serialize(report_bundle(b))
    assert data == serialize(ReportBundle(descriptor=oracle_hg_descriptor(b),
                                          input_sha256=brace_digest(b),
                                          tool_version=braceforge.__version__))
    assert data == (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode()
    assert render_dot(d) == oracle_render_dot(oracle_hg_descriptor(b))


def test_descriptor_matches_oracle_on_every_census_brace(census_braces):
    assert len(census_braces) == 498
    for b in census_braces:
        _assert_matches_oracle(b)


@pytest.mark.parametrize("b", BEYOND_CENSUS, ids=lambda b: b.label)
def test_descriptor_matches_oracle_beyond_the_census(b):
    assert census_match(b.circ) is None
    _assert_matches_oracle(b)


# Order 16, past the census cap: C2^4 has 67 subgroups, the largest lattice here.
# Both groups are abelian, so each almost-trivial brace has the trivial one's
# tables, and only its label differs.
ORDER_16 = [make(make_abelian(factors)) for factors in ([2, 2, 2, 2], [4, 2, 2])
            for make in (trivial, almost_trivial)]


@pytest.mark.parametrize("b", ORDER_16, ids=lambda b: b.label)
def test_render_dot_matches_the_cover_oracle_at_order_16(b):
    d = hg_descriptor(b)
    assert len(d.lattice) == {"C2xC2xC2xC2": 67, "C4xC2xC2": 27}[b.dot.label]
    assert render_dot(d) == oracle_render_dot(d)


def _reach_by_definition(b):
    """reach[x] as the OR of 1 << gamma_a(x) over every a."""
    reach = [0] * b.order
    for m in gamma(b).maps:
        for x, y in enumerate(m):
            reach[x] |= 1 << y
    return tuple(reach)


def test_gamma_reach_matches_its_definition(census_braces):
    examples = [make() for make in BUILDERS.values()]
    for b in census_braces + BEYOND_CENSUS + ORDER_16 + examples:
        assert gamma_reach(b) == _reach_by_definition(b), b.label


def test_descriptor_and_first_failure_never_build_gamma(monkeypatch, census_braces):
    def no_gamma(b):
        raise AssertionError("braces.gamma called")

    monkeypatch.setattr(braces, "gamma", no_gamma)
    for b in census_braces + BEYOND_CENSUS:
        gamma_reach.cache_clear()
        hg_descriptor(b)
        gamma_reach.cache_clear()
        first_failure(b)


def test_digests_hash_the_table_text(census_braces):
    # cache keys and the golden input_sha256 depend on these bytes
    for b in census_braces:
        text = repr((b.dot.table, b.circ.table))
        assert brace_digest(b) == hashlib.sha256(text.encode("ascii")).hexdigest(), b.label
    groups = [e.group for e in census()]
    assert len(groups) == 28
    for g in groups:
        assert table_digest(g) == hashlib.sha256(repr(g.table).encode("ascii")).hexdigest()


def test_labelling_and_lattice_share_one_isomorphism_search(monkeypatch):
    # a relabelled A4 no other test has seen: nothing is memoized for it yet
    fresh = transport(census_lookup("A4"), (0, 7, 3, 11, 1, 9, 5, 2, 10, 4, 8, 6))
    census_match.cache_clear()
    census_label.cache_clear()
    searches = 0
    search = census_module.isomorphisms

    def counting_search(*args):
        nonlocal searches
        searches += 1
        return search(*args)

    monkeypatch.setattr(census_module, "isomorphisms", counting_search)
    d = hg_descriptor(trivial(fresh))  # labels dot and circ, carries the lattice
    assert d.type_label == d.galois_label == "A4"
    assert [e.members for e in d.lattice] == [s.members for s in subgroups(fresh)]
    assert searches == 1
    assert are_isomorphic(fresh, census_lookup("A4")) == census_match(fresh)[1]
