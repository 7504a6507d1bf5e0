import gc
import weakref

import pytest

from oracles import oracle_automorphisms, oracle_check_isomorphism, transport

from braceforge import morphisms
from braceforge.census import census_lookup
from braceforge.enumeration import enumerate_circ, reduce_up_to_iso, with_mult_types
from braceforge.groups import (direct_product, make_abelian, make_cyclic, make_dicyclic,
                               make_dihedral, make_quaternion8)
from braceforge.morphisms import (are_isomorphic, automorphism_group, characteristic_subgroups,
                                  isomorphisms)
from braceforge.perms import compose


def test_isomorphisms_extends_generator_image():
    g = make_cyclic(4)
    # the generator 1 goes to 1 or 3, the elements of order 4; 2 is never tried
    assert list(isomorphisms(g, g)) == [(0, 1, 2, 3), (0, 3, 2, 1)]  # identity, inversion


def test_isomorphisms_prunes_conflict():
    d8, q8 = make_dihedral(8), make_quaternion8()
    # D8's generators have orders 4 and 2, so every branch has images to try;
    # Q8's one involution is the square of each order-4 image, so each dies on a repeat
    assert [d8.element_orders[g] for g in d8.generating_indices] == [4, 2]
    assert [y for y in q8.elements() if q8.element_orders[y] == 2] == [2]
    assert list(isomorphisms(d8, q8)) == []


def test_isomorphisms_between_groups_of_unequal_order_yields_nothing():
    c4, c8 = make_cyclic(4), make_cyclic(8)
    assert list(isomorphisms(c4, c8)) == []
    assert list(isomorphisms(c8, c4)) == []


def test_automorphisms_match_oracle(census15):
    for e in census15:
        if e.order > 8:
            continue
        assert automorphism_group(e.group) == tuple(oracle_automorphisms(e.group))


ORDER_16 = {  # beyond the census
    "C2xC2xC2xC2": lambda: make_abelian([2, 2, 2, 2]),
    "C4xC4": lambda: make_abelian([4, 4]),
    "C4xC2xC2": lambda: make_abelian([4, 2, 2]),
    "D8xC2": lambda: direct_product(make_dihedral(8), make_cyclic(2)),
    "Q8xC2": lambda: direct_product(make_dicyclic(2), make_cyclic(2)),
    "D16": lambda: make_dihedral(16),
    "Dic4": lambda: make_dicyclic(4),
}


@pytest.mark.parametrize("label, expected", [
    ("C5", 4),
    ("C2xC2", 6),
    ("C2xC2xC2", 168),
    ("Q8", 24),
    ("D8", 8),
    ("C8", 4),
    ("S3", 6),
    ("C6", 2),
    ("A4", 24),
    ("C2xC2xC2xC2", 20160),
    ("C4xC4", 96),
    ("C4xC2xC2", 192),
    ("D8xC2", 64),
    ("Q8xC2", 192),
    ("D16", 32),
    ("Dic4", 32),
])
def test_automorphism_group_orders(label, expected):
    g = ORDER_16[label]() if label in ORDER_16 else census_lookup(label)
    auts = automorphism_group(g)
    assert len(auts) == expected
    assert list(auts) == sorted(auts)


def test_automorphism_group_is_built_once_per_reduced_enumeration(monkeypatch):
    # a relabelled D8 no other test has seen: its Aut is not memoized yet
    g = transport(census_lookup("D8"), (0, 6, 4, 2, 7, 5, 3, 1))
    real = morphisms.isomorphisms
    searches = []

    def recording(src, dst):
        searches.append((src, dst))
        return real(src, dst)
    monkeypatch.setattr(morphisms, "isomorphisms", recording)
    reduce_up_to_iso(with_mult_types(enumerate_circ(g)))
    assert searches == [(g, g)]


def test_automorphism_group_keeps_no_earlier_group_alive():
    # the memo holds one group, so building another's Aut lets the first go
    g = transport(census_lookup("Q8"), (0, 7, 6, 5, 4, 3, 2, 1))
    held = weakref.ref(g)
    automorphism_group(g)
    automorphism_group(census_lookup("C2"))
    del g
    gc.collect()
    assert held() is None


def test_are_isomorphic_finds_map():
    a = make_abelian([4, 2])
    b = make_abelian([2, 4])
    f = are_isomorphic(a, b)
    assert isinstance(f, tuple) and len(f) == 8
    for x in range(8):
        for y in range(8):
            assert f[a.table[x][y]] == b.table[f[x]][f[y]]


def test_are_isomorphic_distinguishes_d8_q8():
    assert are_isomorphic(make_dihedral(8), make_quaternion8()) is None
    assert are_isomorphic(make_cyclic(4), make_abelian([2, 2])) is None
    assert are_isomorphic(make_cyclic(4), make_cyclic(5)) is None


def test_are_isomorphic_on_transport():
    g = census_lookup("D8")
    moved = transport(g, (0, 3, 5, 7, 2, 4, 6, 1))
    assert are_isomorphic(g, moved) is not None


def test_are_isomorphic_returns_least_map(census15):
    # the maps g -> transport(g, bij) are bij after an automorphism of g;
    # for n <= 2 the reversal is the identity, the only bijection fixing 0
    for e in census15:
        if e.order > 8:
            continue
        g = e.group
        bij = (0, *range(g.order - 1, 0, -1))
        f = are_isomorphic(g, transport(g, bij))
        assert f == min(compose(bij, a) for a in oracle_automorphisms(g)), g.label


def test_isomorphism_rejects_lying_map():
    g = make_cyclic(4)
    oracle_check_isomorphism(g, g, (0, 3, 2, 1))
    with pytest.raises(ValueError, match=r"not multiplicative at \(1, 1\)"):
        oracle_check_isomorphism(g, g, (0, 2, 1, 3))
    with pytest.raises(ValueError, match="bijection fixing 0"):
        oracle_check_isomorphism(g, g, (1, 0, 2, 3))


@pytest.mark.parametrize("source, target, m", [(1, 2, (0, 1)), (2, 2, (0, 1, 2)),
                                               (4, 2, (0, 1))])
def test_isomorphism_rejects_a_map_of_the_wrong_length(source, target, m):
    with pytest.raises(ValueError, match="entries"):
        oracle_check_isomorphism(make_cyclic(source), make_cyclic(target), m)


@pytest.mark.parametrize("label, expected", [
    ("Q8", 3),        # trivial, center, whole
    ("C2xC2xC2", 2),  # only trivial and whole survive GL(3,2)
    ("C2xC2", 2),
    ("C4", 3),
    ("S3", 3),
    ("C8", 4),
    ("D8", 4),
])
def test_characteristic_subgroup_counts(label, expected):
    assert len(characteristic_subgroups(census_lookup(label))) == expected


def test_characteristic_subgroups_are_aut_stable():
    g = census_lookup("D8")
    auts = automorphism_group(g)
    for s in characteristic_subgroups(g):
        for f in auts:
            assert {f[m] for m in s.members} == set(s.members)
