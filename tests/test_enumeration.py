"""Enumeration of compatible multiplicative operations, checked three ways:
frozen counts, an independent brute-force oracle at small orders, and
structural invariants (canonical order, transport equivariance, partitions).
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from braceforge import enumeration
from braceforge.braces import almost_trivial, trivial, validate
from braceforge.census import (CensusCapError, census, census_label, census_lookup,
                               census_match)
from braceforge.classify import is_good
from braceforge.enumeration import (BraceEnumeration, enumerate_circ, reduce_up_to_iso,
                                    with_mult_types)
from braceforge.groups import (CayleyTableError, FiniteGroup, make_abelian, make_cyclic,
                               relabel)
from braceforge.morphisms import automorphism_group

from oracles import (brace_isomorphic, oracle_enumerate_circ, oracle_mult_types,
                     oracle_orbit_partition, oracle_regular_subgroup_tables, oracle_search_slots,
                     transport)

# (label, operation count, isomorphism class count); summed per order, the
# class counts 1 1 1 4 1 6 1 47 4 6 1 38 1 6 1 are Guarnieri-Vendramin's
EXPECTED = {
    "C1": (1, 1), "C2": (1, 1), "C3": (1, 1),
    "C4": (2, 2), "C2xC2": (4, 2),
    "C5": (1, 1),
    "C6": (2, 2), "S3": (8, 4),
    "C7": (1, 1),
    "C8": (6, 5), "C4xC2": (28, 14), "C2xC2xC2": (232, 8),
    "D8": (20, 12), "Q8": (28, 8),
    "C9": (3, 2), "C3xC3": (9, 2),
    "C10": (2, 2), "D10": (12, 4),
    "C11": (1, 1),
    "C12": (6, 5), "C6xC2": (12, 5), "D12": (28, 10),
    "A4": (42, 8), "Dic3": (28, 10),
    "C13": (1, 1), "C14": (2, 2), "D14": (16, 4), "C15": (1, 1),
}

EXPECTED_MULT_CENSUS = {
    "C8": {"C4xC2": 2, "C8": 2, "D8": 1, "Q8": 1},
    "C4xC2": {"C2xC2xC2": 2, "C4xC2": 10, "D8": 14, "Q8": 2},
    "C2xC2xC2": {"C2xC2xC2": 8, "C4xC2": 84, "D8": 126, "Q8": 14},
    "D8": {"C2xC2xC2": 2, "C4xC2": 6, "C8": 4, "D8": 6, "Q8": 2},
    "Q8": {"C2xC2xC2": 2, "C4xC2": 6, "C8": 12, "D8": 6, "Q8": 2},
    "C9": {"C9": 3},
    "C12": {"C12": 1, "C6xC2": 1, "D12": 3, "Dic3": 1},
    "C6xC2": {"A4": 2, "C12": 3, "C6xC2": 1, "D12": 3, "Dic3": 3},
    "D12": {"C12": 6, "C6xC2": 6, "D12": 14, "Dic3": 2},
    "A4": {"A4": 10, "C6xC2": 8, "Dic3": 24},
    "Dic3": {"C12": 6, "C6xC2": 6, "D12": 14, "Dic3": 2},
    "C14": {"C14": 1, "D14": 1},
    "D14": {"C14": 14, "D14": 2},
    "C15": {"C15": 1},
}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_operation_counts(label):
    assert enumerate_circ(census_lookup(label)).count == EXPECTED[label][0]


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_iso_class_counts(label):
    enum = reduce_up_to_iso(enumerate_circ(census_lookup(label)))
    assert len(enum.iso_classes) == EXPECTED[label][1]


def test_order_8_classes_total_47():
    total = sum(len(reduce_up_to_iso(enumerate_circ(e.group)).iso_classes)
                for e in census(8) if e.order == 8)
    assert total == 47


def test_trivial_and_opposite_always_present(census15):
    for e in census15:
        tables = {b.circ.table for b in enumerate_circ(e.group).operations}
        assert trivial(e.group).circ.table in tables
        assert almost_trivial(e.group).circ.table in tables


def test_operations_sorted_and_distinct(census15):
    for e in census15:
        enum = enumerate_circ(e.group)
        tables = [b.circ.table for b in enum.operations]
        assert tables == sorted(tables)
        assert len(set(tables)) == len(tables)
        for b in enum.operations:
            assert b.dot is e.group


def test_search_yields_tables_in_sorted_order(census15):
    # the search fills the least empty slot from a sorted bucket, so tables
    # first differ at a chosen slot and come out sorted with no sort step
    for e in census15:
        tables = list(enumeration._regular_subgroup_tables(e.group))
        assert tables == sorted(set(tables)), e.label


def test_search_matches_the_closure_only_oracle(census15):
    # the clash pre-check rejects only candidates the closure rejects, so the
    # table sequence, and with it every -op<i> label, is the oracle's
    groups = [e.group for e in census15] + [make_abelian([4, 4]), make_abelian([4, 2, 2])]
    sizes = []
    for g in groups:
        tables = list(enumeration._regular_subgroup_tables(g))
        assert tables == list(oracle_regular_subgroup_tables(g)), g.label
        sizes.append(len(tables))
    assert sizes[-2:] == [880, 3152]


def test_matches_bruteforce_oracle_up_to_order_6():
    for e in census(6):
        got = [b.circ.table for b in enumerate_circ(e.group).operations]
        assert got == oracle_enumerate_circ(e.group), e.label


@pytest.mark.parametrize("label,f", [
    ("S3", (0, 2, 1, 4, 3, 5)),
    ("Q8", (0, 3, 2, 1, 5, 4, 7, 6)),
    ("C2xC2", (0, 2, 3, 1)),
])
def test_enumeration_is_transport_equivariant(label, f):
    g = census_lookup(label)
    moved = transport(g, f)
    expect = {transport(b.circ, f).table for b in enumerate_circ(g).operations}
    got = {b.circ.table for b in enumerate_circ(moved).operations}
    assert got == expect


@pytest.mark.parametrize("label", sorted(EXPECTED_MULT_CENSUS))
def test_mult_type_census(label):
    typed = with_mult_types(enumerate_circ(census_lookup(label)))
    assert {t: len(idx) for t, idx in typed.by_mult_type} == EXPECTED_MULT_CENSUS[label]


def test_with_mult_types_partitions_indices():
    enum = with_mult_types(enumerate_circ(census_lookup("D8")))
    seen: list[int] = []
    for mult_label, idx in enum.by_mult_type:
        assert idx == tuple(sorted(idx))
        seen.extend(idx)
        for i in idx:
            assert census_label(enum.operations[i].circ) == mult_label
    assert sorted(seen) == list(range(enum.count))


def test_reduce_up_to_iso_v4_classes():
    enum = reduce_up_to_iso(enumerate_circ(census_lookup("C2xC2")))
    assert enum.iso_classes == ((0,), (1, 2, 3))
    nontrivial = enum.operations[1]
    assert census_label(nontrivial.circ) == "C4"


def test_iso_classes_partition_and_separate():
    enum = reduce_up_to_iso(enumerate_circ(census_lookup("S3")))
    flat = [i for cls in enum.iso_classes for i in cls]
    assert sorted(flat) == list(range(enum.count))
    ops = enum.operations
    for cls in enum.iso_classes:
        for i in cls[1:]:
            assert brace_isomorphic(ops[cls[0]], ops[i]) is not None
    reps = [cls[0] for cls in enum.iso_classes]
    for i, r in enumerate(reps):
        for s in reps[i + 1:]:
            assert brace_isomorphic(ops[r], ops[s]) is None


def _generator_columns_are_injective(enum):
    # the key reduce_up_to_iso indexes tables by
    n, gens = enum.additive.order, enum.additive.generating_indices
    keys = {tuple(b.circ.table[s][g] for s in range(n) for g in gens) for b in enum.operations}
    return len(keys) == enum.count


def test_orbit_walk_matches_the_full_table_oracle(census15):
    for e in census15:
        enum = enumerate_circ(e.group)
        assert _generator_columns_are_injective(enum), e.label
        assert reduce_up_to_iso(enum).iso_classes == oracle_orbit_partition(enum.operations), e.label
        assert with_mult_types(enum).by_mult_type == oracle_mult_types(enum), e.label


@pytest.mark.parametrize("label", ["C2xC2xC2", "D12", "A4"])
def test_orbit_walk_matches_the_oracle_on_transported_groups(label):
    g = census_lookup(label)
    f = (0, *range(g.order - 1, 0, -1))
    moved = transport(g, f, label=f"{label}-reversed")
    # the moved group's greedy generators are not the images of g's
    assert set(moved.generating_indices) != {f[x] for x in g.generating_indices}
    enum = enumerate_circ(moved)
    assert _generator_columns_are_injective(enum)
    classes = reduce_up_to_iso(enum).iso_classes
    assert classes == oracle_orbit_partition(enum.operations)
    assert len(classes) == EXPECTED[label][1]
    assert with_mult_types(enum).by_mult_type == oracle_mult_types(enum)


def test_orbit_walk_matches_the_oracle_above_the_cap():
    g = make_abelian([4, 4])
    ops = tuple(validate(g, FiniteGroup.from_table(t))
                for t in enumeration._regular_subgroup_tables(g))
    enum = BraceEnumeration(additive=g, operations=ops)
    assert enum.count == 880 and _generator_columns_are_injective(enum)
    classes = reduce_up_to_iso(enum).iso_classes
    assert len(classes) == 83
    assert classes == oracle_orbit_partition(enum.operations)
    assert with_mult_types(enum).by_mult_type == oracle_mult_types(enum)


def test_orbit_walk_refuses_an_enumeration_missing_an_operation():
    enum = reduce_up_to_iso(enumerate_circ(census_lookup("C2xC2xC2")))
    dropped = max(enum.iso_classes, key=len)[-1]
    ops = enum.operations[:dropped] + enum.operations[dropped + 1:]
    with pytest.raises(RuntimeError, match="left the enumeration"):
        reduce_up_to_iso(enum._replace(operations=ops, iso_classes=None))
    # labelling walks the same orbits, so it refuses the same enumeration
    with pytest.raises(RuntimeError, match="left the enumeration"):
        with_mult_types(enum._replace(operations=ops, iso_classes=None))


def _census_match_misses(groups):
    # label and reduce each group as `brace enumerate --up-to-iso` does,
    # from empty label memos
    census_label.cache_clear()
    census_match.cache_clear()
    for g in groups:
        reduce_up_to_iso(with_mult_types(enumerate_circ(g)))
    return census_match.cache_info().misses


def test_circ_types_are_labelled_once_per_class(census15):
    # a deterministic work pin: one census search per distinct circ group
    # among the class representatives (per operation: 398, 232 on C2xC2xC2)
    assert _census_match_misses([census_lookup("C2xC2xC2")]) == 8
    assert _census_match_misses([e.group for e in census15]) == 96


def test_labelling_and_reduction_walk_the_orbits_once(monkeypatch):
    # the walk inverts each of the 168 automorphisms once, in either order:
    # the classes ride on the reduced enumeration, and a reduced one is not
    # walked again
    g = census_lookup("C2xC2xC2")
    real = enumeration.invert
    calls = 0

    def counting(p):
        nonlocal calls
        calls += 1
        return real(p)
    monkeypatch.setattr(enumeration, "invert", counting)
    for both in (lambda e: reduce_up_to_iso(with_mult_types(e)),
                 lambda e: with_mult_types(reduce_up_to_iso(e))):
        calls = 0
        enum = both(enumerate_circ(g))
        assert len(enum.iso_classes) == EXPECTED["C2xC2xC2"][1]
        assert {t: len(idx) for t, idx in enum.by_mult_type} == EXPECTED_MULT_CENSUS["C2xC2xC2"]
        assert calls == len(automorphism_group(g)) == 168
    calls = 0
    assert reduce_up_to_iso(enum) is enum and calls == 0


def test_enumeration_capped_at_15():
    with pytest.raises(CensusCapError, match="capped"):
        enumerate_circ(make_cyclic(16))


def _corrupt_search(monkeypatch, corrupt):
    real = enumeration._regular_subgroup_tables

    def corrupted(g):
        tables = [list(map(list, t)) for t in real(g)]
        corrupt(tables)
        return [tuple(map(tuple, t)) for t in tables]
    monkeypatch.setattr(enumeration, "_regular_subgroup_tables", corrupted)


def _swap_two_entries(tables, at=-1):
    row = tables[at][1]
    row[1], row[2] = row[2], row[1]


def _foreign_group(tables, at=-1):
    # C4 relabelled by 1 <-> 2 is a group, but not compatible with additive C4
    foreign = [list(r) for r in transport(census_lookup("C4"), (0, 2, 1, 3)).table]
    assert foreign not in tables
    tables[at] = foreign


@pytest.mark.parametrize("corrupt, error", [(_swap_two_entries, CayleyTableError),
                                            (_foreign_group, RuntimeError)])
def test_enumeration_gate_rejects_a_corrupted_search_table(monkeypatch, corrupt, error):
    # the one check on each produced table is from_table + validate
    g = relabel(census_lookup("C4"), "C4-fault")
    _corrupt_search(monkeypatch, corrupt)
    with pytest.raises(error):
        enumerate_circ(g)


@pytest.mark.parametrize("corrupt, error", [(_swap_two_entries, CayleyTableError),
                                            (_foreign_group, RuntimeError)])
def test_first_failure_is_good_gates_the_first_streamed_table(monkeypatch, corrupt, error):
    # is_good scans the stream as it arrives, so the gate must run before the
    # scan sees even the first table
    g = relabel(census_lookup("C4"), "C4-fault")
    _corrupt_search(monkeypatch, lambda tables: corrupt(tables, at=0))
    with pytest.raises(error):
        is_good(g)


def test_search_composes_fewer_than_aut_squared_times(monkeypatch):
    # holomorph elements are permutations composed on demand; a table of
    # all automorphism compositions would cost |Aut|**2 = 168**2 here
    g = census_lookup("C2xC2xC2")
    real = enumeration.compose
    calls = 0

    def counting(p, q):
        nonlocal calls
        calls += 1
        return real(p, q)
    monkeypatch.setattr(enumeration, "compose", counting)
    assert len(list(enumeration._regular_subgroup_tables(g))) == EXPECTED["C2xC2xC2"][0]
    assert calls < len(automorphism_group(g)) ** 2


def test_census_search_composes_no_more_than_with_the_clash_pre_check(monkeypatch, census15):
    # a deterministic work bound: the pre-check rejects most clashing
    # candidates before the closure composes anything (closure alone:
    # 6,938 calls over the census, 3,797 of them on C2xC2xC2)
    real = enumeration.compose
    calls = 0

    def counting(p, q):
        nonlocal calls
        calls += 1
        return real(p, q)
    monkeypatch.setattr(enumeration, "compose", counting)
    per_group = {}
    for e in census15:
        before = calls
        list(enumeration._regular_subgroup_tables(e.group))
        per_group[e.label] = calls - before
    assert per_group["C2xC2xC2"] <= 2541
    assert calls <= 5411


def test_buckets_are_built_only_for_slots_the_search_picks(monkeypatch, census15):
    # a bucket candidate is a translation after an automorphism, the only
    # composite whose right factor fixes 0; products of search elements never are
    real = enumeration.compose
    built: Counter[int] = Counter()

    def counting(p, q):
        if q[0] == 0:
            built[p[0]] += 1
        return real(p, q)
    monkeypatch.setattr(enumeration, "compose", counting)
    skipped = 0
    for e in census15:
        built.clear()
        list(enumeration._regular_subgroup_tables(e.group))
        aut = len(automorphism_group(e.group))
        picked = oracle_search_slots(e.group)
        assert built == {t: aut for t in picked}, e.label
        skipped += e.order - 1 - len(picked)
    assert skipped > 0


def test_enumerate_circ_keeps_no_enumeration_alive():
    # the caller holds an enumeration; the library keeps none of its braces
    # (not its additive group: automorphism_group's one-entry memo holds that)
    enum = enumerate_circ(relabel(census_lookup("D8"), "D8-held"))
    held = [weakref.ref(b) for b in enum.operations]
    assert len(held) == 20
    del enum
    gc.collect()
    assert all(ref() is None for ref in held)


def test_a_labelled_and_reduced_enumeration_is_freed_when_dropped():
    # the partitions ride on the enumeration; no memo keeps its braces
    enum = reduce_up_to_iso(with_mult_types(enumerate_circ(relabel(census_lookup("D8"),
                                                                   "D8-held"))))
    held = [weakref.ref(b) for b in enum.operations]
    assert len(held) == 20 and len(enum.iso_classes) == EXPECTED["D8"][1]
    del enum
    gc.collect()
    assert all(ref() is None for ref in held)


def _hopf_galois_count(g_label: str, n_label: str) -> int:
    """e(G, N), the number of Hopf-Galois structures of type N on a Galois
    G-extension, by Byott's translation: |Aut G| / |Aut N| times e'(G, N),
    the number of circ tables on N whose circ group is G."""
    n = census_lookup(n_label)
    e_prime = len(dict(with_mult_types(enumerate_circ(n)).by_mult_type).get(g_label, ()))
    count, rest = divmod(len(automorphism_group(census_lookup(g_label))) * e_prime,
                         len(automorphism_group(n)))
    assert rest == 0, (g_label, n_label)
    return count


@pytest.mark.parametrize("g_label, n_label, expected", [
    # Byott 2004, order pq with p = 1 mod q, here q = 2: e(C, C) = 1,
    # e(C, D) = 2(q - 1), e(D, C) = p, e(D, D) = 2 + 2p(q - 2)
    *[case for p, c, d in [(3, "C6", "S3"), (5, "C10", "D10"), (7, "C14", "D14")]
      for case in [(c, c, 1), (c, d, 2), (d, c, p), (d, d, 2)]],
    # Kohl 1998: a cyclic extension of degree p^n has p^(n-1) structures, all cyclic
    ("C9", "C9", 3), ("C9", "C3xC3", 0),
    # Byott 1996: exactly one structure when gcd(n, phi(n)) = 1
    *[(f"C{n}", f"C{n}", 1) for n in (3, 5, 7, 11, 13, 15)],
])
def test_hopf_galois_counts_match_the_literature(g_label, n_label, expected):
    # reads only the enumeration and the circ labels: no left-ideal scan, no predicate
    assert _hopf_galois_count(g_label, n_label) == expected
