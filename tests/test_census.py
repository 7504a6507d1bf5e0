"""The census must contain exactly one group per isomorphism class for orders 1..15.

Completeness is checked constructively: every group of order <= 15 is either
abelian, a semidirect product of an abelian group by a cyclic group, or Q8,
so sweeping those constructions and deduplicating must reproduce the census.
"""

from __future__ import annotations

import importlib

import pytest

from braceforge.census import (CENSUS_MAX_ORDER, CensusCapError, EXPECTED_COUNTS,
                               census, census_label, census_labels, census_lookup,
                               census_match,
                               label_or_unknown)
from braceforge.groups import (FiniteGroup, make_abelian, make_cyclic,
                               make_quaternion8, semidirect_product)
from braceforge.morphisms import are_isomorphic, automorphism_group, invariants
from braceforge.perms import identity_perm, perm_order

from oracles import oracle_check_isomorphism, oracle_label, transport

census_module = importlib.import_module("braceforge.census")  # the package exports census()


def test_expected_counts_per_order(census15):
    by_order: dict[int, int] = {}
    for e in census15:
        by_order[e.order] = by_order.get(e.order, 0) + 1
    assert by_order == EXPECTED_COUNTS


def test_entries_pairwise_non_isomorphic(census15):
    for i, a in enumerate(census15):
        for b in census15[i + 1:]:
            if a.order == b.order:
                assert are_isomorphic(a.group, b.group) is None, (a.label, b.label)


def test_labels_unique_and_attached(census15):
    labels = [e.label for e in census15]
    assert len(set(labels)) == len(labels)
    for e in census15:
        assert e.group.label == e.label


def test_census_max_order_filtering():
    assert [e.label for e in census(4)] == ["C1", "C2", "C3", "C4", "C2xC2"]
    assert len(census(1)) == 1
    with pytest.raises(CensusCapError):
        census(16)
    with pytest.raises(ValueError):
        census(0)


def test_census_lookup():
    assert census_lookup("Q8").order == 8
    with pytest.raises(KeyError, match="available"):
        census_lookup("Q16")


def test_census_labels_listing():
    labels = census_labels(6)
    assert labels == ["C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3"]


def test_census_label_identifies_up_to_isomorphism():
    d8 = census_lookup("D8")
    moved = transport(d8, (0, 3, 5, 7, 2, 4, 6, 1))
    assert census_label(moved) == "D8"
    assert census_label(make_abelian([2, 4])) == "C4xC2"


def _reversed(g: FiniteGroup) -> FiniteGroup:
    return transport(g, (0, *range(g.order - 1, 0, -1)), label=f"{g.label}-reversed")


def test_census_match_is_the_least_checked_isomorphism(census15, census_braces):
    groups = {b.circ for b in census_braces}
    groups |= {_reversed(g) for g in [*groups, *(e.group for e in census15)]}
    for g in groups:
        entry, f = census_match(g)
        assert census_label(g) == entry.label == oracle_label(g)
        oracle_check_isomorphism(g, entry.group, f)
        assert f == are_isomorphic(g, entry.group)


def test_census_match_searches_only_entries_with_equal_invariants(monkeypatch, census15):
    searched = []
    real = census_module.isomorphisms

    def recording(src, dst):
        searched.append(dst)
        return real(src, dst)
    monkeypatch.setattr(census_module, "isomorphisms", recording)
    for e in census15:
        g = _reversed(e.group)
        census_match.cache_clear()
        entry, _ = census_match(g)
        assert searched == [entry.group]
        assert invariants(g) == invariants(entry.group)
        searched.clear()


def test_label_or_unknown_above_cap():
    g = make_cyclic(16)
    assert census_label(g) is None
    assert label_or_unknown(g) == "unknown-order-16"
    assert label_or_unknown(census_lookup("A4")) == "A4"


def _partitions_into_prime_powers(n: int) -> list[list[int]]:
    """All multisets of integers > 1 with product n (cyclic factor sizes)."""
    if n == 1:
        return [[]]
    out = []
    def rec(rest: int, max_f: int, acc: list[int]):
        if rest == 1:
            out.append(list(acc))
            return
        for f in range(min(rest, max_f), 1, -1):
            if rest % f == 0:
                acc.append(f)
                rec(rest // f, f, acc)
                acc.pop()
    rec(n, n, [])
    return out


def _all_candidates(max_order: int) -> list[FiniteGroup]:
    """Abelian groups, abelian-by-cyclic semidirect products, and Q8."""
    cands: list[FiniteGroup] = []
    for n in range(1, max_order + 1):
        for factors in _partitions_into_prime_powers(n):
            cands.append(make_abelian(factors) if factors else make_cyclic(1))
    for a_order in range(1, max_order + 1):
        for factors in _partitions_into_prime_powers(a_order):
            a = make_abelian(factors) if factors else make_cyclic(1)
            auts = automorphism_group(a)
            for b_order in range(2, max_order // a_order + 1):
                # a homomorphism C_b -> Aut(A) is a choice of image for the
                # generator with order dividing b
                for alpha in auts:
                    if b_order % perm_order(alpha) != 0:
                        continue
                    action = [identity_perm(a_order)]
                    cur = alpha
                    for _ in range(b_order - 1):
                        action.append(cur)
                        cur = tuple(cur[i] for i in alpha)
                    cands.append(semidirect_product(a, make_cyclic(b_order), action))
    cands.append(make_quaternion8())
    return [g for g in cands if g.order <= max_order]


def test_census_is_complete_for_small_orders(census15):
    """Every candidate construction lands on a census entry, and the number of
    distinct classes found per order equals the census count."""
    cands = _all_candidates(CENSUS_MAX_ORDER)
    reps: dict[int, list[FiniteGroup]] = {}
    for g in cands:
        bucket = reps.setdefault(g.order, [])
        if not any(are_isomorphic(g, r) is not None for r in bucket):
            bucket.append(g)
    found_counts = {n: len(bucket) for n, bucket in reps.items()}
    assert found_counts == EXPECTED_COUNTS
    by_label = {e.label: e.group for e in census15}
    for n, bucket in reps.items():
        for g in bucket:
            assert census_label(g) in by_label
