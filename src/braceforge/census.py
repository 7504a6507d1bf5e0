"""One group per isomorphism class for every order up to 15."""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .groups import (FiniteGroup, make_abelian, make_alternating4, make_cyclic,
                     make_dicyclic, make_dihedral, make_quaternion8, relabel)
from .morphisms import invariants, isomorphisms

CENSUS_MAX_ORDER = 15

# Known class counts for orders 1..15.
EXPECTED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
                   9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1}


class CensusCapError(ValueError):
    """Requested order exceeds the supported census range."""


class CensusEntry(NamedTuple):
    order: int
    label: str
    group: FiniteGroup


@lru_cache(maxsize=1)
def _full_census() -> tuple[CensusEntry, ...]:
    groups: list[FiniteGroup] = [
        make_cyclic(1),
        make_cyclic(2),
        make_cyclic(3),
        make_cyclic(4), make_abelian([2, 2]),
        make_cyclic(5),
        make_cyclic(6), relabel(make_dihedral(6), "S3"),
        make_cyclic(7),
        make_cyclic(8), make_abelian([4, 2]), make_abelian([2, 2, 2]),
        make_dihedral(8), make_quaternion8(),
        make_cyclic(9), make_abelian([3, 3]),
        make_cyclic(10), make_dihedral(10),
        make_cyclic(11),
        make_cyclic(12), make_abelian([6, 2]), make_dihedral(12),
        make_alternating4(), make_dicyclic(3),
        make_cyclic(13),
        make_cyclic(14), make_dihedral(14),
        make_cyclic(15),
    ]
    return tuple(CensusEntry(order=g.order, label=g.label, group=g) for g in groups)


def census(max_order: int = CENSUS_MAX_ORDER) -> list[CensusEntry]:
    """Census entries of order <= max_order, ordered by (order, construction order)."""
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    if max_order > CENSUS_MAX_ORDER:
        raise CensusCapError(f"census is capped at order {CENSUS_MAX_ORDER}, got {max_order}")
    return [e for e in _full_census() if e.order <= max_order]


def census_labels(max_order: int = CENSUS_MAX_ORDER) -> list[str]:
    return [e.label for e in census(max_order)]


def census_lookup(label: str) -> FiniteGroup:
    for e in _full_census():
        if e.label == label:
            return e.group
    raise KeyError(f"unknown group label {label!r}; available: {', '.join(census_labels())}")


@lru_cache(maxsize=1)
def _entries_by_invariants() -> dict[tuple, tuple[CensusEntry, ...]]:
    """Census entries keyed by `morphisms.invariants`, in census order."""
    index: dict[tuple, tuple[CensusEntry, ...]] = {}
    for e in _full_census():
        key = invariants(e.group)
        index[key] = index.get(key, ()) + (e,)
    return index


@lru_cache(maxsize=None)
def census_match(g: FiniteGroup) -> tuple[CensusEntry, tuple[int, ...]] | None:
    """The census entry isomorphic to g with the least isomorphism f: g -> entry.group,
    or None above the cap.

    Only the census entries with g's `invariants` are candidates, found by one
    lookup; the isomorphism search against them is the proof.  f is the
    first map `isomorphisms` yields, the same map `are_isomorphic` returns.
    It is returned raw: the Cayley-graph walk that built it has already
    proved it multiplicative (Lemma 1 of `morphisms`).  Callers that need
    more than the label use f to carry structure over from the
    representative, which is computed once per census entry instead of once
    per group.
    """
    if g.order > CENSUS_MAX_ORDER:
        return None
    for e in _entries_by_invariants().get(invariants(g), ()):
        f = next(isomorphisms(g, e.group), None)
        if f is not None:
            return e, f
    return None


@lru_cache(maxsize=None)
def census_label(g: FiniteGroup) -> str | None:
    """Label of the census entry isomorphic to g, or None above the cap.

    Memoized apart from `census_match` so that `cache_info()` counts the
    distinct groups labelled.
    """
    match = census_match(g)
    return None if match is None else match[0].label


def label_or_unknown(g: FiniteGroup) -> str:
    found = census_label(g)
    return found if found is not None else f"unknown-order-{g.order}"
