"""Automorphism groups, isomorphism testing, characteristic subgroups."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .groups import FiniteGroup, Subgroup, subgroups
from .perms import Perm

Table = tuple[tuple[int, ...], ...]


def minimal_generating_indices(g: FiniteGroup) -> list[int]:
    """The group's cached greedy generating set (FiniteGroup.generating_indices)."""
    return list(g.generating_indices)


def propagate_partial_map(src: Table, dst: Table, part: list[int]) -> list[int] | None:
    """Close a partial map under products until stable.

    part[x] is the image of x or -1.  Returns the completed assignment, or None
    when some product forces a contradiction or a repeated image.
    """
    n = len(src)
    used: dict[int, int] = {}
    for i, v in enumerate(part):
        if v != -1:
            if v in used:
                return None
            used[v] = i
    changed = True
    while changed:
        changed = False
        dom = [i for i in range(n) if part[i] != -1]
        for x in dom:
            rx = src[x]
            dx = dst[part[x]]
            for y in dom:
                z = rx[y]
                w = dx[part[y]]
                pz = part[z]
                if pz == -1:
                    owner = used.get(w)
                    if owner is not None and owner != z:
                        return None
                    part[z] = w
                    used[w] = z
                    changed = True
                elif pz != w:
                    return None
    return part


def _search_homs(src: Table, dst: Table, gens: Sequence[int],
                 candidates: Sequence[Sequence[int]],
                 final_check: Callable[[list[int]], bool] | None,
                 first_only: bool) -> list[tuple[int, ...]]:
    """Backtrack over generator images; every total, consistent assignment is collected."""
    n = len(src)
    out: list[tuple[int, ...]] = []

    def rec(k: int, part: list[int]) -> bool:
        if k == len(gens):
            if any(v == -1 for v in part):
                return False
            if final_check is not None and not final_check(part):
                return False
            out.append(tuple(part))
            return True
        g = gens[k]
        for img in candidates[k]:
            prior = part[g]
            if prior != -1:
                if prior != img:
                    continue
                nxt = list(part)
            else:
                if img in part:
                    continue
                nxt = list(part)
                nxt[g] = img
            closed = propagate_partial_map(src, dst, nxt)
            if closed is None:
                continue
            if rec(k + 1, closed) and first_only:
                return True
        return False

    base = [-1] * n
    base[0] = 0
    rec(0, base)
    return out


@lru_cache(maxsize=None)
def automorphism_group(g: FiniteGroup) -> tuple[Perm, ...]:
    """All automorphisms as sorted maps, by backtracking over images of a
    minimal generating set.

    Candidate images are pruned by element order; partial maps are closed under
    products after each assignment, so contradictions are caught early.  The
    search yields every automorphism, so no closure step follows.
    """
    gens = g.generating_indices
    orders = g.element_orders
    candidates = [[b for b in g.elements() if orders[b] == orders[gen]] for gen in gens]
    maps = _search_homs(g.table, g.table, gens, candidates, None, first_only=False)
    return tuple(sorted(maps))


@dataclass(frozen=True)
class Isomorphism:
    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.map
        if m[0] != 0 or sorted(m) != list(range(len(m))):
            raise ValueError("isomorphism map must be a bijection fixing 0")
        for a in self.source.elements():
            for b in self.source.elements():
                if m[self.source.table[a][b]] != self.target.table[m[a]][m[b]]:
                    raise ValueError(f"map is not multiplicative at ({a}, {b})")


def are_isomorphic(a: FiniteGroup, b: FiniteGroup) -> Isomorphism | None:
    """First isomorphism found, or None.  Cheap invariants prune most mismatches."""
    if a.order != b.order:
        return None
    if sorted(a.element_orders) != sorted(b.element_orders):
        return None
    if len(a.center) != len(b.center):
        return None
    gens = a.generating_indices
    orders_b = b.element_orders
    candidates = [[y for y in b.elements() if orders_b[y] == a.element_orders[gen]] for gen in gens]
    maps = _search_homs(a.table, b.table, gens, candidates, None, first_only=True)
    if not maps:
        return None
    return Isomorphism(source=a, target=b, map=maps[0])


def characteristic_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Subgroups mapped onto themselves by every automorphism."""
    auts = automorphism_group(g)
    out = []
    for s in subgroups(g):
        mset = set(s.members)
        if all(all(alpha[m] in mset for m in s.members) for alpha in auts):
            out.append(s)
    return out
