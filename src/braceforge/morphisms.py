"""Automorphism groups, isomorphism testing, characteristic subgroups.

Every search here goes through `isomorphisms`, which chooses images for the
greedy generating set g1 < ... < gk of the source and walks the Cayley graph
along the edges (x, g) -> x*g, setting f(x*g) = f(x)*f(g).

Lemma 1 (the walk checks the map).  If a bijection f with f(0) = 0 agrees on
every edge (x, g) for x in the group and g a generator, it is multiplicative:
f(x*y) = f(x)*f(y) by induction on the length of y as a word in the
generators, since f(x*w*g) = f(x*w)*f(g) = f(x)*f(w)*f(g) = f(x)*f(w*g).

Lemma 2 (the search is ordered).  The greedy set adjoins the least element
outside the span of the generators before it, so every element below g(j+1)
lies in the span of g1..gj, where the images of g1..gj fix f.  Two maps whose
generator images first differ at gj therefore agree below gj and first differ
at gj, so trying generator images in increasing order yields the maps in
increasing order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .groups import FiniteGroup, Subgroup, subgroups
from .perms import Perm


def isomorphisms(src: FiniteGroup, dst: FiniteGroup,
                 candidates: Sequence[Sequence[int]] | None = None) -> Iterator[tuple[int, ...]]:
    """Every isomorphism src -> dst, in increasing order (Lemma 2).

    candidates[k] lists the images to try for src.generating_indices[k], in
    increasing order; by default the dst elements of the same element order.
    After each image is chosen, {0} is walked along right multiplication by
    the generators chosen so far, and the branch is pruned on a clash
    (f(x*g) already set to something else) or a repeated image.  A walk over
    all generators reaches every element and checks every edge, so by
    Lemma 1 each map it completes is an isomorphism.
    """
    n = src.order
    if dst.order != n:
        return
    gens = src.generating_indices
    if candidates is None:
        so, do = src.element_orders, dst.element_orders
        candidates = [[y for y in dst.elements() if do[y] == so[g]] for g in gens]
    st, dt = src.table, dst.table

    def search(imgs: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        f = [-1] * n
        f[0] = 0
        used = [False] * n
        used[0] = True
        edges = tuple(zip(gens, imgs))
        reached = [0]
        for x in reached:  # grows while it is read
            sx, fx = st[x], dt[f[x]]
            for g, h in edges:
                z, w = sx[g], fx[h]
                if f[z] == -1:
                    if used[w]:
                        return
                    f[z] = w
                    used[w] = True
                    reached.append(z)
                elif f[z] != w:
                    return
        if len(imgs) == len(gens):
            yield tuple(f)
            return
        for h in candidates[len(imgs)]:
            yield from search(imgs + (h,))

    yield from search(())


@lru_cache(maxsize=None)
def automorphism_group(g: FiniteGroup) -> tuple[Perm, ...]:
    """All automorphisms as maps, sorted; `isomorphisms` finds them in order."""
    return tuple(isomorphisms(g, g))


class Isomorphism:
    """A map between two groups, checked to be an isomorphism when built.

    Frozen.  Equality and hash cover `source`, `target` and `map`; an
    instance of another class is never equal.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, map: tuple[int, ...]) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "map", map)
        self.__post_init__()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign or delete field {name!r} of a frozen instance")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return (f"Isomorphism(source={self.source!r}, target={self.target!r}, "
                f"map={self.map!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.map) == (other.source, other.target, other.map)

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.map))

    def __post_init__(self) -> None:
        m = self.map
        if m[0] != 0 or sorted(m) != list(range(len(m))):
            raise ValueError("isomorphism map must be a bijection fixing 0")
        for a in self.source.elements():
            for b in self.source.elements():
                if m[self.source.table[a][b]] != self.target.table[m[a]][m[b]]:
                    raise ValueError(f"map is not multiplicative at ({a}, {b})")


def invariants(g: FiniteGroup) -> tuple[int, tuple[int, ...], int]:
    """Cheap isomorphism invariants: order, element-order multiset, center size."""
    return g.order, tuple(sorted(g.element_orders)), len(g.center)


def are_isomorphic(a: FiniteGroup, b: FiniteGroup) -> Isomorphism | None:
    """The least isomorphism, checked, or None.  Unequal `invariants` prune most mismatches."""
    if invariants(a) != invariants(b):
        return None
    f = next(isomorphisms(a, b), None)
    return None if f is None else Isomorphism(source=a, target=b, map=f)


def characteristic_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Subgroups mapped onto themselves by every automorphism."""
    auts = automorphism_group(g)
    out = []
    for s in subgroups(g):
        mset = set(s.members)
        if all(all(alpha[m] in mset for m in s.members) for alpha in auts):
            out.append(s)
    return out
