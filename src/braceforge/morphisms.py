"""Automorphism groups and isomorphism testing.

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

By Lemma 1 every map returned here is an isomorphism as it stands, so no
function here checks one again; the tests check each map over all n^2
products.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .groups import FiniteGroup
from .perms import Perm


def isomorphisms(src: FiniteGroup, dst: FiniteGroup) -> Iterator[tuple[int, ...]]:
    """Every isomorphism src -> dst, in increasing order (Lemma 2).

    The images tried for each of src.generating_indices are the dst elements
    of the same element order, in increasing order.  After each image is
    chosen, {0} is walked along right multiplication by the generators
    chosen so far, and the branch is pruned on a clash (f(x*g) already set
    to something else) or a repeated image.  A walk over all generators
    reaches every element and checks every edge, so by Lemma 1 each map it
    completes is an isomorphism.
    """
    n = src.order
    if dst.order != n:
        return
    gens = src.generating_indices
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


# One entry: every caller reuses Aut(N) right after building it (the search,
# then the orbit walk of `reduce_up_to_iso`, which `with_mult_types` runs
# first), and an unbounded memo would keep every group it saw alive, with all
# 20,160 maps of C2^4.
@lru_cache(maxsize=1)
def automorphism_group(g: FiniteGroup) -> tuple[Perm, ...]:
    """All automorphisms as maps, sorted; `isomorphisms` finds them in order."""
    return tuple(isomorphisms(g, g))


def invariants(g: FiniteGroup) -> tuple[int, tuple[int, ...], int]:
    """Cheap isomorphism invariants: order, element-order multiset, center size."""
    return g.order, tuple(sorted(g.element_orders)), len(g.center)


def are_isomorphic(a: FiniteGroup, b: FiniteGroup) -> tuple[int, ...] | None:
    """The least isomorphism a -> b as a map, or None.

    Unequal `invariants` prune most mismatches.  The map is the first one
    `isomorphisms` yields, whose walk has proved it multiplicative (Lemma 1),
    so it is returned as it is.
    """
    if invariants(a) != invariants(b):
        return None
    return next(isomorphisms(a, b), None)
