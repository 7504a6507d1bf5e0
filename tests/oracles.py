"""Brute-force reference implementations used to cross-check the fast paths.

Everything here trades speed for obviousness: subsets are tested directly,
subgroups are grown one element at a time, bijections are tried exhaustively
or searched pair by pair.  Keep the inputs small.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable

from braceforge.braces import (BraceValidationError, SkewBrace, brace_isomorphic,
                               validate)
from braceforge.census import CensusCapError, census
from braceforge.groups import FiniteGroup

ORACLE_MAX_ORDER = 6

Table = tuple[tuple[int, ...], ...]


def oracle_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subset containing 0 of divisor size that is closed under the table."""
    n = g.order
    out = []
    for d in range(1, n + 1):
        if n % d != 0:
            continue
        for rest in combinations(range(1, n), d - 1):
            ms = (0,) + rest
            mset = set(ms)
            if all(g.table[a][b] in mset for a in ms for b in ms):
                out.append(ms)
    return sorted(out, key=lambda m: (len(m), m))


def oracle_closure_of(g: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """Close seed and 0 under products in both orders until nothing new appears."""
    members = {0}
    members.update(seed)
    frontier = list(members)
    t = g.table
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(members):
                for p in (t[x][y], t[y][x]):
                    if p not in members:
                        members.add(p)
                        nxt.append(p)
        frontier = nxt
    return tuple(sorted(members))


def oracle_layered_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Closure layering: extend each known subgroup by every element outside it."""
    trivial = (0,)
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for base in frontier:
            bset = set(base)
            for a in g.elements():
                if a in bset:
                    continue
                closed = oracle_closure_of(g, base + (a,))
                if closed not in found:
                    found.add(closed)
                    nxt.append(closed)
        frontier = nxt
    return sorted(found, key=lambda m: (len(m), m))


def oracle_automorphisms(g: FiniteGroup) -> list[tuple[int, ...]]:
    n = g.order
    t = g.table
    out = []
    for rest in permutations(range(1, n)):
        f = (0,) + rest
        if all(f[t[a][b]] == t[f[a]][f[b]] for a in range(n) for b in range(n)):
            out.append(f)
    return sorted(out)


def oracle_brace_isomorphic(x: SkewBrace, y: SkewBrace) -> bool:
    """Try every identity-fixing bijection against both tables at once."""
    n = x.order
    if y.order != n:
        return False
    xd, xc = x.dot.table, x.circ.table
    yd, yc = y.dot.table, y.circ.table
    for rest in permutations(range(1, n)):
        f = (0,) + rest
        if all(f[xd[a][b]] == yd[f[a]][f[b]] and f[xc[a][b]] == yc[f[a]][f[b]]
               for a in range(n) for b in range(n)):
            return True
    return False


def oracle_iso_partition(ops: list[SkewBrace]) -> tuple[tuple[int, ...], ...]:
    """Isomorphism classes by pairwise bijection search: each brace joins the
    first class whose representative it is isomorphic to."""
    classes: list[list[int]] = []
    for i, b in enumerate(ops):
        for cls in classes:
            if brace_isomorphic(ops[cls[0]], b) is not None:
                cls.append(i)
                break
        else:
            classes.append([i])
    return tuple(sorted(tuple(c) for c in classes))


def oracle_enumerate_circ(additive: FiniteGroup) -> list[Table]:
    """Transport every census table of the same order through every
    identity-fixing bijection and keep what validates."""
    n = additive.order
    if n > ORACLE_MAX_ORDER:
        raise CensusCapError(f"oracle enumeration is capped at order {ORACLE_MAX_ORDER}")
    out: set[Table] = set()
    for entry in census(ORACLE_MAX_ORDER):
        if entry.order != n:
            continue
        mt = entry.group.table
        for rest in permutations(range(1, n)):
            f = (0,) + rest
            finv = [0] * n
            for i, v in enumerate(f):
                finv[v] = i
            t = tuple(tuple(f[mt[finv[a]][finv[b]]] for b in range(n)) for a in range(n))
            if t in out:
                continue
            try:
                validate(additive, FiniteGroup.from_table(t))
            except BraceValidationError:
                continue
            out.add(t)
    return sorted(out)


def oracle_conjugacy_classes(g: FiniteGroup) -> list[tuple[int, ...]]:
    n = g.order
    seen = [False] * n
    classes = []
    for a in range(n):
        if seen[a]:
            continue
        cls = {g.conjugate(x, a) for x in range(n)}
        for b in cls:
            seen[b] = True
        classes.append(tuple(sorted(cls)))
    return sorted(classes)


def oracle_element_order(g: FiniteGroup, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x = g.table[x][a]
        k += 1
    return k
