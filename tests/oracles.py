"""Brute-force reference implementations used to cross-check the fast paths.

Everything here trades speed for obviousness: subsets are tested directly,
subgroups are grown one element at a time, bijections are tried exhaustively
or searched pair by pair.  Keep the inputs small.

Two helpers are not oracles but live here because only tests need them: the
pairwise brace-isomorphism search `brace_isomorphic`, against which the
Aut-orbit reduction of `reduce_up_to_iso` is checked, and the relabelling
helpers `transport_table` and `transport`, which carry a table or a group
along a bijection.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from braceforge.braces import (BraceRelationError, BraceValidationError, SkewBrace,
                               gamma, left_ideal_status, validate)
from braceforge.census import CENSUS_MAX_ORDER, CensusCapError, census
from braceforge.classify import Witness
from braceforge.groups import CayleyTableError, FiniteGroup, subgroups
from braceforge.morphisms import are_isomorphic, automorphism_group, isomorphisms
from braceforge.perms import Perm, compose, identity_perm, is_permutation, perm_order
from braceforge.report import HGDescriptor

ORACLE_MAX_ORDER = 6

Table = tuple[tuple[int, ...], ...]


def transport_table(t: Sequence[Sequence[int]], f: Sequence[int]) -> Table:
    """The table t carried along the bijection f: row f[a], column f[b] holds f[t[a][b]]."""
    n = len(t)
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        row, ta = rows[f[a]], t[a]
        for b in range(n):
            row[f[b]] = f[ta[b]]
    return tuple(map(tuple, rows))


def transport(g: FiniteGroup, bij: Sequence[int], label: str = "") -> FiniteGroup:
    """Carry the group structure along a bijection with bij[0] == 0."""
    if len(bij) != g.order or not is_permutation(bij):
        raise ValueError("transport map must be a permutation of the element indices")
    if bij[0] != 0:
        raise ValueError("transport map must fix the identity index 0")
    return FiniteGroup.from_table(transport_table(g.table, bij), label=label or f"{g.label}~")


def brace_isomorphic(x: SkewBrace, y: SkewBrace) -> tuple[int, ...] | None:
    """The least bijection fixing 0 preserving both tables, or None.

    Of the dot-isomorphisms, in increasing order, the first that also agrees
    on every circ edge (a, g), for g a circ-generator, preserves circ too
    (the walk lemma of `braceforge.morphisms`).
    """
    xc, yc = x.circ.table, y.circ.table
    cgens = x.circ.generating_indices
    return next((f for f in isomorphisms(x.dot, y.dot)
                 if all(f[xc[a][g]] == yc[f[a]][f[g]] for a in range(x.order) for g in cgens)),
                None)


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


def oracle_check_isomorphism(src: FiniteGroup, dst: FiniteGroup, f: Sequence[int]) -> None:
    """Raise ValueError unless f is an isomorphism src -> dst, checked on all n^2 products."""
    if len(f) != src.order or len(f) != dst.order:
        raise ValueError(f"isomorphism map has {len(f)} entries between groups of "
                         f"order {src.order} and {dst.order}")
    if f[0] != 0 or sorted(f) != list(range(len(f))):
        raise ValueError("isomorphism map must be a bijection fixing 0")
    for a in src.elements():
        for b in src.elements():
            if f[src.table[a][b]] != dst.table[f[a]][f[b]]:
                raise ValueError(f"map is not multiplicative at ({a}, {b})")


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


def oracle_orbit_partition(ops: list[SkewBrace]) -> tuple[tuple[int, ...], ...]:
    """Aut-orbits of circ tables over one additive group, each table carried
    along every automorphism as a whole n x n table."""
    tables = [b.circ.table for b in ops]
    index_of = {t: i for i, t in enumerate(tables)}
    seen: set[int] = set()
    classes = []
    for i, t in enumerate(tables):
        if i not in seen:
            orbit = {index_of[transport_table(t, alpha)]
                     for alpha in automorphism_group(ops[0].dot)}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def oracle_center(g: FiniteGroup) -> tuple[int, ...]:
    """Elements commuting with every element."""
    t = g.table
    return tuple(a for a in g.elements() if all(t[a][b] == t[b][a] for b in g.elements()))


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


def oracle_regular_subgroup_tables(g: FiniteGroup) -> Iterator[Table]:
    """The holomorph search as it stood before the clash pre-check: every
    extension attempt builds the full pending list and copies the slots, and
    only the closure rejects a clashing candidate."""
    n = g.order
    gens = g.generating_indices
    ident = identity_perm(n)
    auts = automorphism_group(g)
    buckets: list[list[Perm] | None] = [None] * n

    def bucket(t: int) -> list[Perm]:
        # built when the search first picks slot t, then kept; slot 0 is never
        # picked, since a second point-0 element collides with the identity
        found = buckets[t]
        if found is None:
            found = []
            for alpha in auts:
                p = compose(g.table[t], alpha)
                # only the identity of a regular subgroup fixes a point
                if all(map(int.__ne__, p, ident)) and n % perm_order(p) == 0:
                    found.append(p)
            found.sort()
            buckets[t] = found
        return found

    def try_extend(cov: list[Perm | None], chosen: tuple[Perm, ...]) -> list[Perm | None] | None:
        # the subgroup so far is closed under every chosen element but the
        # last, h; adding h closes it under right multiplication by all of them
        h = chosen[-1]
        pending = [(x, h) for x in cov if x is not None] + [(h, s) for s in chosen]
        cov = list(cov)
        cov[h[0]] = h
        while pending:  # newest products first, so a clash shows early
            u, v = pending.pop()
            w = cov[u[v[0]]]
            if w is None:
                w = compose(u, v)
                cov[w[0]] = w
                pending += [(w, s) for s in chosen]
            # the images of 0 and of the generators fix a holomorph element
            elif any(u[v[k]] != w[k] for k in gens):
                return None
        if n % (n - cov.count(None)) != 0:  # Lagrange
            return None
        return cov

    # Two tables first differ at a chosen slot, which is the least empty one,
    # and each bucket is sorted, so the tables come out sorted and distinct.
    def search(cov: list[Perm | None], chosen: tuple[Perm, ...]) -> Iterator[Table]:
        if None not in cov:
            yield tuple(cov)
            return
        for h in bucket(cov.index(None)):
            grown = chosen + (h,)
            ext = try_extend(cov, grown)
            if ext is not None:
                yield from search(ext, grown)

    yield from search([ident] + [None] * (n - 1), ())


def oracle_conjugacy_classes(g: FiniteGroup) -> list[tuple[int, ...]]:
    n, t = g.order, g.table
    seen = [False] * n
    classes = []
    for a in range(n):
        if seen[a]:
            continue
        cls = {t[t[x][a]][g.inv[x]] for x in range(n)}
        for b in cls:
            seen[b] = True
        classes.append(tuple(sorted(cls)))
    return sorted(classes)


def oracle_order_of(g: FiniteGroup, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x = g.table[x][a]
        k += 1
    return k


def oracle_from_table(rows, label: str = "") -> FiniteGroup:
    """Entry-by-entry table check, ending with associativity over all n^3 triples."""
    n = len(rows)
    if n == 0:
        raise CayleyTableError("empty table")
    table = tuple(tuple(row) for row in rows)
    for a, row in enumerate(table):
        if len(row) != n:
            raise CayleyTableError(f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise CayleyTableError(f"entry table[{a}][{b}] = {v!r} out of range 0..{n - 1}")
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise CayleyTableError(f"index 0 is not an identity at element {a}")
    inv = [-1] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == 0:
                inv[a] = b
                break
        if inv[a] == -1 or table[inv[a]][a] != 0:
            raise CayleyTableError(f"element {a} has no two-sided inverse")
    for a in range(n):
        ra = table[a]
        for b in range(n):
            rab = table[ra[b]]
            rb = table[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    raise CayleyTableError(f"not associative at ({a}, {b}, {c})")
    return FiniteGroup(table=table, inv=tuple(inv), label=label)


def oracle_validate(dot: FiniteGroup, circ: FiniteGroup, label: str = "") -> SkewBrace:
    """The compatibility relation over all n^3 triples; the first failure is reported."""
    n = dot.order
    if circ.order != n:
        raise BraceValidationError(f"order mismatch: dot has {n}, circ has {circ.order}")
    dt = dot.table
    ct = circ.table
    inv = dot.inv
    for a in range(n):
        ca = ct[a]
        ia = inv[a]
        left = [dt[ca[b]][ia] for b in range(n)]
        for b in range(n):
            db = dt[b]
            lb = dt[left[b]]
            for c in range(n):
                if ca[db[c]] != lb[ca[c]]:
                    raise BraceRelationError(a, b, c)
    return SkewBrace(dot=dot, circ=circ, label=label or f"({dot.label}, {circ.label})")


def oracle_generating_indices(g: FiniteGroup) -> tuple[int, ...]:
    """The greedy generating set by its first definition: adjoin the least
    element outside the subgroup generated by the set so far."""
    gens: list[int] = []
    closed = {0}
    for a in g.elements():
        if a not in closed:
            gens.append(a)
            closed = set(oracle_closure_of(g, gens))
            if len(closed) == g.order:
                break
    return tuple(gens)


def oracle_search_slots(g: FiniteGroup) -> set[int]:
    """The slots the regular-subgroup search picks.

    A search node is a subgroup H of the holomorph with one element per slot
    (image of 0) it covers.  Unless H covers every slot, the search picks the
    least slot outside it and, for every holomorph element h there that fixes
    no point and whose order divides n, goes on to the subgroup generated by H
    and h if that again has one element per covered slot and an order
    dividing n.  Subgroups are generated here as plain sets of permutations.
    """
    n = g.order
    ident = tuple(range(n))
    hol = [tuple(g.table[t][alpha[x]] for x in range(n))
           for t in range(1, n) for alpha in automorphism_group(g)]

    def order(p):
        k, q = 1, p
        while q != ident:
            q = tuple(p[x] for x in q)
            k += 1
        return k

    def generated(gens):
        members, frontier = {ident}, [ident]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = tuple(x[v] for v in s)
                if y not in members:
                    if len(members) == n:  # more elements than slots
                        return None
                    members.add(y)
                    frontier.append(y)
        return members

    picked: set[int] = set()

    def grow(sub):
        covered = {p[0] for p in sub}
        if len(covered) == n:
            return
        slot = min(set(range(n)) - covered)
        picked.add(slot)
        for h in hol:
            if h[0] != slot or any(h[x] == x for x in range(n)) or n % order(h):
                continue
            bigger = generated(list(sub) + [h])
            if (bigger is not None and len({p[0] for p in bigger}) == len(bigger)
                    and n % len(bigger) == 0):
                grow(bigger)

    grow({ident})
    return picked


def oracle_label(g: FiniteGroup) -> str:
    """The first census entry `are_isomorphic` matches, its map checked over
    all n^2 products, else unknown."""
    if g.order <= CENSUS_MAX_ORDER:
        for e in census():
            f = are_isomorphic(g, e.group)
            if f is not None:
                oracle_check_isomorphism(g, e.group, f)
                return e.label
    return f"unknown-order-{g.order}"


def oracle_gamma_orbits(b: SkewBrace) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by the gamma maps, by breadth-first search."""
    maps = gamma(b).maps
    seen: set[int] = set()
    orbits = []
    for start in range(b.order):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for m in maps:
                if m[x] not in orbit:
                    orbit.add(m[x])
                    frontier.append(m[x])
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


def oracle_is_almost_trivial(b: SkewBrace) -> bool:
    """circ is the opposite of dot, entry by entry: a o b == b . a."""
    n = b.order
    return all(b.circ.table[a][c] == b.dot.table[c][a] for a in range(n) for c in range(n))


def oracle_hg_descriptor(b: SkewBrace) -> HGDescriptor:
    """The descriptor from the circ group's own lattice, the exact left-ideal
    scan on every node, and breadth-first gamma orbits."""
    entries = [left_ideal_status(b, s.members) for s in subgroups(b.circ)]
    return HGDescriptor(type_label=oracle_label(b.dot), galois_label=oracle_label(b.circ),
                        gamma_orbits=oracle_gamma_orbits(b), lattice=tuple(entries),
                        bijective=all(e.is_left_ideal for e in entries),
                        classical=b.is_trivial,
                        canonical_nonclassical=oracle_is_almost_trivial(b))


def oracle_render_dot(d: HGDescriptor) -> str:
    """The DOT Hasse diagram with covers by definition: an edge i -> j for every
    pair of nodes with i strictly inside j and no third node strictly
    between them, found by testing every k, in (i, j) order."""
    nodes = [set(e.members) for e in d.lattice]
    lines = ["digraph hg_lattice {", "  rankdir=BT;"]
    for i, e in enumerate(d.lattice):
        label = "{" + ",".join(str(m) for m in e.members) + "}"
        style = "solid" if e.is_left_ideal else "dashed"
        lines.append(f'  n{i} [label="{label}" style={style}];')
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if i == j or not a < b:
                continue
            if any(k != i and k != j and a < nodes[k] < b for k in range(len(nodes))):
                continue
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_first_failure(b: SkewBrace) -> Witness | None:
    """The exact left-ideal scan over the whole circ lattice, in (size,
    members) order, stopping at the first circ-subgroup that fails."""
    for s in subgroups(b.circ):
        flag = left_ideal_status(b, s.members)
        if not flag.is_left_ideal:
            return Witness(brace=b, subgroup=flag.members,
                           failing=flag.failing_pair, kind=flag.failure_kind)
    return None
