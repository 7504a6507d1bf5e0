"""Finite groups as Cayley tables over element indices 0..n-1.

Conventions used throughout the package: elements of a group of order n are
the integers 0..n-1 and the identity is always index 0.  Tables are read as
table[a][b] = a*b.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .perms import compose, identity_perm, is_permutation


class CayleyTableError(ValueError):
    """A table fails one of the group axioms."""


class FiniteGroup:
    """A group on 0..n-1: its Cayley table, its inverses and a display label.

    Frozen.  Equality and hash cover `table` and `inv` only, so a relabelled
    group equals the original; an instance of another class is never equal.
    Written by hand rather than as a NamedTuple because the cached properties
    below need an instance `__dict__`.
    """

    def __init__(self, table: tuple[tuple[int, ...], ...], inv: tuple[int, ...],
                 label: str = "") -> None:
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign or delete field {name!r} of a frozen instance")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"FiniteGroup(table={self.table!r}, inv={self.inv!r}, label={self.label!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.table, self.inv) == (other.table, other.inv)

    def __hash__(self) -> int:
        return hash((self.table, self.inv))

    @classmethod
    def from_table(cls, rows: Sequence[Sequence[int]], label: str = "") -> "FiniteGroup":
        """Validate a Cayley table (identity 0, closure, associativity, inverses).

        Shape, range, identity and inverses are checked a whole table or a
        row at a time; only a table that fails is scanned entry by entry, so
        the error names the first bad entry.

        Associativity is Light's test (Clifford-Preston 1961, Sec. 1.2) on a
        generating set.  The set of b with (a*b)*c = a*(b*c) for all a, c is
        a submagma: for two such b, b' and any a, c,
        (a*(b*b'))*c = ((a*b)*b')*c = (a*b)*(b'*c) = a*(b*(b'*c)) = a*((b*b')*c).
        It holds the identity 0, so checking every b of a set that generates
        the table as a magma covers all b.  The greedy set
        ``generating_indices`` does: it adjoins each element outside the
        closure of {0} under right multiplication by the set so far, so
        every element is a product 0*g1*...*gm of generators, and computing
        it needs nothing but the (range-checked) table.  One b costs a row
        comparison per a, so the test is O(n^2 k) for k generators, and
        k <= log2 n for a group, whose closures are subgroups that each new
        generator at least doubles.  Only a failing table gets the full n^3
        scan, which names the first non-associative triple.  The set is kept
        as the group's ``generating_indices``.
        """
        n = len(rows)
        if n == 0:
            raise CayleyTableError("empty table")
        table = tuple(tuple(row) for row in rows)
        if ({*map(len, table)} != {n} or {*map(type, chain.from_iterable(table))} != {int}
                or not {*chain.from_iterable(table)} <= set(range(n))):
            for a, row in enumerate(table):
                if len(row) != n:
                    raise CayleyTableError(f"row {a} has length {len(row)}, expected {n}")
                for b, v in enumerate(row):
                    if type(v) is not int or not 0 <= v < n:
                        raise CayleyTableError(
                            f"entry table[{a}][{b}] = {v!r} out of range 0..{n - 1}")
        ident = tuple(range(n))
        if table[0] != ident or tuple(row[0] for row in table) != ident:
            for a in range(n):
                if table[0][a] != a or table[a][0] != a:
                    raise CayleyTableError(f"index 0 is not an identity at element {a}")
        inv = []
        for a, row in enumerate(table):
            b = row.index(0) if 0 in row else -1
            if b == -1 or table[b][a] != 0:
                raise CayleyTableError(f"element {a} has no two-sided inverse")
            inv.append(b)
        group = cls(table=table, inv=tuple(inv), label=label)
        if all(table[ra[b]] == compose(ra, table[b])
               for ra in table for b in group.generating_indices):
            return group
        for a, ra in enumerate(table):
            for b, rb in enumerate(table):
                rab = table[ra[b]]
                for c in range(n):
                    if rab[c] != ra[rb[c]]:
                        raise CayleyTableError(f"not associative at ({a}, {b}, {c})")
        raise AssertionError("a generator failed, so some triple fails")

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(len(self.table))

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        t, orders = self.table, []
        for a in self.elements():
            k, x = 1, a
            while x != 0:
                x, k = t[x][a], k + 1
            orders.append(k)
        return tuple(orders)

    @cached_property
    def generating_indices(self) -> tuple[int, ...]:
        """Greedy generating set: adjoin the least element outside the closure
        of {0} under right multiplication by the set so far.  Computed once
        per group, by from_table for the groups it builds."""
        gens: list[int] = []
        closed = {0}
        for a in self.elements():
            if a not in closed:
                gens.append(a)
                closed = {0}
                _close(self.table, closed, [0], gens)
                if len(closed) == self.order:
                    break
        return tuple(gens)

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))

    @cached_property
    def is_cyclic(self) -> bool:
        return self.order in self.element_orders

    @cached_property
    def center(self) -> tuple[int, ...]:
        """Elements commuting with every generator, which is O(n k).

        That is the center: the centralizer of a is a subgroup, so it holds
        every element once it holds a generating set.
        """
        t = self.table
        gens = self.generating_indices
        return tuple(a for a, row in enumerate(t) if all(row[g] == t[g][a] for g in gens))

    def opposite(self) -> "FiniteGroup":
        """Same elements with reversed multiplication (inverses are unchanged)."""
        n = self.order
        rows = tuple(tuple(self.table[b][a] for b in range(n)) for a in range(n))
        return FiniteGroup(table=rows, inv=self.inv, label=f"{self.label}^op")


def relabel(g: FiniteGroup, label: str) -> FiniteGroup:
    """A fresh group with g's table and inverses; no cached property carries over."""
    return FiniteGroup(g.table, g.inv, label)


def transport_table(t: Sequence[Sequence[int]], f: Sequence[int]) -> tuple[tuple[int, ...], ...]:
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


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n under addition mod n."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    rows = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    return FiniteGroup(table=rows, inv=inv, label=f"C{n}")


def make_abelian(factors: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups, encoded in mixed radix (first factor most significant)."""
    if not factors:
        raise ValueError("at least one factor required")
    g = make_cyclic(factors[0])
    for f in factors[1:]:
        g = direct_product(g, make_cyclic(f))
    return g


def direct_product(a: FiniteGroup, b: FiniteGroup, label: str = "") -> FiniteGroup:
    """Pairs (x, y) encoded as x * b.order + y: `semidirect_product` with the trivial action."""
    return semidirect_product(a, b, [identity_perm(a.order)] * b.order,
                              label=label or f"{a.label}x{b.label}")


def _dihedral_or_dicyclic(m: int, twist: int, label: str) -> FiniteGroup:
    """Order 2m: r^i s^j encoded as j*m + i, with r^m = 1, s r s^-1 = r^-1
    and s^2 = r^twist (twist 0 is dihedral, twist m/2 is dicyclic)."""
    rows = [[((j + l) % 2) * m + (i + (-k if j else k) + twist * j * l) % m
             for l in range(2) for k in range(m)]
            for j in range(2) for i in range(m)]
    return FiniteGroup.from_table(rows, label=label)


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order n (so D8 is the symmetries of a square).

    Degenerate low ends: D2 is C2 and D4 is C2xC2.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"dihedral order must be even and >= 2, got {n}")
    if n == 2:
        return make_cyclic(2)
    if n == 4:
        return make_abelian([2, 2])
    return _dihedral_or_dicyclic(n // 2, 0, f"D{n}")


def make_dicyclic(m: int) -> FiniteGroup:
    """Dicyclic group of order 4m: <a, b | a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1>."""
    if m < 2:
        raise ValueError(f"dicyclic parameter must be >= 2, got {m}")
    return _dihedral_or_dicyclic(2 * m, m, f"Dic{m}")


def make_quaternion8() -> FiniteGroup:
    """Quaternion group: s^i t^j with i in 0..3, j in 0..1, encoded as j*4 + i."""
    return relabel(make_dicyclic(2), "Q8")


def semidirect_product(n_grp: FiniteGroup, h_grp: FiniteGroup,
                       action: Sequence[Sequence[int]], label: str = "") -> FiniteGroup:
    """N x| H for a homomorphism H -> Aut(N) given as one permutation per H element.

    Pairs (x, y) are encoded as x * h_grp.order + y and multiply as
    (x1, y1)(x2, y2) = (x1 * action[y1](x2), y1 * y2).
    """
    nn, nh = n_grp.order, h_grp.order
    if len(action) != nh:
        raise ValueError(f"action must assign one map per H element, got {len(action)} for order {nh}")
    maps = [tuple(a) for a in action]
    for y, m in enumerate(maps):
        if len(m) != nn or not is_permutation(m):
            raise ValueError(f"action[{y}] is not a permutation of 0..{nn - 1}")
        for a in range(nn):
            for b in range(nn):
                if m[n_grp.table[a][b]] != n_grp.table[m[a]][m[b]]:
                    raise ValueError(f"action[{y}] is not an automorphism of N")
    for y1 in range(nh):
        for y2 in range(nh):
            if maps[h_grp.table[y1][y2]] != compose(maps[y1], maps[y2]):
                raise ValueError(f"action is not a homomorphism at H pair ({y1}, {y2})")
    n = nn * nh
    rows = [[0] * n for _ in range(n)]
    for x1 in range(nn):
        for y1 in range(nh):
            row = rows[x1 * nh + y1]
            act = maps[y1]
            for x2 in range(nn):
                nx = n_grp.table[x1][act[x2]]
                for y2 in range(nh):
                    row[x2 * nh + y2] = nx * nh + h_grp.table[y1][y2]
    return FiniteGroup.from_table(rows, label=label or f"{n_grp.label}x|{h_grp.label}")


def make_alternating4() -> FiniteGroup:
    """A4 as (C2xC2) x| C3, the 3-cycle permuting the three involutions."""
    v4 = make_abelian([2, 2])
    alpha = (0, 2, 3, 1)
    alpha2 = compose(alpha, alpha)
    return relabel(semidirect_product(v4, make_cyclic(3), [identity_perm(4), alpha, alpha2]), "A4")


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

def _close(t: tuple[tuple[int, ...], ...], members: set[int], frontier: list[int],
           gens: Sequence[int]) -> None:
    """Grow members until it is closed under right multiplication by gens.

    Only the frontier elements still need multiplying; members is updated in
    place.
    """
    while frontier:
        row = t[frontier.pop()]
        for s in gens:
            p = row[s]
            if p not in members:
                members.add(p)
                frontier.append(p)


def closure_of(g: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """Subgroup generated by the seed elements, as a sorted index tuple.

    {0} is closed under right multiplication by the seed, which gives every
    word in the seed elements.  In a finite group that is the whole subgroup
    they generate: each inverse is a positive power.
    """
    members = {0}
    _close(g.table, members, [0], tuple(dict.fromkeys(seed)))
    return tuple(sorted(members))


class Subgroup(NamedTuple):
    """The member indices, sorted, of a subgroup of the group that produced it."""
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


def _cyclic_generators(g: FiniteGroup) -> dict[frozenset[int], int]:
    """Each distinct nontrivial cyclic subgroup, as the powers of an element,
    mapped to its least generator."""
    t = g.table
    out: dict[frozenset[int], int] = {}
    for a in range(1, g.order):
        powers = {a}
        x = t[a][a]
        while x != a:
            powers.add(x)
            x = t[x][a]
        out.setdefault(frozenset(powers), a)
    return out


def _ordered(sets: Iterable[Iterable[int]]) -> list[Subgroup]:
    ordered = sorted((tuple(sorted(m)) for m in sets), key=lambda m: (len(m), m))
    return [Subgroup(m) for m in ordered]


def cyclic_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """The cyclic subgroups, the trivial one included, in (size, members) order."""
    return _ordered([(0,), *_cyclic_generators(g)])


def subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All subgroups in (size, members) order, built as joins of cyclic subgroups.

    The distinct cyclic subgroups are found once, as the powers of each
    element, keeping the least generator of each.  The lattice then grows
    from the trivial subgroup: each subgroup S found is joined with every
    cyclic subgroup <c> it does not contain, closing S under right
    multiplication by S's generators and c, and the joins are deduplicated by
    member set.

    Complete because every subgroup H is the join of its cyclic subgroups:
    from any S < H found so far, adjoining <a> for some a in H outside S gives
    a larger subgroup of H, so H is reached from 1.  Each join at least
    doubles the order, so a subgroup carries at most log2 |H| generators.
    """
    t = g.table
    cyclic = list(_cyclic_generators(g).values())
    trivial = frozenset((0,))
    found = {trivial}
    frontier: list[tuple[frozenset[int], tuple[int, ...]]] = [(trivial, ())]
    while frontier:
        base, gens = frontier.pop()
        for c in cyclic:
            if c in base:
                continue
            grown = gens + (c,)
            new = list({t[x][c] for x in base} - base)
            members = set(base).union(new)
            _close(t, members, new, grown)
            key = frozenset(members)
            if key not in found:
                found.add(key)
                frontier.append((key, grown))
    return _ordered(found)


def is_normal(g: FiniteGroup, s: Subgroup) -> bool:
    t, mset = g.table, set(s.members)
    return all(t[t[a][b]][g.inv[a]] in mset for a in g.elements() for b in s.members)
