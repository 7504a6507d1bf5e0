"""Skew braces: two group tables on the same indices tied by the compatibility relation.

A pair (dot, circ) of groups on 0..n-1 with shared identity 0 is a skew brace
when a o (b . c) = (a o b) . a^-1 . (a o c) for all a, b, c, where o is circ
and . is dot.  Everything downstream (gamma maps, left ideals) lives here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .groups import FiniteGroup, Subgroup, subgroups
from .morphisms import isomorphisms
from .perms import Perm, compose


class BraceValidationError(ValueError):
    pass


class BraceRelationError(BraceValidationError):
    """The compatibility relation fails; carries the first violating triple."""

    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"compatibility fails at (a, b, c) = ({a}, {b}, {c})")


class SkewBrace:
    """The pair (dot, circ) of group tables on the same indices, and a label.

    Frozen.  Equality and hash cover `dot` and `circ`, that is their tables
    and inverses; `label` is a name only, and an instance of another class is
    never equal.
    """

    def __init__(self, dot: FiniteGroup, circ: FiniteGroup, label: str = "") -> None:
        object.__setattr__(self, "dot", dot)
        object.__setattr__(self, "circ", circ)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign or delete field {name!r} of a frozen instance")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"SkewBrace(dot={self.dot!r}, circ={self.circ!r}, label={self.label!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dot, self.circ) == (other.dot, other.circ)

    def __hash__(self) -> int:
        return hash((self.dot, self.circ))

    @property
    def order(self) -> int:
        return self.dot.order

    @property
    def is_trivial(self) -> bool:
        return self.circ.table == self.dot.table

    @property
    def is_almost_trivial(self) -> bool:
        n = self.order
        return all(self.circ.table[a][b] == self.dot.table[b][a]
                   for a in range(n) for b in range(n))


def validate(dot: FiniteGroup, circ: FiniteGroup, label: str = "") -> SkewBrace:
    """Check the compatibility relation; report the first failing triple.

    With lambda_a(x) = a^-1 . (a o x), the relation at (a, b, c) reads
    lambda_a(b . c) = lambda_a(b) . lambda_a(c), so it says that every
    lambda_a is a dot-homomorphism (Guarnieri-Vendramin 2017, Prop. 1.9).
    Fix a and call b good when the relation holds for every c.  If g and b
    are good, so is g . b:
    lambda_a(g . b . c) = lambda_a(g) . lambda_a(b . c)
    = lambda_a(g) . lambda_a(b) . lambda_a(c) = lambda_a(g . b) . lambda_a(c).
    The empty word 0 is good exactly when lambda_a(0) = 0, and a good g
    gives that at c = 0: lambda_a(g) = lambda_a(g) . lambda_a(0).  (With
    n = 1 there is no generator, and the one entry is 0.)  Every element is
    a word in the dot-generators, so by induction on word length it is
    enough to check each dot-generator g, by one row comparison of
    c -> a o (g . c) against c -> (a o g) . a^-1 . (a o c).  That is
    O(n^2 k) for k <= log2 n generators.

    Only an a whose check fails has all its (b, c) scanned, in order.  A
    failing generator g is a failing triple (a, g, c), so the scan always
    finds one, and the first it finds is the first in lexicographic order.
    dot must be a group; circ may be any table of the same order with
    entries in range.
    """
    n = dot.order
    if circ.order != n:
        raise BraceValidationError(f"order mismatch: dot has {n}, circ has {circ.order}")
    dt = dot.table
    ct = circ.table
    inv = dot.inv
    gens = dot.generating_indices
    for a in range(n):
        ca = ct[a]
        ia = inv[a]
        if all(compose(ca, dt[g]) == compose(dt[dt[ca[g]][ia]], ca) for g in gens):
            continue
        for b in range(n):
            db = dt[b]
            lb = dt[dt[ca[b]][ia]]  # (a o b) . a^-1
            for c in range(n):
                if ca[db[c]] != lb[ca[c]]:
                    raise BraceRelationError(a, b, c)
    return SkewBrace(dot=dot, circ=circ, label=label or f"({dot.label}, {circ.label})")


def trivial(g: FiniteGroup) -> SkewBrace:
    """circ = dot."""
    return validate(g, g, label=f"trivial({g.label})")


def almost_trivial(g: FiniteGroup) -> SkewBrace:
    """circ = opposite of dot; equals trivial(g) exactly when g is abelian."""
    return validate(g, g.opposite(), label=f"almost-trivial({g.label})")


class GammaFunction(NamedTuple):
    """maps[a][x] is gamma_a(x), one permutation of the elements per a."""
    maps: tuple[Perm, ...]


def gamma(b: SkewBrace) -> GammaFunction:
    """gamma_a(x) = a^-1 . (a o x), materialized as one permutation per element.

    No re-checks: b passed validate when it entered the program, and the brace
    axioms already make every gamma_a a dot-automorphism and a -> gamma_a a
    homomorphism from circ (Guarnieri-Vendramin 2017, Prop. 1.9).
    """
    n = b.order
    dt = b.dot.table
    ct = b.circ.table
    inv = b.dot.inv
    maps = tuple(tuple(dt[inv[a]][ct[a][x]] for x in range(n)) for a in range(n))
    return GammaFunction(maps=maps)


class LeftIdealFlag(NamedTuple):
    members: tuple[int, ...]
    is_left_ideal: bool
    failing_pair: tuple[int, int] | None = None
    failure_kind: str | None = None  # "dot-closure" | "gamma"


def left_ideal_status(b: SkewBrace, members: Iterable[int]) -> LeftIdealFlag:
    """Decide left-ideal-ness for an arbitrary candidate set (usually a circ-subgroup).

    Dot-closure is checked first: a set that is not a dot-subgroup is by
    definition not a left ideal, and the first violating product is reported.
    Otherwise the gamma-stability scan runs over all of the brace.
    """
    ms = tuple(sorted(set(members)))
    if not ms or ms[0] != 0:
        raise ValueError("candidate set must contain the identity 0")
    mset = set(ms)
    dt = b.dot.table
    for a in ms:
        row = dt[a]
        for x in ms:
            if row[x] not in mset:
                return LeftIdealFlag(members=ms, is_left_ideal=False,
                                     failing_pair=(a, x), failure_kind="dot-closure")
    ct, inv = b.circ.table, b.dot.inv
    for a in range(b.order):
        ia, ca = dt[inv[a]], ct[a]
        for x in ms:
            if ia[ca[x]] not in mset:  # gamma_a(x) = a^-1 . (a o x)
                return LeftIdealFlag(members=ms, is_left_ideal=False,
                                     failing_pair=(a, x), failure_kind="gamma")
    return LeftIdealFlag(members=ms, is_left_ideal=True)


@lru_cache(maxsize=1)
def gamma_reach(b: SkewBrace) -> tuple[int, ...]:
    """reach[x] is the bitmask of {gamma_a(x) : a}.

    A descriptor reads it twice, for its orbits and for its flags; one entry
    is kept, so nothing stays alive past the brace being described.
    """
    reach = [0] * b.order
    for m in gamma(b).maps:
        for x, y in enumerate(m):
            reach[x] |= 1 << y
    return tuple(reach)


def left_ideal_flags(b: SkewBrace, lattice: Iterable[tuple[int, ...]]) -> Iterator[LeftIdealFlag]:
    """One flag per sorted member tuple, each a dot-subgroup or a circ-subgroup.

    Mask test.  a -> gamma_a is a homomorphism from circ to Aut(dot), and
    a . b = a o gamma_a'(b) with a' the circ-inverse of a
    (Guarnieri-Vendramin 2017, Prop. 1.9).  So a gamma-invariant
    circ-subgroup is dot-closed, and a gamma-invariant dot-subgroup is a left
    ideal by definition: either way, a node is a left ideal exactly when it
    is gamma-invariant.  With reach[x] the bitmask of {gamma_a(x) : a}, that
    holds exactly when the OR of reach[x] over the members is the node's own
    mask (it holds that mask, since gamma_0 is the identity).  Only a node
    that fails runs the exact `left_ideal_status` scan, which names its
    failing pair and failure kind.
    """
    reach = gamma_reach(b)
    for ms in lattice:
        mask = closure = 0
        for x in ms:
            mask |= 1 << x
            closure |= reach[x]
        yield (LeftIdealFlag(members=ms, is_left_ideal=True) if closure == mask
               else left_ideal_status(b, ms))


def left_ideals(b: SkewBrace) -> list[Subgroup]:
    """Dot-subgroups stable under every gamma map, in canonical (size, members) order."""
    subs = subgroups(b.dot)
    flags = left_ideal_flags(b, (s.members for s in subs))
    return [s for s, flag in zip(subs, flags) if flag.is_left_ideal]


def brace_isomorphic(x: SkewBrace, y: SkewBrace) -> tuple[int, ...] | None:
    """The least bijection fixing 0 preserving both tables, or None.

    Candidate images of the dot-generators must match on the (dot order,
    circ order) profile.  Of the dot-isomorphisms, in increasing order, the
    first that also agrees on every circ edge (a, g), for g a
    circ-generator, preserves circ too (the walk lemma of `morphisms`).
    """
    n = x.order
    if y.order != n:
        return None
    prof_x = [(x.dot.element_orders[a], x.circ.element_orders[a]) for a in range(n)]
    prof_y = [(y.dot.element_orders[a], y.circ.element_orders[a]) for a in range(n)]
    if sorted(prof_x) != sorted(prof_y):
        return None
    gens = x.dot.generating_indices
    candidates = [[b for b in range(n) if prof_y[b] == prof_x[g]] for g in gens]
    xc = x.circ.table
    yc = y.circ.table
    cgens = x.circ.generating_indices
    return next((f for f in isomorphisms(x.dot, y.dot, candidates)
                 if all(f[xc[a][g]] == yc[f[a]][f[g]] for a in range(n) for g in cgens)),
                None)
