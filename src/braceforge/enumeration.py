"""Every multiplicative operation compatible with a fixed additive group.

The search walks regular subgroups of the holomorph.  A holomorph element is
the permutation x -> t . alpha(x) of the group's elements, for a translation
t and an automorphism alpha; it sends 0 to t, its slot.  A compatible circ
table corresponds exactly to a subgroup holding one permutation in each slot,
and row t of the table is the permutation in slot t.

The search always fills the least empty slot, trying the candidates of that
slot's bucket in sorted order: the holomorph elements in the slot that fix no
point and whose order divides n.  A bucket is built the first time the search
picks its slot and kept until the search ends.  A slot that products of
earlier choices always fill is never picked, so its |Aut| candidates are
never formed.
"""

from __future__ import annotations

from .braces import BraceValidationError, SkewBrace, validate
from .census import CENSUS_MAX_ORDER, CensusCapError, census, label_or_unknown
from .groups import FiniteGroup
from .morphisms import automorphism_group
from .perms import Perm, compose, identity_perm, invert, perm_order

Table = tuple[tuple[int, ...], ...]


class BraceEnumeration:
    """Every compatible operation on `additive`, with the partitions computed so far.

    Frozen.  Equality and hash cover all four fields; an instance of another
    class is never equal.  Written by hand rather than as a NamedTuple so
    that it can be weakly referenced.
    """

    def __init__(self, additive: FiniteGroup, operations: tuple[SkewBrace, ...],
                 iso_classes: tuple[tuple[int, ...], ...] | None = None,
                 by_mult_type: tuple[tuple[str, tuple[int, ...]], ...] | None = None) -> None:
        object.__setattr__(self, "additive", additive)
        object.__setattr__(self, "operations", operations)
        object.__setattr__(self, "iso_classes", iso_classes)
        object.__setattr__(self, "by_mult_type", by_mult_type)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign or delete field {name!r} of a frozen instance")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return (f"BraceEnumeration(additive={self.additive!r}, operations={self.operations!r}, "
                f"iso_classes={self.iso_classes!r}, by_mult_type={self.by_mult_type!r})")

    def _key(self) -> tuple:
        return self.additive, self.operations, self.iso_classes, self.by_mult_type

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _replace(self, **changes) -> "BraceEnumeration":
        """A new enumeration with the given fields changed, as `NamedTuple._replace`."""
        return BraceEnumeration(**{**vars(self), **changes})

    @property
    def count(self) -> int:
        return len(self.operations)


def _regular_subgroup_tables(g: FiniteGroup) -> list[Table]:
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

    results: list[Table] = []

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
    def search(cov: list[Perm | None], chosen: tuple[Perm, ...]) -> None:
        if None not in cov:
            results.append(tuple(cov))
            return
        for h in bucket(cov.index(None)):
            grown = chosen + (h,)
            ext = try_extend(cov, grown)
            if ext is not None:
                search(ext, grown)

    search([ident] + [None] * (n - 1), ())
    return results


def enumerate_circ(additive: FiniteGroup) -> BraceEnumeration:
    """All circ tables forming a skew brace with the given additive group.

    Operations come back sorted by circ table, the order in which the search
    finds them, so the order is canonical.  Every table the search gives is
    validated; a failure there is an internal fault, not an input error.
    Enumerations are not memoized within a process: each call searches
    again, and a caller who needs one twice holds it.
    """
    if additive.order > CENSUS_MAX_ORDER:
        raise CensusCapError(f"enumeration is capped at order {CENSUS_MAX_ORDER}")
    ops = []
    for i, t in enumerate(_regular_subgroup_tables(additive)):
        circ = FiniteGroup.from_table(t, label=f"{additive.label}-circ{i}")
        try:
            ops.append(validate(additive, circ, label=f"{additive.label}-op{i}"))
        except BraceValidationError as exc:  # an internal fault
            raise RuntimeError(f"search table failed validation: {exc}") from exc
    return BraceEnumeration(additive=additive, operations=tuple(ops))


def reduce_up_to_iso(enum: BraceEnumeration) -> BraceEnumeration:
    """Partition operations into isomorphism classes.

    Braces over a fixed additive group are isomorphic exactly when an additive
    automorphism transports one circ table onto the other, so the classes are
    the orbits of the automorphism group acting on circ tables by transport.

    A table is indexed by its generator columns t[s][g], for every s and every
    g in the additive group's `generating_indices`.  They determine it: row a
    of a compatible table is x -> a . lambda_a(x), and lambda_a is an additive
    automorphism (Guarnieri-Vendramin 2017, Prop. 1.9), fixed by its values
    lambda_a(g) = a^-1 . t[a][g] on the generators.  The transport of t along
    alpha holds alpha(t[s][g]) at (alpha(s), alpha(g)), so its columns are
    read off t through alpha^-1, at n k entries per (class, automorphism)
    instead of a whole n x n table.
    """
    n = enum.additive.order
    gens = enum.additive.generating_indices
    tables = [b.circ.table for b in enum.operations]
    index_of = {tuple(t[s][g] for s in range(n) for g in gens): i
                for i, t in enumerate(tables)}
    walks = []  # (alpha, alpha^-1 of each row, alpha^-1 of each generator)
    for alpha in automorphism_group(enum.additive):
        inv = invert(alpha)
        walks.append((alpha, inv, [inv[g] for g in gens]))
    seen = [False] * len(tables)
    classes: list[tuple[int, ...]] = []  # each opens at its least index, so sorted
    for i, t in enumerate(tables):
        if seen[i]:
            continue
        orbit = set()
        for alpha, rows, cols in walks:
            j = index_of.get(tuple(alpha[row[c]] for row in map(t.__getitem__, rows)
                                   for c in cols))
            if j is None:
                raise RuntimeError("transport of an operation left the enumeration")
            orbit.add(j)
            seen[j] = True
        classes.append(tuple(sorted(orbit)))
    return enum._replace(iso_classes=tuple(classes))


def with_mult_types(enum: BraceEnumeration) -> BraceEnumeration:
    by_type: dict[str, list[int]] = {}
    for i, b in enumerate(enum.operations):
        by_type.setdefault(label_or_unknown(b.circ), []).append(i)
    pairs = tuple(sorted((label, tuple(idx)) for label, idx in by_type.items()))
    return enum._replace(by_mult_type=pairs)


def braces_with_mult_group(circ_type) -> list[SkewBrace]:
    """All braces (over every census additive group of matching order) whose
    multiplicative group is isomorphic to the given census entry's group."""
    out = []
    for entry in census(CENSUS_MAX_ORDER):
        if entry.order != circ_type.order:
            continue
        enum = with_mult_types(enumerate_circ(entry.group))
        for label, idx in enum.by_mult_type:
            if label == circ_type.label:
                out.extend(enum.operations[i] for i in idx)
    return out
