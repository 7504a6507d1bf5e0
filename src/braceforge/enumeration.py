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

Adding a candidate h to a node closes the subgroup under products, but
first it tests the products h o s for each chosen s, h o h first, that land
on a slot filled before h.  A holomorph element is fixed by its images of 0
and of the generators, so such a product must agree with that slot's
element at the generators.  Every pair tested is in the closure's first
pending list, and a filled slot's element never changes, so a candidate
the pre-check rejects is one the closure rejects too: the set of accepted
candidates, hence the tables and their order, is that of the closure
alone.  Most candidates clash there (2,473 of the census's 3,900 extension
attempts), and only the rest build the closure's pending list and copy the
slots.  The other first-level products x o h never land on a filled slot:
those slots hold the group H that the earlier choices generate, each x in H
permutes H's slots {y(0) : y in H}, and h(0) is not one of them, so neither
is x(h(0)).

The search is a generator, and `iter_circ` gates each table as it arrives, so
a caller that stops at the first brace it wants (a first-failure `is_good`)
neither searches for nor gates the rest.  `enumerate_circ` holds the whole
stream.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .braces import BraceValidationError, SkewBrace, validate
from .census import CENSUS_MAX_ORDER, CensusCapError, label_or_unknown
from .groups import FiniteGroup
from .morphisms import automorphism_group
from .perms import Perm, compose, identity_perm, invert, perm_order

Table = tuple[tuple[int, ...], ...]


class BraceEnumeration(NamedTuple):
    """Every compatible operation on `additive`, with the partitions computed so far."""
    additive: FiniteGroup
    operations: tuple[SkewBrace, ...]
    iso_classes: tuple[tuple[int, ...], ...] | None = None
    by_mult_type: tuple[tuple[str, tuple[int, ...]], ...] | None = None

    @property
    def count(self) -> int:
        return len(self.operations)


def _regular_subgroup_tables(g: FiniteGroup) -> Iterator[Table]:
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
        # pre-check, with no list built: the first-level products h o s
        # (h o h first) that land on a slot filled before h, each against
        # that slot's element.  The closure tests each of them too, on the
        # same unchanged slot, so it rejects whatever this rejects.  Each x o h
        # lands on x(h(0)), an empty slot, since x permutes the filled ones.
        for s in reversed(chosen):
            w = cov[h[s[0]]]
            if w is not None:
                for k in gens:
                    if h[s[k]] != w[k]:
                        return None
        h0 = h[0]
        pending = [(x, h) for x in cov if x is not None] + [(h, s) for s in chosen]
        cov = list(cov)
        cov[h0] = h
        while pending:  # newest products first, so a clash shows early
            u, v = pending.pop()
            w = cov[u[v[0]]]
            if w is None:
                w = compose(u, v)
                cov[w[0]] = w
                pending += [(w, s) for s in chosen]
            else:  # the images of 0 and of the generators fix a holomorph element
                for k in gens:
                    if u[v[k]] != w[k]:
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


def iter_circ(additive: FiniteGroup) -> Iterator[SkewBrace]:
    """The braces of `enumerate_circ`, one at a time, as the search finds them.

    Each table is gated as it arrives, by `FiniteGroup.from_table` and then
    `validate`; a failure there is an internal fault, not an input error.
    `from_table` proves circ a group, so `validate` checks only its
    generators: O(n k_circ k_dot) per table for the relation, against the
    O(n^2 k) of `from_table`'s own checks.  A caller that stops early leaves
    the rest of the search undone and ungated.  The order cap is checked at
    the first step.
    """
    if additive.order > CENSUS_MAX_ORDER:
        raise CensusCapError(f"enumeration is capped at order {CENSUS_MAX_ORDER}")
    for i, t in enumerate(_regular_subgroup_tables(additive)):
        circ = FiniteGroup.from_table(t, label=f"{additive.label}-circ{i}")
        try:
            b = validate(additive, circ, label=f"{additive.label}-op{i}")
        except BraceValidationError as exc:  # an internal fault
            raise RuntimeError(f"search table failed validation: {exc}") from exc
        yield b


def enumerate_circ(additive: FiniteGroup) -> BraceEnumeration:
    """All circ tables forming a skew brace with the given additive group.

    The whole stream of `iter_circ`, held.  Operations come back sorted by
    circ table, the order in which the search finds them, so the order is
    canonical.  Enumerations are not memoized within a process: each call
    searches again, and a caller who needs one twice holds it.
    """
    return BraceEnumeration(additive=additive, operations=tuple(iter_circ(additive)))


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

