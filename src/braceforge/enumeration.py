"""Every multiplicative operation compatible with a fixed additive group.

The search walks regular subgroups of the holomorph: each element of the
holomorph is a pair (translation t, automorphism alpha) acting as
x -> t . alpha(x), and a compatible circ table corresponds exactly to a
subgroup containing one element sending 0 to each point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .braces import BraceValidationError, SkewBrace, validate
from .census import CENSUS_MAX_ORDER, CensusCapError, census, label_or_unknown
from .groups import FiniteGroup
from .morphisms import automorphism_group
from .perms import compose

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BraceEnumeration:
    additive: FiniteGroup
    operations: tuple[SkewBrace, ...]
    iso_classes: tuple[tuple[int, ...], ...] | None = None
    by_mult_type: tuple[tuple[str, tuple[int, ...]], ...] | None = None

    @property
    def count(self) -> int:
        return len(self.operations)


def _regular_subgroup_tables(g: FiniteGroup) -> list[Table]:
    n = g.order
    auts = automorphism_group(g)
    na = len(auts)
    gt = g.table
    aindex = {a: i for i, a in enumerate(auts)}
    acomp = [[aindex[compose(auts[i], auts[j])] for j in range(na)] for i in range(na)]
    total = n * na
    tpart = [e // na for e in range(total)]
    apart = [e % na for e in range(total)]
    e_id = aindex[tuple(range(n))]

    def emul(e1: int, e2: int) -> int:
        a1 = apart[e1]
        return gt[tpart[e1]][auts[a1][tpart[e2]]] * na + acomp[a1][apart[e2]]

    def eorder(e: int) -> int:
        k = 1
        x = e
        while x != e_id:
            x = emul(x, e)
            k += 1
        return k

    def eperm(e: int) -> tuple[int, ...]:
        row = gt[tpart[e]]
        al = auts[apart[e]]
        return tuple(row[al[x]] for x in range(n))

    buckets: list[list[int]] = [[] for _ in range(n)]
    for e in range(total):
        t = tpart[e]
        if t == 0:
            continue  # a second point-0 element always collides with the identity
        if n % eorder(e) == 0:
            buckets[t].append(e)
    for t in range(1, n):
        buckets[t].sort(key=eperm)

    results: list[tuple[int, ...]] = []

    def try_extend(lst: list[int], st: set[int], cov: list[int], h: int):
        lst2 = list(lst)
        st2 = set(st)
        cov2 = list(cov)
        p = tpart[h]
        if cov2[p] != -1:
            return None
        lst2.append(h)
        st2.add(h)
        cov2[p] = h
        i = len(lst2) - 1
        while i < len(lst2):
            x = lst2[i]
            i += 1
            for j in range(len(lst2)):
                y = lst2[j]
                for prod in (emul(x, y), emul(y, x)):
                    if prod not in st2:
                        t = tpart[prod]
                        if cov2[t] != -1:
                            return None
                        lst2.append(prod)
                        st2.add(prod)
                        cov2[t] = prod
                        if len(lst2) > n:
                            return None
        if n % len(lst2) != 0:
            return None
        return lst2, st2, cov2

    def search(lst: list[int], st: set[int], cov: list[int]) -> None:
        if len(lst) == n:
            results.append(tuple(cov))
            return
        a = next(p for p in range(n) if cov[p] == -1)
        for h in buckets[a]:
            ext = try_extend(lst, st, cov, h)
            if ext is not None:
                search(*ext)

    cov0 = [-1] * n
    cov0[0] = e_id
    search([e_id], {e_id}, cov0)

    tables = [tuple(eperm(cov[p]) for p in range(n)) for cov in results]
    tables.sort()
    return tables


_ENUM_MEMO: dict[tuple[str, Table], BraceEnumeration] = {}


def enumerate_circ(additive: FiniteGroup) -> BraceEnumeration:
    """All circ tables forming a skew brace with the given additive group.

    Operations come back sorted by circ table, so the order is canonical and
    independent of how the search tree was walked.  Every decoded table is
    re-validated; a failure there is an internal fault, not an input error.
    """
    if additive.order > CENSUS_MAX_ORDER:
        raise CensusCapError(f"enumeration is capped at order {CENSUS_MAX_ORDER}")
    key = (additive.label, additive.table)
    hit = _ENUM_MEMO.get(key)
    if hit is not None:
        return hit
    ops = []
    for i, t in enumerate(_regular_subgroup_tables(additive)):
        circ = FiniteGroup.from_table(t, label=f"{additive.label}-circ{i}")
        try:
            ops.append(validate(additive, circ, label=f"{additive.label}-op{i}"))
        except BraceValidationError as exc:  # an internal fault
            raise RuntimeError(f"decoded table failed validation: {exc}") from exc
    enum = BraceEnumeration(additive=additive, operations=tuple(ops))
    _ENUM_MEMO[key] = enum
    return enum


def _transport_table(t: Table, f: tuple[int, ...]) -> Table:
    n = len(t)
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        fa = f[a]
        for b in range(n):
            rows[fa][f[b]] = f[t[a][b]]
    return tuple(tuple(r) for r in rows)


def reduce_up_to_iso(enum: BraceEnumeration) -> BraceEnumeration:
    """Partition operations into isomorphism classes.

    Braces over a fixed additive group are isomorphic exactly when an additive
    automorphism transports one circ table onto the other, so the classes are
    the orbits of the automorphism group acting on circ tables by transport.
    """
    tables = [b.circ.table for b in enum.operations]
    index_of = {t: i for i, t in enumerate(tables)}
    auts = automorphism_group(enum.additive)
    seen = [False] * len(tables)
    classes: list[tuple[int, ...]] = []  # each opens at its least index, so sorted
    for i, t in enumerate(tables):
        if seen[i]:
            continue
        orbit = set()
        for alpha in auts:
            j = index_of.get(_transport_table(t, alpha))
            if j is None:  # pragma: no cover - internal fault
                raise RuntimeError("transport of an operation left the enumeration")
            orbit.add(j)
            seen[j] = True
        classes.append(tuple(sorted(orbit)))
    return replace(enum, iso_classes=tuple(classes))


def with_mult_types(enum: BraceEnumeration) -> BraceEnumeration:
    by_type: dict[str, list[int]] = {}
    for i, b in enumerate(enum.operations):
        by_type.setdefault(label_or_unknown(b.circ), []).append(i)
    pairs = tuple(sorted((label, tuple(idx)) for label, idx in by_type.items()))
    return replace(enum, by_mult_type=pairs)


def mult_type_census(enum: BraceEnumeration) -> dict[str, int]:
    """How many operations have each multiplicative isomorphism type."""
    typed = enum if enum.by_mult_type is not None else with_mult_types(enum)
    return {label: len(idx) for label, idx in typed.by_mult_type}


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
