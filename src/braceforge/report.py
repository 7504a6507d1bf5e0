"""Descriptors summarizing what a skew brace means for its subgroup correspondence.

The descriptor records both isomorphism type labels, the orbits of the gamma
maps, and the full circ-subgroup lattice with a left-ideal flag per node,
decided by `braces.left_ideal_flags`; the correspondence is bijective exactly
when every node is flagged.

Transport.  An isomorphism maps subgroups bijectively onto subgroups.  So
when `census_match` gives the census entry of the circ group with the least
isomorphism f onto it, the representative's lattice, computed once per
entry, carried back along f^-1 and re-sorted by (size, members) is exactly
`subgroups(circ)`.

Orbits.  The maps gamma_a are the image of a homomorphism from a finite
group, so they are closed under composition, and the orbit of x under the
group they generate is the single image set {gamma_a(x) : a}:
`b.gamma_reach[x]`.  The same homomorphism makes that group the one
generated by the gamma_g of the circ-generators g, so `gamma_reach` walks
each orbit under those few maps, once per brace, and never builds all n
gamma maps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import __version__
from .braces import LeftIdealFlag, SkewBrace, left_ideal_flags
from .census import CensusEntry, census_match, label_or_unknown
from .groups import FiniteGroup, subgroups
from .perms import invert


class HGDescriptor(NamedTuple):
    type_label: str
    galois_label: str
    gamma_orbits: tuple[tuple[int, ...], ...]
    lattice: tuple[LeftIdealFlag, ...]
    bijective: bool
    classical: bool
    canonical_nonclassical: bool


def gamma_orbits(b: SkewBrace) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by all gamma maps, sorted by least member:
    the distinct reach masks as member tuples, each first met at its least
    member (Orbits).  Members are read off each mask's set bits, lowest first."""
    seen: set[int] = set()
    orbits = []
    for mask in b.gamma_reach:
        if mask not in seen:
            seen.add(mask)
            members = []
            while mask:
                low = mask & -mask
                members.append(low.bit_length() - 1)
                mask ^= low
            orbits.append(tuple(members))
    return tuple(orbits)


@lru_cache(maxsize=None)
def _entry_lattice(entry: CensusEntry) -> tuple[tuple[int, ...], ...]:
    return tuple(s.members for s in subgroups(entry.group))


def _lattice(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Member tuples of `subgroups(g)`, carried from the census representative
    (Transport); above the cap, from g itself along the identity."""
    match = census_match(g)
    if match is None:
        lattice, back = [s.members for s in subgroups(g)], range(g.order)
    else:
        entry, f = match
        lattice, back = _entry_lattice(entry), invert(f)
    return sorted((tuple(sorted([back[x] for x in m])) for m in lattice),
                  key=lambda m: (len(m), m))


def hg_descriptor(b: SkewBrace) -> HGDescriptor:
    entries = tuple(left_ideal_flags(b, _lattice(b.circ)))
    return HGDescriptor(
        type_label=label_or_unknown(b.dot),
        galois_label=label_or_unknown(b.circ),
        gamma_orbits=gamma_orbits(b),
        lattice=entries,
        bijective=all(e.is_left_ideal for e in entries),
        classical=b.is_trivial,
        canonical_nonclassical=b.is_almost_trivial,
    )


def render_dot(d: HGDescriptor) -> str:
    """Hasse diagram of the lattice in DOT form, deterministic byte for byte.

    Nodes are the circ-subgroups in canonical order; edges are covering
    relations only.  Left ideals are drawn solid, the rest dashed.

    Covers by bitmask.  The nodes are sorted by (size, members), so every
    node strictly inside node j comes before it.  The nodes before j are
    scanned from the last down, and a node i inside j is kept as a cover
    unless it lies inside a node already kept.  A node strictly between i
    and j is larger than i, so it was scanned first and is kept or lies
    inside a kept node: the kept nodes are exactly the covers of j.  The
    edges are emitted by i, each i's with j ascending, which is the (i, j)
    order of the edges.
    """
    lines = ["digraph hg_lattice {", "  rankdir=BT;"]
    masks = []
    for i, e in enumerate(d.lattice):
        label = "{" + ",".join(str(m) for m in e.members) + "}"
        style = "solid" if e.is_left_ideal else "dashed"
        lines.append(f'  n{i} [label="{label}" style={style}];')
        mask = 0
        for m in e.members:
            mask |= 1 << m
        masks.append(mask)
    covered_by: list[list[int]] = [[] for _ in masks]
    for j, mj in enumerate(masks):
        kept: list[int] = []
        for i in range(j - 1, -1, -1):
            mi = masks[i]
            if mi & mj != mi:
                continue
            for mk in kept:
                if mi & mk == mi:
                    break
            else:
                kept.append(mi)
                covered_by[i].append(j)
    for i, above in enumerate(covered_by):
        lines.extend(f"  n{i} -> n{j};" for j in above)
    lines.append("}")
    return "\n".join(lines) + "\n"


class ReportBundle(NamedTuple):
    descriptor: HGDescriptor
    input_sha256: str
    tool_version: str
    timing_ms: float | None = None  # None from report_bundle; report-v1 keeps the key


def brace_digest(b: SkewBrace) -> str:
    """Content hash of the two tables (labels excluded): the SHA-256 of
    repr((dot.table, circ.table)).  The dot table's text is built once per
    group, since many braces share one additive group; the circ table's text
    is built per call, so nothing is kept per brace.  `hashlib` is imported
    here, not at module top: it loads OpenSSL's `_hashlib`, and of the CLI
    commands only `hg report` (and the `--exhaustive` cache) hashes."""
    import hashlib

    payload = f"({b.dot._table_text}, {b.circ.table!r})".encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def report_bundle(b: SkewBrace) -> ReportBundle:
    return ReportBundle(descriptor=hg_descriptor(b), input_sha256=brace_digest(b),
                        tool_version=__version__)
