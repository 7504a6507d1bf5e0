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
`braces.gamma_reach(b)[x]`.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import NamedTuple

from . import __version__
from .braces import LeftIdealFlag, SkewBrace, gamma_reach, left_ideal_flags
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
    member (Orbits)."""
    seen: set[int] = set()
    orbits = []
    for mask in gamma_reach(b):
        if mask not in seen:
            seen.add(mask)
            orbits.append(tuple(x for x in range(b.order) if mask >> x & 1))
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
    """
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


class ReportBundle(NamedTuple):
    descriptor: HGDescriptor
    input_sha256: str
    tool_version: str
    timing_ms: float | None = None  # None from report_bundle; report-v1 keeps the key


def brace_digest(b: SkewBrace) -> str:
    """Content hash of the two tables (labels excluded)."""
    payload = repr((b.dot.table, b.circ.table)).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def report_bundle(b: SkewBrace) -> ReportBundle:
    return ReportBundle(descriptor=hg_descriptor(b), input_sha256=brace_digest(b),
                        tool_version=__version__)
