"""Descriptors summarizing what a skew brace means for its subgroup correspondence.

The descriptor records both isomorphism type labels, the orbits of the gamma
maps, and the full circ-subgroup lattice with a left-ideal flag per node; the
correspondence is bijective exactly when every node is flagged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .braces import SkewBrace, gamma, left_ideal_status
from .census import label_or_unknown
from .groups import subgroups


@dataclass(frozen=True)
class LatticeEntry:
    members: tuple[int, ...]
    is_left_ideal: bool
    failing_pair: tuple[int, int] | None
    failure_kind: str | None


@dataclass(frozen=True)
class HGDescriptor:
    type_label: str
    galois_label: str
    gamma_orbits: tuple[tuple[int, ...], ...]
    lattice: tuple[LatticeEntry, ...]
    bijective: bool
    classical: bool
    canonical_nonclassical: bool


def gamma_orbits(b: SkewBrace) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by all gamma maps, sorted by least member."""
    maps = gamma(b).maps
    n = b.order
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for m in maps:
                y = m[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            seen[x] = True
        orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


def hg_descriptor(b: SkewBrace) -> HGDescriptor:
    entries = []
    for s in subgroups(b.circ):
        flag = left_ideal_status(b, s.members)
        entries.append(LatticeEntry(members=flag.members,
                                    is_left_ideal=flag.is_left_ideal,
                                    failing_pair=flag.failing_pair,
                                    failure_kind=flag.failure_kind))
    return HGDescriptor(
        type_label=label_or_unknown(b.dot),
        galois_label=label_or_unknown(b.circ),
        gamma_orbits=gamma_orbits(b),
        lattice=tuple(entries),
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


@dataclass(frozen=True)
class ReportBundle:
    descriptor: HGDescriptor
    input_sha256: str
    tool_version: str
    timing_ms: float | None = None


def brace_digest(b: SkewBrace) -> str:
    """Content hash of the two tables (labels excluded)."""
    payload = repr((b.dot.table, b.circ.table)).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def report_bundle(b: SkewBrace, timing_ms: float | None = None) -> ReportBundle:
    from . import __version__
    return ReportBundle(descriptor=hg_descriptor(b), input_sha256=brace_digest(b),
                        tool_version=__version__, timing_ms=timing_ms)
