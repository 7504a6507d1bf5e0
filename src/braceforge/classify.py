"""Good/bad decisions with explicit witnesses, and the exhaustive classification sweep.

A group N is "good" when, for every compatible circ operation, every subgroup
of the circ group is a left ideal.  The closed-form predicate says this holds
exactly for C2, C2xC2, and odd-order cyclic groups with q never dividing p - 1
for prime divisors p, q of the order.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .braces import SkewBrace, left_ideal_flags, left_ideal_status, validate
from .census import CENSUS_MAX_ORDER, census
from .enumeration import enumerate_circ
from .groups import FiniteGroup, Subgroup, cyclic_subgroups, direct_product, subgroups
from .morphisms import characteristic_subgroups


class Witness(NamedTuple):
    """A circ-subgroup that is not a left ideal, with the first failing pair.

    kind is "dot-closure" (dot[a][x] lands outside) or "gamma" (gamma_a(x)
    lands outside); in both cases x is a member and the offending image is not.
    """
    brace: SkewBrace
    subgroup: tuple[int, ...]
    failing: tuple[int, int]
    kind: str


class Verdict(NamedTuple):
    group_label: str
    good: bool
    witness: Witness | None
    braces_examined: int
    exhaustive: bool


def verify_witness(w: Witness) -> None:
    """Re-derive everything the witness claims; raises ValueError when it lies."""
    validate(w.brace.dot, w.brace.circ)
    replay_witness(w)


def replay_witness(w: Witness) -> None:
    """verify_witness without re-validating the brace, for a witness whose
    brace has just been decoded through the validating parser."""
    b = w.brace
    ms = set(w.subgroup)
    if list(w.subgroup) != sorted(ms) or not all(0 <= v < b.order for v in (*ms, *w.failing)):
        raise ValueError("witness indices must be distinct, sorted and in range")
    if not ms or 0 not in ms:
        raise ValueError("witness subgroup must contain the identity")
    ct = b.circ.table
    for a in w.subgroup:
        if b.circ.inv[a] not in ms or any(ct[a][x] not in ms for x in w.subgroup):
            raise ValueError("witness subgroup is not circ-closed")
    a, x = w.failing
    if x not in ms:
        raise ValueError("failing pair must act on a member")
    if w.kind == "dot-closure":
        if a not in ms or b.dot.table[a][x] in ms:
            raise ValueError("claimed dot-closure failure does not fail")
    elif w.kind == "gamma":
        if b.dot.table[b.dot.inv[a]][ct[a][x]] in ms:  # gamma_a(x) = a^-1 . (a o x)
            raise ValueError("claimed gamma failure does not fail")
    else:
        raise ValueError(f"unknown witness kind {w.kind!r}")


def first_failure(b: SkewBrace) -> Witness | None:
    """The first circ-subgroup in (size, members) order that is not a left
    ideal, with its first failing pair; None when every one is.

    Only the cyclic circ-subgroups are scanned, and that gives the same
    witness as the whole lattice.  A circ-subgroup is a left ideal exactly
    when it is gamma-invariant (see `braces.left_ideal_flags`), and
    invariance survives unions.  Every circ-subgroup S is the union of its
    cyclic circ-subgroups, so if S fails, one of them fails too.  That one
    sorts no later than S: it is smaller, or equal to S.  So the first
    failing circ-subgroup is cyclic, and its exact scan is the one the
    whole lattice would have run.
    """
    for flag in left_ideal_flags(b, (s.members for s in cyclic_subgroups(b.circ))):
        if not flag.is_left_ideal:
            return Witness(brace=b, subgroup=flag.members,
                           failing=flag.failing_pair, kind=flag.failure_kind)
    return None


def is_good(group: FiniteGroup, *, exhaustive: bool = False,
            cache_dir=None) -> Verdict:
    """Sweep every compatible circ operation; stop at the first bad brace unless
    `exhaustive` forces the full scan (the recorded witness is the first failure
    either way).  With a cache_dir, a stored bad verdict is used once its witness
    replays."""
    if cache_dir is not None:
        from .cache import cached_verdict, store_verdict
        hit = cached_verdict(group, exhaustive, cache_dir)
        if hit is not None:
            return hit
    verdict = _scan_enumeration(group, enumerate_circ(group), exhaustive)
    if cache_dir is not None:
        store_verdict(group, exhaustive, verdict, cache_dir)
    return verdict


def _scan_enumeration(group: FiniteGroup, enum, exhaustive: bool) -> Verdict:
    witness = None
    examined = 0
    for b in enum.operations:
        examined += 1
        found = first_failure(b)
        if witness is None and found is not None:
            witness = found
            if not exhaustive:
                break
    return Verdict(group_label=group.label, good=witness is None, witness=witness,
                   braces_examined=examined, exhaustive=exhaustive or witness is None)


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def theorem_predicate(group: FiniteGroup) -> bool:
    """Closed-form answer: C2, C2xC2, or odd-order cyclic with q never dividing
    p - 1 over prime divisors p, q (the trivial group counts as odd cyclic)."""
    n = group.order
    if n == 1:
        return True
    if n == 2:
        return True
    if n == 4 and not group.is_cyclic:
        return True  # the Klein group
    if n % 2 == 1 and group.is_cyclic:
        ps = _prime_divisors(n)
        return all((p - 1) % q != 0 for p in ps for q in ps)
    return False


class TheoremRow(NamedTuple):
    label: str
    order: int
    predicted: bool
    computed: bool


class TheoremReport(NamedTuple):
    max_order: int
    rows: tuple[TheoremRow, ...]
    all_match: bool

    def good_labels(self) -> list[str]:
        return [r.label for r in self.rows if r.computed]


def verify_theorem(max_order: int = CENSUS_MAX_ORDER, *, exhaustive: bool = False,
                   cache_dir=None, workers: int = 1) -> TheoremReport:
    """Compare the computed verdict with the closed-form predicate on every census
    group up to max_order, in census order.

    The sweep runs in one process.  `workers` is accepted for compatibility
    and unused: a process pool measured slower than one process at every
    order the census allows.
    """
    rows = []
    for e in census(max_order):
        verdict = is_good(e.group, exhaustive=exhaustive, cache_dir=cache_dir)
        rows.append(TheoremRow(label=e.label, order=e.order,
                               predicted=theorem_predicate(e.group), computed=verdict.good))
    all_match = all(r.predicted == r.computed for r in rows)
    return TheoremReport(max_order=max_order, rows=tuple(rows), all_match=all_match)


# ---------------------------------------------------------------------------
# One-sided heuristics
# ---------------------------------------------------------------------------

class SubgroupCountSignal(NamedTuple):
    """circ has more subgroups of some order than dot: the brace must be bad."""
    order: int
    circ_count: int
    dot_count: int


class ContainmentSignal(NamedTuple):
    """Equal total subgroup counts but a dot-subgroup missing from circ: bad."""
    members: tuple[int, ...]


class CharacteristicMatchSignal(NamedTuple):
    """#characteristic dot-subgroups equals #circ-subgroups: all are left ideals."""
    count: int


def _order_histogram(subs: Iterable[Subgroup]) -> dict[int, int]:
    out: dict[int, int] = {}
    for s in subs:
        out[s.order] = out.get(s.order, 0) + 1
    return out


def heuristic_subgroup_count(b: SkewBrace) -> SubgroupCountSignal | None:
    circ_h = _order_histogram(subgroups(b.circ))
    dot_h = _order_histogram(subgroups(b.dot))
    for k in sorted(circ_h):
        if circ_h[k] > dot_h.get(k, 0):
            return SubgroupCountSignal(order=k, circ_count=circ_h[k],
                                       dot_count=dot_h.get(k, 0))
    return None


def heuristic_subgroup_containment(b: SkewBrace) -> ContainmentSignal | None:
    dot_subs = subgroups(b.dot)
    circ_subs = subgroups(b.circ)
    if len(dot_subs) != len(circ_subs):
        return None
    circ_sets = {s.members for s in circ_subs}
    for s in dot_subs:
        if s.members not in circ_sets:
            return ContainmentSignal(members=s.members)
    return None


def heuristic_characteristic_count(b: SkewBrace) -> CharacteristicMatchSignal | None:
    k = len(characteristic_subgroups(b.dot))
    if k == len(subgroups(b.circ)):
        return CharacteristicMatchSignal(count=k)
    return None


# ---------------------------------------------------------------------------
# Transport of badness along direct factors
# ---------------------------------------------------------------------------

def direct_factor_witness(witness: Witness, other: FiniteGroup) -> Witness:
    """Lift a bad witness on M to one on M x M' (trivial brace on the M' factor).

    The product circ is (m1, m1') o (m2, m2') = (m1 o m2, m1' . m2'); the bad
    subgroup becomes S x {1}.  With the one-element group this is the original
    witness unchanged.
    """
    verify_witness(witness)
    if other.order == 1:
        return witness
    dot = direct_product(witness.brace.dot, other)
    circ = direct_product(witness.brace.circ, other)
    b = validate(dot, circ, label=f"{witness.brace.label}x{other.label}")
    members = tuple(s * other.order for s in witness.subgroup)
    flag = left_ideal_status(b, members)
    if flag.is_left_ideal:  # pragma: no cover - the lift always stays bad
        raise RuntimeError("lifted subgroup unexpectedly became a left ideal")
    lifted = Witness(brace=b, subgroup=flag.members, failing=flag.failing_pair,
                     kind=flag.failure_kind)
    verify_witness(lifted)
    return lifted


def c_group_check(group: FiniteGroup) -> bool:
    """Whether every Sylow subgroup is cyclic."""
    n = group.order
    subs = subgroups(group)
    for p in _prime_divisors(n):
        pk = 1
        while n % (pk * p) == 0:
            pk *= p
        sylow = next(s for s in subs if s.order == pk)
        if pk not in (group.element_orders[m] for m in sylow.members):
            return False
    return True
