"""Good/bad decisions with explicit witnesses, and the exhaustive classification sweep.

A group N is "good" when, for every compatible circ operation, every subgroup
of the circ group is a left ideal.  The closed-form predicate says this holds
exactly for C2, C2xC2, and odd-order cyclic groups with q never dividing p - 1
for prime divisors p, q of the order.

`is_good` scans the braces as the holomorph search streams them, so deciding
that a group is bad in first-failure mode searches for and gates only the
braces up to the first bad one; `--exhaustive` still scans them all.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .braces import SkewBrace, left_ideal_flags, left_ideal_status, validate
from .census import CENSUS_MAX_ORDER, census
from .enumeration import iter_circ
from .groups import FiniteGroup, cyclic_subgroups, direct_product


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
    b = w.brace
    validate(b.dot, b.circ)
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
    """Scan the compatible circ operations as `iter_circ` streams them, in
    enumeration order.  First-failure mode stops at the first bad brace, so the
    search and its table gates stop there too; `exhaustive` consumes the whole
    stream (the recorded witness is the first failure either way).  An
    exhaustive call with a cache_dir uses a stored bad verdict once its brace,
    re-validated on this group, yields a witness again; a first-failure call,
    whose scan is already short, ignores cache_dir."""
    if not exhaustive or cache_dir is None:
        return _scan_enumeration(group, iter_circ(group), exhaustive)
    from .cache import cached_verdict, store_verdict
    hit = cached_verdict(group, cache_dir)
    if hit is not None:
        return hit
    verdict = _scan_enumeration(group, iter_circ(group), exhaustive)
    store_verdict(group, verdict, cache_dir)
    return verdict


def _scan_enumeration(group: FiniteGroup, braces: Iterable[SkewBrace],
                      exhaustive: bool) -> Verdict:
    witness = None
    examined = 0
    for b in braces:
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
    group up to max_order, in census order.  Each verdict comes from `is_good`,
    so in first-failure mode a bad group's search stops at its first bad brace.

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
# Transport of badness along direct factors
# ---------------------------------------------------------------------------

def direct_factor_witness(witness: Witness, other: FiniteGroup) -> Witness:
    """Lift a bad witness on M to one on M x M' (trivial brace on the M' factor).

    The product circ is (m1, m1') o (m2, m2') = (m1 o m2, m1' . m2'); the bad
    subgroup becomes S x {1}.  With the one-element group this is the original
    witness unchanged.  Only the input witness is replayed: the lift is the
    exact scan's failure on a brace `validate` has just built.
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
    return Witness(brace=b, subgroup=flag.members, failing=flag.failing_pair,
                   kind=flag.failure_kind)


def c_group_check(group: FiniteGroup) -> bool:
    """Whether every Sylow subgroup is cyclic.

    A Sylow p-subgroup of order p^k is cyclic exactly when the group has an
    element of order p^k: that element generates a Sylow p-subgroup, and all
    of them are conjugate.
    """
    n = group.order
    for p in _prime_divisors(n):
        pk = 1
        while n % (pk * p) == 0:
            pk *= p
        if pk not in group.element_orders:
            return False
    return True
