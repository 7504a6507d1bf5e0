"""Brace validation, gamma maps, and left ideals against brute-force oracles."""

from __future__ import annotations

import pytest

from braceforge.braces import (BraceRelationError, BraceValidationError, SkewBrace,
                               almost_trivial, gamma, left_ideal_flags, left_ideal_status,
                               left_ideals, trivial, validate)
from braceforge.census import census, census_lookup
from braceforge.groups import is_normal, make_cyclic, subgroups
from braceforge.perms import identity_perm

from oracles import brace_isomorphic, oracle_brace_isomorphic, oracle_validate, transport


@pytest.mark.parametrize("label", ["C1", "C6", "S3", "Q8", "A4"])
def test_validate_accepts_trivial_and_almost_trivial(label):
    g = census_lookup(label)
    assert validate(g, g).dot is g
    assert validate(g, g.opposite()).circ.table == g.opposite().table


def test_validate_rejects_order_mismatch():
    with pytest.raises(BraceValidationError, match="order mismatch"):
        validate(make_cyclic(2), make_cyclic(3))


def test_validate_reports_a_real_violating_triple():
    # on a group of prime order the only compatible circ table is dot itself,
    # so any relabeled copy must fail
    dot = make_cyclic(5)
    circ = transport(dot, (0, 2, 1, 3, 4))
    assert circ.table != dot.table
    with pytest.raises(BraceRelationError) as exc:
        validate(dot, circ)
    a, b, c = exc.value.triple
    dt, ct, inv = dot.table, circ.table, dot.inv
    # recompute both sides of the relation at the reported triple
    lhs = ct[a][dt[b][c]]
    rhs = dt[dt[ct[a][b]][inv[a]]][ct[a][c]]
    assert lhs != rhs


def test_validate_names_the_first_violating_triple():
    # the relabelled C5 above: the generator check finds it, the n^3 scan names it
    dot = make_cyclic(5)
    circ = transport(dot, (0, 2, 1, 3, 4))
    with pytest.raises(BraceRelationError) as fast:
        validate(dot, circ)
    with pytest.raises(BraceRelationError) as cubic:
        oracle_validate(dot, circ)
    assert fast.value.triple == (1, 1, 1)
    assert str(fast.value) == "compatibility fails at (a, b, c) = (1, 1, 1)"
    assert (cubic.value.triple, str(cubic.value)) == (fast.value.triple, str(fast.value))


def test_trivial_and_almost_trivial_flags():
    s3 = census_lookup("S3")
    t = trivial(s3)
    at = almost_trivial(s3)
    assert t.is_trivial and t.is_almost_trivial is False
    assert at.is_almost_trivial and at.is_trivial is False
    c6 = census_lookup("C6")
    # on an abelian group the two constructions coincide
    assert almost_trivial(c6).is_trivial


def test_gamma_of_trivial_brace_is_identity(census15):
    for e in census(8):
        b = trivial(e.group)
        ident = identity_perm(e.order)
        assert gamma(b).maps == tuple(ident for _ in range(e.order))


def test_gamma_of_almost_trivial_is_conjugation():
    g = census_lookup("S3")
    b = almost_trivial(g)
    maps, t = gamma(b).maps, g.table
    for a in range(g.order):
        for x in range(g.order):
            assert maps[a][x] == t[t[g.inv[a]][x]][a]  # a^-1 * x * a


def test_left_ideal_status_requires_identity():
    b = trivial(census_lookup("C4"))
    with pytest.raises(ValueError, match="identity 0"):
        left_ideal_status(b, [])
    with pytest.raises(ValueError, match="identity 0"):
        left_ideal_status(b, [1, 2])


def test_left_ideal_status_failure_kinds():
    b = almost_trivial(census_lookup("S3"))
    not_closed = left_ideal_status(b, [0, 1])
    assert not not_closed.is_left_ideal
    assert not_closed.failure_kind == "dot-closure"
    assert not_closed.failing_pair == (1, 1)

    # {0, 3} is the subgroup generated by one reflection; conjugation moves it
    reflection = left_ideal_status(b, [0, 3])
    assert not reflection.is_left_ideal
    assert reflection.failure_kind == "gamma"
    a, x = reflection.failing_pair
    assert x in (0, 3) and gamma(b).maps[a][x] not in (0, 3)

    rotations = left_ideal_status(b, [0, 1, 2])
    assert rotations.is_left_ideal
    assert rotations.failing_pair is None and rotations.failure_kind is None


def test_left_ideals_of_trivial_brace_are_all_subgroups(census15):
    for e in census(12):
        b = trivial(e.group)
        assert left_ideals(b) == subgroups(e.group)


def test_left_ideals_of_almost_trivial_are_normal_subgroups(census15):
    for e in census(12):
        b = almost_trivial(e.group)
        expected = [s for s in subgroups(e.group) if is_normal(e.group, s)]
        assert left_ideals(b) == expected


def test_left_ideal_flags_match_the_exact_scan(census_braces):
    for b in census_braces:
        for g in (b.dot, b.circ):
            lattice = [s.members for s in subgroups(g)]
            exact = [left_ideal_status(b, ms) for ms in lattice]
            assert list(left_ideal_flags(b, lattice)) == exact, b.label


def _small_braces(braces_up_to_12, cap):
    return [b for b in braces_up_to_12 if b.order <= cap]


def test_brace_isomorphic_matches_oracle_up_to_order_6(braces_up_to_12):
    small = _small_braces(braces_up_to_12, 6)
    for i, x in enumerate(small):
        for y in small[i:]:
            if x.order != y.order:
                continue
            got = brace_isomorphic(x, y)
            assert (got is not None) == oracle_brace_isomorphic(x, y), (x.label, y.label)
            if got is not None:
                n = x.order
                for a in range(n):
                    for b in range(n):
                        assert got[x.dot.table[a][b]] == y.dot.table[got[a]][got[b]]
                        assert got[x.circ.table[a][b]] == y.circ.table[got[a]][got[b]]


def test_brace_isomorphic_distinguishes_dot_circ_pairing():
    # same pair of groups, opposite roles: (C4, V4) vs (V4, C4) braces at order 4
    from braceforge.enumeration import enumerate_circ
    c4 = enumerate_circ(census_lookup("C4")).operations
    v4 = enumerate_circ(census_lookup("C2xC2")).operations
    mixed_c4 = [b for b in c4 if b.circ.table != b.dot.table]
    mixed_v4 = [b for b in v4 if not b.circ.element_orders == b.dot.element_orders]
    assert mixed_c4 and mixed_v4
    assert brace_isomorphic(mixed_c4[0], mixed_v4[0]) is None


def test_skew_brace_equality_ignores_label():
    g = census_lookup("C3")
    assert SkewBrace(dot=g, circ=g, label="x") == SkewBrace(dot=g, circ=g, label="y")
