"""Brace validation, gamma maps, and left ideals against brute-force oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from braceforge import braces, enumeration
from braceforge.braces import (BraceRelationError, BraceValidationError, SkewBrace,
                               almost_trivial, gamma, left_ideal_flags, left_ideal_status,
                               left_ideals, trivial, validate)
from braceforge.census import census, census_lookup
from braceforge.groups import (FiniteGroup, is_normal, make_abelian, make_cyclic, relabel,
                               subgroups)
from braceforge.perms import identity_perm

from oracles import (brace_isomorphic, oracle_brace_isomorphic, oracle_is_almost_trivial,
                     oracle_validate, transport, transport_table)


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


def _outcome(dot, circ, check):
    try:
        return check(dot, circ)
    except BraceValidationError as exc:
        return type(exc), str(exc), getattr(exc, "triple", None)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_validate_on_checked_circ_groups_matches_the_cubic_check(data, census15, census_braces):
    # circ built by from_table, so validate may check the circ-generators
    # only: a group table of the dot group's order, from the census or from
    # any census enumeration, carried along a bijection fixing 0
    dot = data.draw(st.sampled_from([e.group for e in census15 if e.order > 1]))
    n = dot.order
    tables = [e.group.table for e in census15 if e.order == n]
    tables += [b.circ.table for b in census_braces if b.order == n]
    rows = data.draw(st.sampled_from(tables))
    f = [0] + (data.draw(st.permutations(range(1, n))) if data.draw(st.booleans())
               else list(range(1, n)))
    circ = FiniteGroup.from_table(transport_table(rows, f))
    assert _outcome(dot, circ, validate) == _outcome(dot, circ, oracle_validate)


def _compose_calls(monkeypatch, dot, circ):
    calls = 0
    compose = braces.compose

    def counting(p, q):
        nonlocal calls
        calls += 1
        return compose(p, q)

    with monkeypatch.context() as m:
        m.setattr(braces, "compose", counting)
        validate(dot, circ)
    return calls


def test_validate_checks_circ_generators_only_on_checked_groups(monkeypatch, census_braces):
    assert len(census_braces) == 498
    for b in census_braces:
        n, kd, kc = b.order, len(b.dot.generating_indices), len(b.circ.generating_indices)
        unchecked = FiniteGroup(b.circ.table, b.circ.inv)
        assert _compose_calls(monkeypatch, b.dot, b.circ) <= 2 * kc * kd, b.label
        assert _compose_calls(monkeypatch, b.dot, unchecked) == 2 * n * kd, b.label
        # relabel keeps the mark exactly when its argument had it
        assert _compose_calls(monkeypatch, b.dot, relabel(b.circ, "x")) <= 2 * kc * kd
        assert _compose_calls(monkeypatch, b.dot, relabel(unchecked, "x")) == 2 * n * kd


def test_only_from_table_marks_a_group_checked(monkeypatch):
    # C6 has one generator, so the short path is 2 calls and the full one 12
    c6 = make_cyclic(6)
    checked = FiniteGroup.from_table(c6.table)
    assert _compose_calls(monkeypatch, c6, checked) == 2
    assert _compose_calls(monkeypatch, c6, relabel(checked, "x")) == 2
    for circ in (c6, FiniteGroup(c6.table, c6.inv), checked.opposite(), relabel(c6, "x")):
        assert _compose_calls(monkeypatch, c6, circ) == 12


def test_trivial_and_almost_trivial_flags():
    s3 = census_lookup("S3")
    t = trivial(s3)
    at = almost_trivial(s3)
    assert t.is_trivial and t.is_almost_trivial is False
    assert at.is_almost_trivial and at.is_trivial is False
    c6 = census_lookup("C6")
    # on an abelian group the two constructions coincide
    assert almost_trivial(c6).is_trivial


def test_almost_trivial_flag_matches_the_entrywise_oracle(census15, census_braces):
    checked = list(census_braces)
    for e in census15:
        checked += [trivial(e.group), almost_trivial(e.group)]
    c4xc4 = make_abelian([4, 4])
    checked += [validate(c4xc4, FiniteGroup.from_table(t))
                for t in enumeration._regular_subgroup_tables(c4xc4)]
    assert len(checked) == 498 + 2 * 28 + 880
    assert [b.is_almost_trivial for b in checked] == list(map(oracle_is_almost_trivial, checked))
    assert sum(b.is_almost_trivial for b in census_braces) == 28


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
