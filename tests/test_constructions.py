"""The five explicit brace families: types, gamma tables, and the structural
facts that make each one interesting (subgroups that fail to be ideals, the
hidden isomorphism in the shear family, kappa independence)."""

from __future__ import annotations

import pytest

from braceforge.braces import left_ideal_status, validate
from braceforge.census import census_label, label_or_unknown
from braceforge.constructions import (brace_order4_nontrivial, example_c2cubed,
                                      example_cn_even, example_p_odd, example_pq,
                                      example_q8, least_kappa)
from braceforge.groups import make_abelian, make_cyclic, semidirect_product, subgroups
from braceforge.morphisms import are_isomorphic

from gamma_checks import (check_c2cubed_gamma, check_cn_even_gamma,
                          check_order4_gamma, check_p_odd_gamma, check_pq_gamma,
                          check_q8_gamma)
from oracles import brace_isomorphic


def test_q8_types_and_gamma():
    b = example_q8()
    assert census_label(b.dot) == "Q8"
    assert census_label(b.circ) == "D8"
    check_q8_gamma(b)


def test_q8_circ_relations():
    b = example_q8()
    ct = b.circ.table
    # t o t = 0 and t o s o t = s^-1 in the circ group
    assert ct[4][4] == 0
    assert ct[ct[4][1]][4] == 3


def test_q8_witness_subgroup():
    b = example_q8()
    ct, dt = b.circ.table, b.dot.table
    # {0, t} is circ-closed but t . t = s^2, so it is not a dot-subgroup
    assert ct[4][4] == 0
    assert dt[4][4] == 2
    flag = left_ideal_status(b, [0, 4])
    assert not flag.is_left_ideal
    assert flag.failure_kind == "dot-closure"
    assert flag.failing_pair == (4, 4)


def test_c2cubed_types_and_gamma():
    b = example_c2cubed()
    assert census_label(b.dot) == "C2xC2xC2"
    assert census_label(b.circ) == "C2xC2xC2"
    check_c2cubed_gamma(b)


def test_c2cubed_witness_subgroup():
    b = example_c2cubed()
    # <t, u> = {0, 1, 2, 3} is a dot-subgroup but t o u = s t u
    assert b.circ.table[2][1] == 7
    flag = left_ideal_status(b, [0, 1, 2, 3])
    assert not flag.is_left_ideal
    assert flag.failure_kind == "gamma"
    a, x = flag.failing_pair
    from braceforge.braces import gamma
    assert x in (0, 1, 2, 3) and gamma(b).maps[a][x] not in (0, 1, 2, 3)


CN_CIRC_TYPES = {2: "C2", 4: "C2xC2", 6: "S3", 8: "D8", 10: "D10"}


@pytest.mark.parametrize("n", sorted(CN_CIRC_TYPES))
def test_cn_even_types_and_gamma(n):
    b = example_cn_even(n)
    assert census_label(b.dot) == f"C{n}"
    assert census_label(b.circ) == CN_CIRC_TYPES[n]
    check_cn_even_gamma(b, n)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_cn_even_witness_subgroup(n):
    b = example_cn_even(n)
    # {0, s} is circ-closed (s o s = 0) but s . s = s^2
    assert b.circ.table[1][1] == 0
    flag = left_ideal_status(b, [0, 1])
    assert not flag.is_left_ideal
    assert flag.failure_kind == "dot-closure"
    assert flag.failing_pair == (1, 1)


def test_cn_even_rejects_bad_n():
    with pytest.raises(ValueError, match="even"):
        example_cn_even(5)
    with pytest.raises(ValueError, match="even"):
        example_cn_even(0)


def test_pq_321_types_and_gamma():
    b = example_pq(3, 2, 1, 1)
    assert census_label(b.dot) == "C6"
    assert census_label(b.circ) == "S3"
    check_pq_gamma(b, 3, 2, 1, 1)


def test_pq_7311_types_and_gamma():
    b = example_pq(7, 3, 1, 1)
    assert b.order == 21
    assert are_isomorphic(b.dot, make_abelian([7, 3])) is not None
    kappa = least_kappa(7, 3, 1)
    action = [tuple((pow(kappa, j, 7) * x) % 7 for x in range(7)) for j in range(3)]
    reference = semidirect_product(make_cyclic(7), make_cyclic(3), action)
    assert are_isomorphic(b.circ, reference) is not None
    assert are_isomorphic(b.circ, b.dot) is None
    check_pq_gamma(b, 7, 3, 1, 1)


@pytest.mark.parametrize("p,q,n,m", [(3, 2, 1, 1), (7, 3, 1, 1)])
def test_pq_witness_conjugate_sylow(p, q, n, m):
    """A circ-conjugate of the Sylow q factor is circ-closed but not dot-closed."""
    b = example_pq(p, q, n, m)
    qm = q ** m
    ct = b.circ.table
    cinv = b.circ.inv
    sigma = qm  # index of (s, 1)
    moved = sorted(ct[ct[sigma][j]][cinv[sigma]] for j in range(qm))
    assert moved != list(range(qm))
    # conjugation preserves circ-closure
    for a in moved:
        assert all(ct[a][x] in moved for x in moved)
    flag = left_ideal_status(b, moved)
    assert not flag.is_left_ideal
    assert flag.failure_kind == "dot-closure"


@pytest.mark.parametrize("p,q,n,m", [(3, 2, 1, 1), (7, 3, 1, 1)])
def test_pq_untouched_sylow_is_a_left_ideal(p, q, n, m):
    # the q factor itself sits inside the fixed points of every gamma map
    b = example_pq(p, q, n, m)
    assert left_ideal_status(b, range(q ** m)).is_left_ideal


def test_pq_rejects_bad_parameters():
    with pytest.raises(ValueError, match="prime"):
        example_pq(4, 2, 1, 1)
    with pytest.raises(ValueError, match="divide"):
        example_pq(5, 3, 1, 1)
    with pytest.raises(ValueError, match="must be >= 1"):
        example_pq(3, 2, 0, 1)
    with pytest.raises(ValueError, match="order"):
        example_pq(7, 3, 1, 1, kappa=3)


def test_pq_kappa_choice_gives_isomorphic_braces():
    b2 = example_pq(7, 3, 1, 1, kappa=2)
    b4 = example_pq(7, 3, 1, 1, kappa=4)
    assert b2.circ.table != b4.circ.table
    check_pq_gamma(b4, 7, 3, 1, 1, kappa=4)
    assert brace_isomorphic(b2, b4) is not None


@pytest.mark.parametrize("p,q,n,expected", [(3, 2, 1, 2), (7, 3, 1, 2), (5, 2, 1, 4)])
def test_least_kappa_values(p, q, n, expected):
    k = least_kappa(p, q, n)
    assert k == expected
    assert pow(k, q, p ** n) == 1


def test_least_kappa_rejects_impossible_order():
    with pytest.raises(ValueError, match="no element"):
        least_kappa(5, 3, 1)


P_ODD_CASES = [(3, 1, 1), (5, 1, 1), (3, 2, 1)]


@pytest.mark.parametrize("p,n,m", P_ODD_CASES)
def test_p_odd_types_and_gamma(p, n, m):
    b = example_p_odd(p, n, m)
    assert are_isomorphic(b.dot, make_abelian([p ** n, p ** m])) is not None
    assert are_isomorphic(b.circ, b.dot) is not None
    check_p_odd_gamma(b, p, n, m)


def test_p_odd_311_census_types():
    b = example_p_odd(3, 1, 1)
    assert census_label(b.dot) == "C3xC3"
    assert census_label(b.circ) == "C3xC3"
    assert b.circ.table != b.dot.table


@pytest.mark.parametrize("p,n,m", P_ODD_CASES)
def test_p_odd_witness_subgroup(p, n, m):
    b = example_p_odd(p, n, m)
    pn, pm = p ** n, p ** m
    members = [i * pm for i in range(pn)]  # <s> in the dot group
    # s o s = s^2 t, so the subgroup is not circ-closed
    assert b.circ.table[pm][pm] == 2 * pm + 1
    assert b.circ.table[pm][pm] not in members
    flag = left_ideal_status(b, members)
    assert not flag.is_left_ideal
    assert flag.failure_kind == "gamma"


@pytest.mark.parametrize("p,n,m", P_ODD_CASES)
def test_p_odd_explicit_isomorphism(p, n, m):
    """(i, j) -> (i, j + i(i-1)/2) carries dot onto circ."""
    b = example_p_odd(p, n, m)
    pn, pm = p ** n, p ** m
    size = pn * pm
    f = [0] * size
    for i in range(pn):
        for j in range(pm):
            f[i * pm + j] = i * pm + ((j + i * (i - 1) // 2) % pm)
    assert sorted(f) == list(range(size))
    for a in range(size):
        for c in range(size):
            assert f[b.dot.table[a][c]] == b.circ.table[f[a]][f[c]]


def test_p_odd_rejects_bad_parameters():
    with pytest.raises(ValueError, match="odd"):
        example_p_odd(2, 1, 1)
    with pytest.raises(ValueError, match="prime"):
        example_p_odd(9, 1, 1)
    with pytest.raises(ValueError, match="n >= m"):
        example_p_odd(3, 1, 2)


def test_order4_types_and_gamma():
    b = brace_order4_nontrivial()
    assert census_label(b.dot) == "C2xC2"
    assert census_label(b.circ) == "C4"
    check_order4_gamma(b)


def test_order4_every_circ_subgroup_is_a_left_ideal():
    b = brace_order4_nontrivial()
    for s in subgroups(b.circ):
        assert left_ideal_status(b, s.members).is_left_ideal


def test_constructions_all_validate():
    # validate() already ran inside each constructor; re-run it explicitly
    for b in (example_q8(), example_c2cubed(), example_cn_even(6),
              example_pq(3, 2, 1, 1), example_p_odd(3, 1, 1),
              brace_order4_nontrivial()):
        again = validate(b.dot, b.circ)
        assert again.circ.table == b.circ.table
    assert label_or_unknown(example_pq(7, 3, 1, 1).dot) == "unknown-order-21"
