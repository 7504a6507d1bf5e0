import pytest

from oracles import (is_normal, oracle_center, oracle_closure_of, oracle_order_of,
                     oracle_from_table, oracle_generating_indices,
                     oracle_layered_subgroups, oracle_subgroups, transport)

from braceforge import groups
from braceforge.census import census_lookup
from braceforge.enumeration import enumerate_circ
from braceforge.groups import (CayleyTableError, FiniteGroup, Subgroup, cyclic_subgroups,
                               direct_product, make_abelian,
                               make_alternating4, make_cyclic, make_dicyclic,
                               make_dihedral, make_quaternion8, relabel,
                               semidirect_product, subgroups)


# ---------------------------------------------------------------------------
# Table validation
# ---------------------------------------------------------------------------

def test_from_table_rejects_empty():
    with pytest.raises(CayleyTableError, match="empty"):
        FiniteGroup.from_table([])


def test_from_table_rejects_ragged_row():
    with pytest.raises(CayleyTableError, match="row 1"):
        FiniteGroup.from_table([[0, 1], [1]])


def test_from_table_rejects_out_of_range_entry():
    with pytest.raises(CayleyTableError, match="out of range"):
        FiniteGroup.from_table([[0, 1], [1, 5]])


def test_from_table_rejects_bool_entries():
    # a bool table would be written back as JSON true, which group_from_obj refuses
    with pytest.raises(CayleyTableError, match=r"table\[0\]\[1\] = True"):
        FiniteGroup.from_table([[0, True], [True, 0]])


def test_from_table_rejects_missing_identity():
    # 0 must act as identity on both sides
    with pytest.raises(CayleyTableError, match="identity"):
        FiniteGroup.from_table([[1, 0], [0, 1]])


def test_from_table_rejects_non_associative():
    # a quasigroup table with identity 0 that fails (1*1)*2 = 1*(1*2)
    rows = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(CayleyTableError, match="not associative at"):
        FiniteGroup.from_table(rows)


def test_from_table_names_the_first_non_associative_triple():
    # the quasigroup above: the generator check finds it, the n^3 scan names it
    rows = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(CayleyTableError) as fast:
        FiniteGroup.from_table(rows)
    with pytest.raises(CayleyTableError) as cubic:
        oracle_from_table(rows)
    assert str(fast.value) == "not associative at (1, 1, 2)"
    assert str(cubic.value) == str(fast.value)


def test_from_table_seeds_the_greedy_generating_set(census15):
    groups = [e.group for e in census15]
    circs = [b.circ for g in groups for b in enumerate_circ(g).operations]
    assert len(groups) == 28 and len(circs) == 498
    for g in groups + circs:
        built = FiniteGroup.from_table(g.table)
        assert "generating_indices" in vars(built)
        assert built.generating_indices == oracle_generating_indices(g), g.label
        assert g.generating_indices == built.generating_indices


def _reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1: the
    loops on 0..n-1 with identity 0, so each passes the shape, range and
    identity checks, and each row holds exactly one 0."""
    rows = [list(range(n))] + [[a] + [0] * (n - 1) for a in range(1, n)]
    in_col = [{b} for b in range(n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i):
        if i == len(cells):
            yield tuple(map(tuple, rows))
            return
        a, b = cells[i]
        for v in range(n):
            if v not in in_col[b] and v not in rows[a][:b]:
                rows[a][b] = v
                in_col[b].add(v)
                yield from fill(i + 1)
                in_col[b].discard(v)
    return list(fill(0))


def _outcome(gate, rows):
    try:
        return gate(rows)
    except CayleyTableError as exc:
        return str(exc)


@pytest.mark.parametrize("n, squares, non_associative, groups_found",
                         [(5, 56, 2, 6), (6, 9408, 1728, 80)])
def test_from_table_matches_the_cubic_check_on_every_reduced_latin_square(
        n, squares, non_associative, groups_found):
    # unlike corrupted census tables, every loop reaches the inverse check,
    # and each one with two-sided inverses reaches Light's test
    tables = _reduced_latin_squares(n)
    assert len(tables) == squares
    results = [_outcome(FiniteGroup.from_table, t) for t in tables]
    assert results == [_outcome(oracle_from_table, t) for t in tables]
    assert sum(isinstance(r, str) and r.startswith("not associative at")
               for r in results) == non_associative
    found = [r for r in results if isinstance(r, FiniteGroup)]
    assert len(found) == groups_found
    assert all(g._axioms_checked for g in found)


def test_from_table_marks_the_two_smallest_groups_checked():
    # order 1 has no generator, so no row getter is built
    for rows in ([[0]], [[0, 1], [1, 0]]):
        assert FiniteGroup.from_table(rows)._axioms_checked


def test_from_table_builds_one_row_getter_per_generator(monkeypatch, census_braces):
    # a work bound that host load cannot move: Light's test composes through
    # one itemgetter per generator, not one per (row, generator) pair
    real = groups.itemgetter
    built = 0

    def counting(*items):
        nonlocal built
        built += 1
        return real(*items)
    monkeypatch.setattr(groups, "itemgetter", counting)
    assert len(census_braces) == 498
    for b in census_braces:
        built = 0
        g = FiniteGroup.from_table(b.circ.table)
        assert built == len(g.generating_indices), b.label


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def test_make_cyclic():
    g = make_cyclic(5)
    assert g.label == "C5"
    assert g.table[3][4] == 2
    assert g.inv[2] == 3
    assert g.is_cyclic and g.is_abelian


def test_make_abelian_indices():
    g = make_abelian([2, 3])
    # (x, y) -> x*3 + y
    assert g.table[1 * 3 + 2][1 * 3 + 2] == ((1 + 1) % 2) * 3 + ((2 + 2) % 3)
    assert g.label == "C2xC3"


def test_direct_product_matches_componentwise():
    a, b = make_cyclic(3), make_cyclic(4)
    p = direct_product(a, b)
    for x1 in range(3):
        for y1 in range(4):
            assert p.inv[x1 * 4 + y1] == a.inv[x1] * 4 + b.inv[y1]
            for x2 in range(3):
                for y2 in range(4):
                    lhs = p.table[x1 * 4 + y1][x2 * 4 + y2]
                    assert lhs == a.table[x1][x2] * 4 + b.table[y1][y2]


def test_make_dihedral_relations():
    g = make_dihedral(8)  # order 8, rotations r at indices 0..3, reflections at 4..7
    r, s = 1, 4
    assert g.element_orders[r] == 4
    assert g.element_orders[s] == 2
    # s r s^-1 = r^-1
    assert g.table[g.table[s][r]][g.inv[s]] == g.inv[r]


def test_make_dihedral_small_degenerates():
    assert make_dihedral(2).order == 2
    assert make_dihedral(4).is_abelian
    with pytest.raises(ValueError):
        make_dihedral(7)


def test_make_quaternion8():
    g = make_quaternion8()
    assert g.order == 8
    assert sorted(g.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(g.center) == 2
    assert not g.is_abelian


def test_make_dicyclic_orders():
    g = make_dicyclic(3)  # order 12, a of order 6, b of order 4
    assert g.order == 12
    assert g.element_orders[1] == 6
    assert g.element_orders[6] == 4
    assert g.table[g.table[6][1]][g.inv[6]] == g.inv[1]


def test_make_alternating4():
    g = make_alternating4()
    assert g.order == 12
    assert sorted(g.element_orders) == [1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]
    assert len(g.center) == 1


def test_semidirect_product_rejects_non_action():
    n, h = make_cyclic(3), make_cyclic(2)
    assert semidirect_product(n, h, [(0, 1, 2), (0, 2, 1)]).order == 6
    with pytest.raises(ValueError, match="not an automorphism"):
        semidirect_product(n, h, [(0, 1, 2), (1, 2, 0)])
    with pytest.raises(ValueError, match="not a homomorphism"):
        # inversion alone has order 2, but assigning it to the identity of H
        # breaks phi(y1*y2) = phi(y1) . phi(y2)
        semidirect_product(n, h, [(0, 2, 1), (0, 1, 2)])
    with pytest.raises(ValueError, match="one map per H element"):
        semidirect_product(n, h, [(0, 1, 2)])


def test_constructors_reject_degenerate_parameters():
    with pytest.raises(ValueError, match="order must be positive, got 0"):
        make_cyclic(0)
    with pytest.raises(ValueError, match="at least one factor"):
        make_abelian([])
    with pytest.raises(ValueError, match="must be >= 2, got 1"):
        make_dicyclic(1)
    n, h = make_cyclic(3), make_cyclic(2)
    for entry in [(0, 0, 1), (0, 1), (0, 1, 2, 3)]:
        with pytest.raises(ValueError, match=r"action\[1\] is not a permutation of 0\.\.2"):
            semidirect_product(n, h, [(0, 1, 2), entry])


def test_semidirect_product_s3_structure():
    s3 = semidirect_product(make_cyclic(3), make_cyclic(2), [(0, 1, 2), (0, 2, 1)])
    assert not s3.is_abelian
    assert sorted(s3.element_orders) == [1, 2, 2, 2, 3, 3]


# ---------------------------------------------------------------------------
# Element queries against the oracle
# ---------------------------------------------------------------------------

def test_element_orders_match_oracle(census15):
    for e in census15:
        for a in range(e.order):
            assert e.group.element_orders[a] == oracle_order_of(e.group, a)


def test_center_is_commuting_set(census15, census_braces):
    c2 = make_cyclic(2)
    extra = [direct_product(make_dihedral(8), c2), direct_product(make_quaternion8(), c2)]
    circs = {b.circ for b in census_braces}
    for g in [e.group for e in census15] + list(circs) + extra:
        assert g.center == oracle_center(g), g.label
    assert [len(g.center) for g in extra] == [4, 4]


def test_opposite_reverses_products():
    g = make_dihedral(6)
    op = g.opposite()
    for a in range(6):
        for b in range(6):
            assert op.table[a][b] == g.table[b][a]


def test_transport_relabels_consistently():
    g = make_cyclic(4)
    f = (0, 2, 1, 3)
    t = transport(g, f)
    for a in range(4):
        for b in range(4):
            assert t.table[f[a]][f[b]] == f[g.table[a][b]]
    with pytest.raises(ValueError):
        transport(g, (1, 0, 2, 3))  # must fix the identity


def test_relabel_keeps_table():
    g = relabel(make_cyclic(3), "Z3")
    assert g.label == "Z3"
    assert g.table == make_cyclic(3).table


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

def test_subgroups_match_oracle(census15):
    for e in census15:
        if e.order > 12:
            continue
        fast = [s.members for s in subgroups(e.group)]
        assert fast == oracle_subgroups(e.group)


def test_subgroups_match_closure_layering_on_census_and_circ_groups(census15):
    circs = [b.circ for e in census15 for b in enumerate_circ(e.group).operations]
    assert len(circs) == 498
    for g in [e.group for e in census15] + circs:
        assert [s.members for s in subgroups(g)] == oracle_layered_subgroups(g), g.label


ORDER_16 = {
    "C4xC4": lambda: make_abelian([4, 4]),
    "C2^4": lambda: make_abelian([2, 2, 2, 2]),
    "C4xC2xC2": lambda: make_abelian([4, 2, 2]),
    "D16": lambda: make_dihedral(16),
    "Q8xC2": lambda: direct_product(make_quaternion8(), make_cyclic(2)),
}


@pytest.mark.parametrize("name", sorted(ORDER_16))
def test_subgroups_match_oracles_at_order_16(name):
    g = ORDER_16[name]()
    fast = [s.members for s in subgroups(g)]
    assert fast == oracle_layered_subgroups(g)
    assert fast == oracle_subgroups(g)


def _cyclic_members_of_the_lattice(g):
    return [s.members for s in subgroups(g)
            if s.order in {g.element_orders[m] for m in s.members}]


def test_cyclic_subgroups_are_the_cyclic_lattice_members(census15, census_braces):
    groups16 = [make() for make in ORDER_16.values()]
    for g in [e.group for e in census15] + [b.circ for b in census_braces] + groups16:
        assert [s.members for s in cyclic_subgroups(g)] == _cyclic_members_of_the_lattice(g)


@pytest.mark.parametrize("label", ["C2xC2xC2", "C12"])
def test_subgroups_joins_at_most_lattice_times_cyclic(monkeypatch, label):
    """At most one join per (subgroup, cyclic subgroup) pair.  On C12 one
    closure per (subgroup, element) pair would be 44 > 6 * 5; on C2xC2xC2 each
    element generates its own cyclic subgroup, so the two counts coincide."""
    g = census_lookup(label)
    cyclic = {oracle_closure_of(g, [a]) for a in g.elements()} - {(0,)}
    close = groups._close
    joins = 0

    def counting_close(*args):
        nonlocal joins
        joins += 1
        close(*args)

    monkeypatch.setattr(groups, "_close", counting_close)
    lattice = subgroups(g)
    assert 0 < joins <= len(lattice) * len(cyclic)


def test_subgroups_sorted_by_size_then_members():
    subs = [s.members for s in subgroups(make_dihedral(8))]
    assert subs == sorted(subs, key=lambda m: (len(m), m))


def test_is_normal():
    g = make_dihedral(6)
    rotations = Subgroup((0, 1, 2))
    reflection = Subgroup((0, 3))
    assert is_normal(g, rotations)
    assert not is_normal(g, reflection)
