"""The two trust gates, FiniteGroup.from_table and braces.validate, against
the n^3 checks in tests/oracles.py: on corrupted, foreign and relabelled
tables both must accept the same inputs and reject the rest with the same
exception class, message and first violating triple."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from braceforge.braces import BraceValidationError, validate
from braceforge.census import census
from braceforge.enumeration import enumerate_circ
from braceforge.groups import CayleyTableError, FiniteGroup

from oracles import oracle_from_table, oracle_validate

GROUPS = [e.group for e in census()]
CIRCS = {g.label: [b.circ.table for b in enumerate_circ(g).operations] for g in GROUPS}
TABLES = [g.table for g in GROUPS] + [t for ts in CIRCS.values() for t in ts]


def outcome(gate, *args):
    try:
        return gate(*args)
    except (CayleyTableError, BraceValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "triple", None)


def corrupt(data, table, values):
    """The table with one entry changed to another of the given values."""
    n = len(table)
    rows = [list(r) for r in table]
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[a][b] = data.draw(st.sampled_from([v for v in values(n) if v != table[a][b]]))
    return rows


def relabel(data, table):
    """The table carried along a random bijection fixing 0."""
    n = len(table)
    f = [0] + data.draw(st.permutations(range(1, n))) if n > 1 else [0]
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[f[a]][f[b]] = f[table[a][b]]
    return rows


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_from_table_matches_the_cubic_check_on_corrupted_tables(data):
    table = data.draw(st.sampled_from(TABLES))
    rows = corrupt(data, table, lambda n: range(-1, n + 1))
    assert outcome(FiniteGroup.from_table, rows) == outcome(oracle_from_table, rows)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_validate_matches_the_cubic_check(data):
    dot = data.draw(st.sampled_from([g for g in GROUPS if g.order > 1]))
    # a circ table of the dot group's own enumeration or of another group of
    # that order, maybe relabelled, maybe with one entry changed; validate
    # reads only the circ rows, which need not form a group
    owner = data.draw(st.sampled_from([g for g in GROUPS if g.order == dot.order]))
    rows = data.draw(st.sampled_from(CIRCS[owner.label]))
    if data.draw(st.booleans()):
        rows = relabel(data, rows)
    if data.draw(st.booleans()):
        rows = corrupt(data, rows, range)
    circ = FiniteGroup(table=tuple(map(tuple, rows)), inv=())
    assert outcome(validate, dot, circ) == outcome(oracle_validate, dot, circ)
