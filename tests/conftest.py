from __future__ import annotations

import pytest

from braceforge.census import census
from braceforge.enumeration import enumerate_circ


@pytest.fixture(scope="session")
def census15():
    return census(15)


@pytest.fixture(scope="session")
def braces_up_to_12(census15):
    """Every compatible operation on every census group of order <= 12."""
    out = []
    for e in census15:
        if e.order <= 12:
            out.extend(enumerate_circ(e.group).operations)
    return out


@pytest.fixture(scope="session")
def census_braces(census15):
    """All 498 compatible operations on the census groups."""
    return [b for e in census15 for b in enumerate_circ(e.group).operations]
