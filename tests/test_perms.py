import pytest

from braceforge.perms import compose, identity_perm, invert, is_permutation, perm_order


def test_identity_perm():
    assert identity_perm(4) == (0, 1, 2, 3)
    assert identity_perm(0) == ()


def test_is_permutation():
    assert is_permutation((2, 0, 1))
    assert not is_permutation((0, 0, 1))
    assert not is_permutation((1, 2, 3))


def test_compose_applies_left_after_right():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # (p . q)(x) = p[q[x]]
    assert compose(p, q) == (1, 0, 2)
    assert compose(identity_perm(3), p) == p
    assert compose(p, identity_perm(3)) == p


def test_invert():
    p = (2, 0, 3, 1)
    assert compose(p, invert(p)) == identity_perm(4)
    assert compose(invert(p), p) == identity_perm(4)


@pytest.mark.parametrize("p, expected", [
    ((0, 1, 2), 1),
    ((1, 0, 2), 2),
    ((1, 2, 0), 3),
    ((1, 0, 3, 2), 2),
    ((1, 2, 3, 0), 4),
    ((1, 0, 3, 4, 2), 6),
])
def test_perm_order(p, expected):
    assert perm_order(p) == expected
