"""Permutations of 0..n-1 as tuples."""

from __future__ import annotations

from math import lcm
from typing import Sequence

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def is_permutation(p: Sequence[int]) -> bool:
    n = len(p)
    return sorted(p) == list(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: compose(p, q)(x) == p[q[x]]."""
    return tuple(map(p.__getitem__, q))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    """The lcm of the cycle lengths."""
    unseen = set(p)
    order = 1
    while unseen:
        start = unseen.pop()
        x = p[start]
        length = 1
        while x != start:
            unseen.remove(x)
            x = p[x]
            length += 1
        order = lcm(order, length)
    return order
