"""Permutations of 0..n-1 as tuples."""

from __future__ import annotations

from typing import Sequence

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def is_permutation(p: Sequence[int]) -> bool:
    n = len(p)
    return sorted(p) == list(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: compose(p, q)(x) == p[q[x]]."""
    return tuple(p[i] for i in q)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    ident = identity_perm(len(p))
    q = p
    k = 1
    while q != ident:
        q = compose(q, p)
        k += 1
    return k
