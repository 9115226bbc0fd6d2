"""Building new circulant weighing matrices from old ones.

Covers multiples B(X^d), the coprime-order Kronecker product, the
doubling sum (1 - X^n)B(X) + (1 + X^n)C(X^2), the proper weight-16
family on orders 14m (an instance of the doubling sum), and the
parameter list predicted by the relative difference set construction.
"""

from __future__ import annotations

import math
from itertools import combinations

from .groupring import GroupRingElement, from_support, proper_decomposition, shift, verify, weight
from .numbertheory import crt_combine, is_prime_power

# the weight-4 matrix of order 7: -1 + X + X^2 + X^4
CW7_4 = GroupRingElement(7, (-1, 1, 1, 0, 1, 0, 0))


def _weight_of(a: GroupRingElement) -> int:
    k = weight(a)
    if k is None:
        raise ValueError("input does not verify as a weighing matrix")
    return k


def multiple(b: GroupRingElement, d: int) -> GroupRingElement:
    """B(X^d) on Z_{d * order}: same weight, support spread onto dZ."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    n = b.order * d
    coeffs = [0] * n
    coeffs[::d] = b.coeffs
    return GroupRingElement(n, tuple(coeffs))


def kronecker(a1: GroupRingElement, a2: GroupRingElement) -> GroupRingElement:
    """Product matrix on Z_{n1*n2} for coprime orders: the coefficient at
    the CRT image of (i, j) is a1[i] * a2[j].  Weights multiply."""
    n1, n2 = a1.order, a2.order
    if math.gcd(n1, n2) != 1:
        raise ValueError(f"orders {n1} and {n2} are not coprime")
    k1, k2 = _weight_of(a1), _weight_of(a2)
    coeffs = [0] * (n1 * n2)
    for i, c1 in enumerate(a1.coeffs):
        if not c1:
            continue
        for j, c2 in enumerate(a2.coeffs):
            if c2:
                coeffs[crt_combine(n1, n2, i, j)] = c1 * c2
    out = GroupRingElement(n1 * n2, tuple(coeffs))
    if not verify(out, k1 * k2, a1.max_abs_coeff() * a2.max_abs_coeff()):
        raise AssertionError("kronecker product failed verification")
    return out


def _doubling(b: GroupRingElement, d: GroupRingElement, k: int) -> GroupRingElement:
    """(1 - X^n) B + (1 + X^n) D on Z_2n, weight 4k, for B and D of order
    2n whose supports, and those of X^n B and X^n D, are pairwise disjoint;
    each coefficient is one of B or D, so their larger bound holds."""
    n = b.order // 2
    xb, xd = shift(b, n), shift(d, n)
    parts = {"B": b, "X^n B": xb, "D": d, "X^n D": xd}
    for (x, ex), (y, ey) in combinations(parts.items(), 2):
        overlap = set(ex.support) & set(ey.support)
        if overlap:
            raise ValueError(f"supports of {x} and {y} overlap at {sorted(overlap)}")
    terms = zip(b.coeffs, xb.coeffs, d.coeffs, xd.coeffs)
    out = GroupRingElement(b.order, tuple(p - q + r + t for p, q, r, t in terms))
    if not verify(out, 4 * k, max(b.max_abs_coeff(), d.max_abs_coeff())):
        raise AssertionError("doubling construction failed verification")
    return out


def type_ii(b: GroupRingElement, c: GroupRingElement) -> GroupRingElement:
    """(1 - X^n) B(X) + (1 + X^n) C(X^2) on Z_2n, weight 4k.

    B must be a weight-k matrix of order 2n and C one of order n; the
    supports of B, X^n B, C(X^2), X^n C(X^2) must be pairwise disjoint
    (an overlap error names C(X^2) as D).
    """
    if b.order != 2 * c.order:
        raise ValueError(f"order of B ({b.order}) must be twice order of C ({c.order})")
    kb, kc = _weight_of(b), _weight_of(c)
    if kb != kc:
        raise ValueError(f"weights differ: {kb} vs {kc}")
    return _doubling(b, multiple(c, 2), kb)


def cw14m_family(m: int) -> GroupRingElement:
    """The proper weight-16 matrix of order 14m for m >= 2:

        (1 - X^{7m}) C(X^{2m}) + (1 + X^{7m}) X C(X^m)

    with C the weight-4 matrix of order 7: the doubling sum of B = C(X^{2m})
    and D = X C(X^m).  The four summands have disjoint supports for m >= 2,
    and the result is proper because the exponents 0, 1, 2m, 7m can share
    no common translate residue.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    n = 14 * m
    xc = from_support(  # X C(X^m)
        n, (m * i + 1 for i in CW7_4.positives), (m * i + 1 for i in CW7_4.negatives)
    )
    out = _doubling(multiple(CW7_4, 2 * m), xc, 4)
    if proper_decomposition(out) is not None:
        raise AssertionError(f"order-{n} family element is not proper")
    return out


def prime_powers_up_to(q_max: int) -> list[int]:
    return [q for q in range(2, q_max + 1) if is_prime_power(q)]


def rds_proper_parameters(q_max: int) -> list[tuple[int, int]]:
    """Parameters (order, weight) of proper matrices guaranteed by cyclic
    relative difference sets: ((q^3 - 1)/n, q^2) for prime powers q and
    divisors n of q - 1 (n > 1 required when q is odd).  Existence
    metadata only; no witness is constructed."""
    out = []
    for q in prime_powers_up_to(q_max):
        divisors = [n for n in range(1, q) if (q - 1) % n == 0]
        if q % 2 == 1:
            divisors = [n for n in divisors if n > 1]
        for n in divisors:
            out.append(((q**3 - 1) // n, q * q))
    return sorted(set(out))
