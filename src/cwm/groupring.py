"""Exact arithmetic in the group ring Z[Z_n] in polynomial form.

A circulant weighing matrix CW(n,k) is identified with its first row,
viewed as an element A of Z[X]/(X^n - 1) with coefficients in {-1,0,+1}
satisfying A * conjugate(A) = k.  Allowing coefficients up to m in
absolute value gives the integer variant ICW_m(n,k).  Everything here is
plain integer arithmetic; Python integers are exact, so products can
never overflow or wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional


class WitnessFormatError(ValueError):
    """Raised when a witness file does not match the expected format."""


@dataclass(frozen=True)
class GroupRingElement:
    """Element of Z[Z_n]: coeffs[i] is the coefficient of X^i."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"need exactly {self.order} coefficients, got {len(self.coeffs)}"
            )

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(compress(range(self.order), self.coeffs))

    @property
    def positives(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.coeffs) if a > 0)

    @property
    def negatives(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.coeffs) if a < 0)

    def max_abs_coeff(self) -> int:
        c = self.coeffs  # never empty: the order is at least 1
        return max(max(c), -min(c))

    def __str__(self):
        terms = []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            mag = "" if abs(a) == 1 else str(abs(a))
            base = "1" if i == 0 and abs(a) == 1 else ("" if i == 0 else f"X^{i}")
            txt = (mag + base) or "1"
            terms.append(("-" if a < 0 else "+") + txt)
        if not terms:
            return "0"
        out = " ".join(terms)
        return out[1:] if out.startswith("+") else ("-" + out[2:] if out.startswith("- ") else out)


def element(order: int, coeffs: Iterable[int]) -> GroupRingElement:
    return GroupRingElement(order, tuple(int(c) for c in coeffs))


def from_support(order: int, positives: Iterable[int] = (), negatives: Iterable[int] = ()) -> GroupRingElement:
    """Build a {-1,0,+1} element from the index sets P and N."""
    coeffs = [0] * order
    for i in positives:
        coeffs[i % order] += 1
    for i in negatives:
        coeffs[i % order] -= 1
    return GroupRingElement(order, tuple(coeffs))


def delta(order: int, index: int = 0, value: int = 1) -> GroupRingElement:
    coeffs = [0] * order
    coeffs[index % order] = value
    return GroupRingElement(order, tuple(coeffs))


def multiply(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Cyclic convolution modulo X^n - 1, exact in Z."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    n = a.order
    out = [0] * n
    # iterate over nonzero coefficients only; supports are tiny relative to n
    bs = [(j, bj) for j, bj in enumerate(b.coeffs) if bj]
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j, bj in bs:
            idx = i + j
            if idx >= n:
                idx -= n
            out[idx] += ai * bj
    return GroupRingElement(n, tuple(out))


def power_map(a: GroupRingElement, t: int) -> GroupRingElement:
    """Image of A under X -> X^t, i.e. coefficient of X^i moves to X^(i*t).

    t need not be coprime to n; when gcd(t, n) = d > 1 the coefficients
    accumulate on the subgroup of multiples of d.
    """
    n, coeffs = a.order, a.coeffs
    out = [0] * n
    for i in compress(range(n), coeffs):
        out[(i * t) % n] += coeffs[i]
    return GroupRingElement(n, tuple(out))


def conjugate(a: GroupRingElement) -> GroupRingElement:
    """A with X replaced by X^-1."""
    return power_map(a, -1)


def shift(a: GroupRingElement, s: int) -> GroupRingElement:
    """Multiply by X^s (cyclic shift of the coefficient vector)."""
    n = a.order
    s %= n
    return GroupRingElement(n, a.coeffs[-s:] + a.coeffs[:-s] if s else a.coeffs)


def negate(a: GroupRingElement) -> GroupRingElement:
    return GroupRingElement(a.order, tuple(-c for c in a.coeffs))


def fold(a: GroupRingElement, m: int) -> GroupRingElement:
    """Reduce modulo X^m - 1: coefficient i of the result sums a_{i+jm}.

    The folded coefficients are the intersection numbers of A with
    respect to the subgroup of index m.
    """
    n = a.order
    if m < 1 or n % m:
        raise ValueError(f"{m} does not divide the order {n}")
    out = [0] * m
    for i, ai in enumerate(a.coeffs):
        if ai:
            out[i % m] += ai
    return GroupRingElement(m, tuple(out))


def weight(a: GroupRingElement) -> Optional[int]:
    """The k with A * conjugate(A) = k, or None when the product has a
    nonzero coefficient off X^0 (A is no weighing matrix).

    The autocorrelation sum runs over the support only, so a sparse
    witness of large order costs O(k^2) products plus O(n) C-level scans."""
    n, coeffs = a.order, a.coeffs
    terms = [(i, coeffs[i]) for i in compress(range(n), coeffs)]
    acc = [0] * n
    for i, ai in terms:
        for j, aj in terms:
            acc[i - j] += ai * aj  # a negative index wraps to (i - j) mod n
    return None if any(acc[1:]) else acc[0]


def verify(a: GroupRingElement, k: int, coeff_bound: int = 1) -> bool:
    """True iff A is an ICW_coeff_bound(n, k): bounded coefficients and
    A * conjugate(A) = k.  coeff_bound=1 certifies an honest CW."""
    return a.max_abs_coeff() <= coeff_bound and weight(a) == k


@dataclass(frozen=True)
class WeightProfile:
    """Coefficient counts forced on any CW(n, s^2)."""

    s: int
    k: int
    positives: int
    negatives: int


def weight_profile(s: int) -> WeightProfile:
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    k = s * s
    return WeightProfile(s=s, k=k, positives=(k + s) // 2, negatives=(k - s) // 2)


def canonical_form(a: GroupRingElement) -> GroupRingElement:
    """Lexicographically least coefficient vector over the equivalence
    group generated by cyclic shifts, X -> X^t for gcd(t,n)=1, and
    global negation.

    A unit image equal to an earlier image or to its negation adds no new
    rotation, so it is skipped; an element fixed by X -> X^t repeats each
    image once per element of <t>."""
    n = a.order
    best: Optional[tuple[int, ...]] = None
    seen: set[tuple[int, ...]] = set()
    for t in range(n):
        if math.gcd(t, n) != 1:
            continue
        mapped = power_map(a, t).coeffs
        if mapped in seen:
            continue
        negated = tuple(-c for c in mapped)
        seen.add(mapped)
        seen.add(negated)
        for vec in (mapped, negated):
            doubled = vec + vec
            least = min(doubled[s : s + n] for s in range(n))
            if best is None or least < best:
                best = least
    return GroupRingElement(n, best)


def are_equivalent(a: GroupRingElement, b: GroupRingElement) -> bool:
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    return canonical_form(a) == canonical_form(b)


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def proper_decomposition(a: GroupRingElement) -> Optional[tuple[int, GroupRingElement]]:
    """If some equivalent form of A equals B(X^d) for d > 1, return (d, B).

    Returns None iff A is proper.  A translate of A is supported on the
    subgroup dZ_n exactly when all support indices agree modulo d, and
    automorphisms X -> X^t preserve that property, so checking support
    congruences per divisor is an exhaustive equivalence search.
    """
    n = a.order
    k = weight(a)
    if k is None or k <= 0:
        raise ValueError("input does not verify as an ICW")
    supp = a.support
    if not supp:
        raise ValueError("zero element has no decomposition")
    for d in _divisors(n)[1:]:
        base = supp[0] % d
        if all(i % d == base for i in supp):
            shifted = shift(a, -base)  # support now on multiples of d
            m = n // d
            b = GroupRingElement(m, tuple(shifted.coeffs[d * i] for i in range(m)))
            if verify(b, k, a.max_abs_coeff()):
                return d, b
    return None


def witness_format(a: GroupRingElement, k: int, coeff_bound: int = 1) -> str:
    """Two-line witness text: header then the n coefficients."""
    head = f"CW {a.order} {k} {coeff_bound}"
    body = " ".join(str(c) for c in a.coeffs)
    return head + "\n" + body + "\n"


def witness_parse(text: str) -> tuple[GroupRingElement, int, int]:
    """Parse the witness format; returns (element, k, coeff_bound).

    Rejects malformed headers, wrong coefficient counts, and
    coefficients exceeding the declared bound.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise WitnessFormatError(f"expected 2 nonempty lines, got {len(lines)}")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "CW":
        raise WitnessFormatError(f"bad header: {lines[0]!r}")
    try:
        n, k, bound = int(head[1]), int(head[2]), int(head[3])
    except ValueError as exc:
        raise WitnessFormatError(f"non-integer header field in {lines[0]!r}") from exc
    if n < 1 or k < 1 or bound < 1:
        raise WitnessFormatError(f"header values out of range: {lines[0]!r}")
    try:
        coeffs = [int(tok) for tok in lines[1].split()]
    except ValueError as exc:
        raise WitnessFormatError("non-integer coefficient") from exc
    if len(coeffs) != n:
        raise WitnessFormatError(f"expected {n} coefficients, got {len(coeffs)}")
    if max(max(coeffs), -min(coeffs)) > bound:  # n >= 1, so coeffs is not empty
        raise WitnessFormatError(f"coefficient exceeds bound {bound}")
    return GroupRingElement(n, tuple(coeffs)), k, bound
