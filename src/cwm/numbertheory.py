"""Multiplicative structure of Z_n: orbits under a multiplier, orders,
self-conjugacy, and multiplier derivation for weighing-matrix searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Optional, Sequence


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of Z_n into orbits of x -> t*x for gcd(t, n) = 1.

    Orbits are stored as (representative, sorted members) with the
    representative being the least member; the list is ordered by
    representative, so the orbit of 0 comes first.
    """

    modulus: int
    multiplier: int
    orbits: tuple[tuple[int, tuple[int, ...]], ...]
    index: tuple[int, ...]  # element -> orbit position

    @property
    def reps(self) -> tuple[int, ...]:
        return tuple(rep for rep, _ in self.orbits)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(members) for _, members in self.orbits)

    @cached_property
    def shifts(self) -> tuple[int, ...]:
        """One nonzero shift g per orbit, taking g or -g once.

        A vector fixed by x -> t*x has an autocorrelation c_g = sum a_i a_(i+g)
        with c_(tg) = c_g, and every autocorrelation has c_(-g) = c_g, so the
        off-peak autocorrelation vanishes iff it vanishes at these shifts."""
        return tuple(
            rep for oid, (rep, _) in enumerate(self.orbits) if rep and self.orbit_of(-rep) >= oid
        )

    def orbit_of(self, x: int) -> int:
        return self.index[x % self.modulus]

    def expand(self, values: Sequence[int]) -> tuple[int, ...]:
        """Vector over Z_modulus carrying values[i] on every member of orbit i."""
        vec = [0] * self.modulus
        for (_, members), b in zip(self.orbits, values):
            if b:
                for x in members:
                    vec[x] = b
        return tuple(vec)

    def off_peak_vanishes(self, vec: tuple[int, ...]) -> bool:
        """True iff the autocorrelation of vec, a vector over Z_modulus fixed
        by the multiplier, is zero at every shift but 0."""
        return not any(sum(map(mul, vec, vec[g:] + vec[:g])) for g in self.shifts)

    def weighs(self, values: Sequence[int], k: int) -> bool:
        """True iff B = expand(values) satisfies B B^(-1) = k, as every fold of
        a CW(n, k) does (the compression of Dokovic and Kotsireas, DCC 74 (2015))."""
        if sum(b * b * size for b, size in zip(values, self.sizes)) != k:
            return False
        return self.off_peak_vanishes(self.expand(values))

    def spread(self, onto: "OrbitPartition") -> tuple[tuple[int, int], ...]:
        """For each orbit, the orbit of onto (Z_q, q | modulus, under the same
        multiplier) it reduces into mod q, and the times it covers each member
        of that orbit: reduction commutes with x -> t*x, so it covers them evenly."""
        q = onto.modulus
        if self.modulus % q or (self.multiplier - onto.multiplier) % q:
            raise ValueError(f"Z_{q} under {onto.multiplier} is no quotient of this partition")
        ids = [onto.orbit_of(rep) for rep, _ in self.orbits]
        return tuple((qid, size // onto.sizes[qid]) for qid, size in zip(ids, self.sizes))

    def __len__(self):
        return len(self.orbits)


def orbits(n: int, t: int) -> OrbitPartition:
    """Orbits of Z_n under multiplication by t; requires gcd(t, n) = 1."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if math.gcd(t, n) != 1:
        raise ValueError(f"multiplier {t} is not coprime to {n}")
    t %= n
    seen = [False] * n
    orbs = []
    for a in range(n):
        if seen[a]:
            continue
        members = []
        x = a
        while not seen[x]:
            seen[x] = True
            members.append(x)
            x = (x * t) % n
        orbs.append((a, tuple(sorted(members))))
    orbs.sort()
    index = [0] * n
    for oid, (_, members) in enumerate(orbs):
        for x in members:
            index[x] = oid
    return OrbitPartition(n, t, tuple(orbs), tuple(index))


def multiplicative_order(t: int, n: int) -> int:
    """Least e >= 1 with t^e = 1 (mod n)."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if math.gcd(t, n) != 1:
        raise ValueError(f"{t} is not coprime to {n}")
    return len(powers(t, n))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (fine for the sizes in scope)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime_power(k: int) -> Optional[tuple[int, int]]:
    """(p, e) with k = p^e, or None."""
    if k < 2:
        return None
    fac = factorize(k)
    if len(fac) != 1:
        return None
    p, e = next(iter(fac.items()))
    return p, e


def coprime_part(n: int, p: int) -> int:
    """Largest divisor of n relatively prime to p, for n >= 1 and p >= 2."""
    if n < 1 or p < 2:
        raise ValueError(f"coprime_part needs n >= 1 and p >= 2, got n={n}, p={p}")
    while n % p == 0:
        n //= p
    return n


def powers(p: int, n: int) -> set[int]:
    """The residues of p^e mod n for e >= 1."""
    out: set[int] = set()
    x = p % n
    while x not in out:
        out.add(x)
        x = (x * p) % n
    return out


def is_self_conjugate(p: int, n: int) -> bool:
    """True iff the prime p is self-conjugate mod n: p^i = -1 (mod v(n))
    for some i >= 1, with v(n) the largest divisor of n coprime to p.
    Vacuously true for v(n) <= 2, where -1 = 1 = p^0.

    This is Turyn's definition (Pacific J. Math. 15 (1965)), the one the
    self-conjugacy argument of Arasu and Seberry, J. Combin. Des. 4
    (1996), rests on; it is written from that standard statement, not
    quoted from either paper."""
    v = coprime_part(n, p)
    return v <= 2 or v - 1 in powers(p, v)


def self_conjugacy_divisor(k: int, n: int) -> int:
    """The product of p^(e//2) over the prime powers p^e || k with p not
    dividing n and self-conjugate mod n.  It divides every coefficient of
    the fold onto Z_n of a matrix of weight k.

    The theorem (self-conjugacy, as used by Arasu and Seberry, J. Combin.
    Des. 4 (1996)): if p^(2a) || k, p is self-conjugate mod n and p does
    not divide n, then p^a divides chi(B) for every character chi of Z_n,
    and so every coefficient of B, the fold onto Z_n.  The code checks
    exactly those two hypotheses on p; e is even whenever k is a square.
    The statement is reconstructed from the standard argument, not quoted
    from the paper."""
    return math.prod(
        p ** (e // 2) for p, e in factorize(k).items() if n % p and is_self_conjugate(p, n)
    )


def theorem_multipliers(n: int, k: int) -> set[int]:
    """The residues mod n that the multiplier theorems make multipliers of
    every CW(n, k): 1, and when gcd(n, k) = 1 each residue that is a power
    mod n of every prime divisor of k.

    The theorem is the multiplier theorem for circulant weighing matrices
    of Arasu and Seberry, J. Combin. Des. 4 (1996): t is a multiplier of
    every CW(n, k) when, for each prime p | k, t = p^f (mod n) for some
    f >= 1.  The only hypothesis the code checks is gcd(n, k) = 1.  That
    hypothesis list is reconstructed, not quoted from the paper, and it
    may be incomplete: a condition of the published theorem that is
    missing here would let a search assume a multiplier the theorem does
    not grant, and so miss classes."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    out = {1 % n}
    if k > 1 and math.gcd(n, k) == 1:
        out |= set.intersection(*(powers(p, n) for p in factorize(k)))
    return out


def prime_power_multiplier(n: int, k: int) -> Optional[int]:
    """The prime p when k = p^(2r) is a prime power and gcd(n, k) = 1.

    The prime-power case of the multiplier theorem of Arasu and Seberry,
    J. Combin. Des. 4 (1996): p is a multiplier of every CW(n, p^(2r))
    with p not dividing n.  The code checks that k is an even power of
    one prime and that gcd(n, k) = 1; p lies in theorem_multipliers(n, k).
    The hypotheses are reconstructed, not quoted from the paper."""
    pp = is_prime_power(k)
    if pp is None:
        return None
    p, e = pp
    if e % 2 or math.gcd(n, k) != 1:
        return None
    return p


def mcfarland_multiplier(m: int, k: int) -> Optional[int]:
    """The least t > 1 whose powers mod m are all of theorem_multipliers(m, k),
    so that x -> t*x fixes the vectors the whole theorem set fixes; None
    when only t = 1 qualifies.  Requires gcd(m, k) = 1.

    It adds no theorem of its own: it applies the multiplier theorem of
    Arasu and Seberry under the hypotheses theorem_multipliers checks."""
    if math.gcd(m, k) != 1:
        raise ValueError(f"gcd({m}, {k}) != 1")
    allowed = theorem_multipliers(m, k)
    return min(
        (t for t in allowed if t > 1 and len(powers(t, m)) == len(allowed)), default=None
    )


def coprime_factor_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered pairs (d, m) with d*m = n, gcd(d, m) = 1, d, m > 1."""
    out = []
    for d in range(2, n):
        if n % d == 0:
            m = n // d
            if m > 1 and math.gcd(d, m) == 1:
                out.append((d, m))
    return out


def crt_combine(d: int, m: int, a: int, b: int) -> int:
    """The unique x mod d*m with x = a (mod d) and x = b (mod m)."""
    if math.gcd(d, m) != 1:
        raise ValueError(f"{d} and {m} are not coprime")
    inv = pow(m, -1, d)
    return (a * m * inv + b * d * pow(d, -1, m)) % (d * m)
