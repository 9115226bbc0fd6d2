"""Multiplicative structure of Z_n: orbits under a multiplier, orders,
self-conjugacy, and multiplier derivation for weighing-matrix searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(members) for _, members in self.orbits)

    def orbit_of(self, x: int) -> int:
        return self.index[x % self.modulus]

    def members(self, oid: int) -> tuple[int, ...]:
        return self.orbits[oid][1]

    def expand(self, values: Sequence[int]) -> tuple[int, ...]:
        """Vector over Z_modulus carrying values[i] on every member of orbit i."""
        vec = [0] * self.modulus
        for (_, members), b in zip(self.orbits, values):
            if b:
                for x in members:
                    vec[x] = b
        return tuple(vec)

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
    if n == 1:
        return 1
    if math.gcd(t, n) != 1:
        raise ValueError(f"{t} is not coprime to {n}")
    t %= n
    e, x = 1, t
    while x != 1:
        x = (x * t) % n
        e += 1
    return e


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
    """Largest divisor of n relatively prime to p."""
    while n % p == 0:
        n //= p
    return n


def is_self_conjugate(p: int, n: int) -> bool:
    """True iff p^i = -1 (mod v(n)) for some i, with v(n) the largest
    divisor of n coprime to p.  Vacuously true for v(n) <= 2."""
    v = coprime_part(n, p)
    if v <= 2:
        return True
    target = v - 1
    x = p % v
    for _ in range(multiplicative_order(p, v)):
        if x == target:
            return True
        x = (x * p) % v
    return False


def self_conjugacy_divisor(k: int, n: int) -> int:
    """The product of p^(e//2) over the prime powers p^e || k with p
    self-conjugate mod n.  It divides every coefficient of the fold onto
    Z_n of a matrix of weight k (Arasu and Seberry)."""
    return math.prod(p ** (e // 2) for p, e in factorize(k).items() if is_self_conjugate(p, n))


def prime_power_multiplier(n: int, k: int) -> Optional[int]:
    """The prime p when k = p^(2r) is a prime power and gcd(n, k) = 1."""
    pp = is_prime_power(k)
    if pp is None:
        return None
    p, e = pp
    if e % 2 or math.gcd(n, k) != 1:
        return None
    return p


def mcfarland_multiplier(m: int, k: int) -> Optional[int]:
    """Least t in [2, m-1] that is a power of every prime divisor of k
    modulo m; None when only t = 1 qualifies.  Requires gcd(m, k) = 1."""
    if math.gcd(m, k) != 1:
        raise ValueError(f"gcd({m}, {k}) != 1")
    if m <= 2:
        return None
    common: Optional[set[int]] = None
    for p in factorize(k):
        powers = set()
        x = p % m
        while x not in powers:
            powers.add(x)
            x = (x * p) % m
        common = powers if common is None else common & powers
        if common == {1}:
            return None
    if not common:
        return None
    candidates = sorted(t for t in common if t > 1)
    return candidates[0] if candidates else None


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
