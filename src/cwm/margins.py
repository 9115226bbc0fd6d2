"""Intersection-number systems for the folds of a candidate matrix.

Folding a CW(n, s^2) onto a quotient Z_m gives orbit-constant integers
b_i with

    sum_i b_i * size_i   = s
    sum_i b_i^2 * size_i = k = s^2
    |b_i| <= coefficient bound * (n / m)

one b per orbit of the multiplier on Z_m.  The fold B also satisfies the
full fold equation B * B^(-1) = k, which these two moment identities
only sample; OrbitPartition.weighs tests it on orbit values.  The margin
targets that drive the exhaustive search are the solutions of that
equation.

lift_margin_solutions finds them by quotient lifting: the fold of such a
B onto Z_{m/p} is again one, with bound multiplied by p, so the solution
set is built from Z_1 = (s) one prime at a time, each level walked by
orbittable.walk, the search's walk, keeping only vectors with
B * B^(-1) = k and pruning by the self-conjugacy theorem
(p^a divides every b when p^(2a) || k, p does not divide the modulus and
is self-conjugate mod it).  solve_margin_system enumerates every
solution of the two moment identities instead; it stays as the oracle
the lifter is tested against, and count_margin_solutions counts its
solutions without listing them.  fold_consistency_filter applies weighs
to a list of solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .numbertheory import (
    OrbitPartition, factorize, is_self_conjugate, orbits, self_conjugacy_divisor
)
from .orbittable import walk


@dataclass(frozen=True)
class MarginSolution:
    orbit_sizes: tuple[int, ...]
    values: tuple[int, ...]  # one intersection number per orbit

    @property
    def scaled(self) -> tuple[int, ...]:
        return tuple(b * size for b, size in zip(self.values, self.orbit_sizes))


def solve_margin_system(s: int, orbit_sizes: Sequence[int], bound: int) -> list[MarginSolution]:
    """All integer vectors b with sum b_i*size_i = s, sum b_i^2*size_i =
    k = s^2, |b_i| <= bound, in lexicographic order."""
    k = s * s
    sizes = tuple(int(x) for x in orbit_sizes)
    nvar = len(sizes)
    # suffix sums for pruning: max residual linear mass, given remaining square budget
    suffix_size = [0] * (nvar + 1)
    for i in range(nvar - 1, -1, -1):
        suffix_size[i] = suffix_size[i + 1] + sizes[i]
    out: list[MarginSolution] = []
    acc = [0] * nvar

    def rec(i: int, lin: int, sq: int):
        if i == nvar:
            if lin == s and sq == k:
                out.append(MarginSolution(sizes, tuple(acc)))
            return
        size = sizes[i]
        for b in range(-bound, bound + 1):
            nsq = sq + b * b * size
            if nsq > k:
                continue
            nlin = lin + b * size
            # Cauchy-Schwarz: residual linear sum squared <= budget * mass
            need = s - nlin
            if need * need > (k - nsq) * suffix_size[i + 1]:
                continue
            acc[i] = b
            rec(i + 1, nlin, nsq)
        acc[i] = 0

    rec(0, 0, 0)
    del rec  # rec holds itself in its closure; free the walk's state now
    return out


def count_margin_solutions(s: int, orbit_sizes: Sequence[int], bound: int) -> int:
    """len(solve_margin_system(s, orbit_sizes, bound)), by dynamic
    programming over (linear sum, square sum) instead of enumeration."""
    k = s * s
    states = {(0, 0): 1}
    later = sum(orbit_sizes)
    for size in orbit_sizes:
        later -= size
        top = min(bound, math.isqrt(k // size))
        nxt: dict[tuple[int, int], int] = {}
        for (lin, sq), ways in states.items():
            for b in range(-top, top + 1):
                nlin, nsq = lin + b * size, sq + b * b * size
                # the Cauchy-Schwarz cut of solve_margin_system
                if nsq <= k and (s - nlin) ** 2 <= (k - nsq) * later:
                    nxt[nlin, nsq] = nxt.get((nlin, nsq), 0) + ways
        states = nxt
    return states.get((s, k), 0)


def lift_margin_solutions(s: int, partition: OrbitPartition, bound: int) -> list[MarginSolution]:
    """Orbit-constant B on Z_m with sum s, B * B^(-1) = k = s^2 and
    |b_i| <= bound, in lexicographic order: fold_consistency_filter(
    solve_margin_system(s, partition.sizes, bound), partition, k).

    Found by lifting from Z_1 through the prime chain of m.  A solution
    on Z_m folds onto a solution on each Z_q (q | m) with bound
    bound * m / q, so every level keeps every fold of a final solution.
    By the self-conjugacy theorem self_conjugacy_divisor(k, m) divides
    every b of a solution, and so of its folds; every level prunes by it.
    A child vector folds onto c iff sum b_O * |O| = |O'| * c_O' over the
    child orbits O that reduce into each parent orbit O', so a level is
    one orbittable.walk per parent c, with one row and a column per O'.
    """
    k = s * s
    m = partition.modulus
    divisor = self_conjugacy_divisor(k, m)
    if abs(s) > bound * m:
        return []
    parent = orbits(1, 1)
    level = [MarginSolution(parent.sizes, (s,))]
    q = 1
    found: list[tuple[int, ...]] = []  # the current level's walks' leaves

    def keep(assign: list[int]):
        found.append(tuple(assign))

    for p, e in sorted(factorize(m).items(), reverse=True):
        for _ in range(e):
            q *= p
            child = partition if q == m else orbits(q, partition.multiplier)
            columns: list[list[int]] = [[] for _ in parent.orbits]
            for oid, (pid, _) in enumerate(child.spread(parent)):
                columns[pid].append(oid)
            found.clear()
            for sol in level:
                target = [size * b for size, b in zip(parent.sizes, sol.values)]
                walk((columns,), child.sizes, (s,), target, k, bound * (m // q), divisor, keep)
            level = [MarginSolution(child.sizes, values) for values in found]
            level = fold_consistency_filter(level, child, k)
            parent = child
    return sorted(level, key=lambda sol: sol.values)


def self_conjugacy_filter(
    solutions: Iterable[MarginSolution], p: int, modulus: int, a: int
) -> list[MarginSolution]:
    """Keep only solutions with every b_i divisible by p^a.

    Sound only when p does not divide the folded modulus and is
    self-conjugate mod it (checked here); then the fold of any valid
    matrix is 0 mod p^a coefficientwise.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    if a == 0:
        return list(solutions)
    if not (modulus % p and is_self_conjugate(p, modulus)):
        raise ValueError(f"self-conjugacy filter by {p}^{a} mod {modulus} would be unsound")
    q = p**a
    return [sol for sol in solutions if all(b % q == 0 for b in sol.values)]


def fold_consistency_filter(
    solutions: Iterable[MarginSolution], partition: OrbitPartition, k: int
) -> list[MarginSolution]:
    """Keep solutions whose expanded vector B satisfies B * B^(-1) = k.

    The fold of any valid matrix satisfies the full defining equation on
    the quotient, not just the two moment identities, so this filter
    never discards the fold of a true solution.
    """
    return [sol for sol in solutions if partition.weighs(sol.values, k)]


def affine_orbit_permutations(partition: OrbitPartition) -> list[tuple[int, ...]]:
    """Distinct permutations of orbit indices induced by the affine maps
    x -> u*x + g that commute with the multiplier: u a unit and
    (t-1)*g = 0 mod modulus.  Entry i of a permutation is the orbit that
    the map sends the representative of orbit i into."""
    mod, t = partition.modulus, partition.multiplier
    shifts = [g for g in range(mod) if ((t - 1) * g) % mod == 0]
    perms = (
        tuple(partition.orbit_of(u * rep + g) for rep, _ in partition.orbits)
        for u in range(mod)
        if math.gcd(u, mod) == 1
        for g in shifts
    )
    return list(dict.fromkeys(perms))


def reduce_by_affine_maps(
    solutions: Iterable[MarginSolution], partition: OrbitPartition
) -> list[MarginSolution]:
    """One representative per orbit of the affine maps of
    affine_orbit_permutations, chosen as the lexicographically greatest
    scaled vector, in sorted order.

    Such a map sends a t-fixed fold B to the t-fixed fold x -> B(u*x + g)
    of an equivalent matrix, so one representative per orbit loses no
    class."""
    perms = affine_orbit_permutations(partition)
    sizes = partition.sizes
    seen = {}
    for sol in solutions:
        scaled = sol.scaled
        # index i of an image takes the value of the orbit i is mapped into
        key = max(tuple(scaled[j] for j in perm) for perm in perms)
        if key not in seen:
            values = tuple(v // s for v, s in zip(key, sizes))
            seen[key] = MarginSolution(sizes, values)
    return [seen[key] for key in sorted(seen)]


def margin_pairs(
    row_solutions: Iterable[MarginSolution],
    col_solutions: Iterable[MarginSolution],
    row_partition: OrbitPartition,
    col_partition: OrbitPartition,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs of scaled row/column margin vectors, one per orbit of the
    affine maps x -> u*x + g of Z_n that commute with the multiplier: the
    lexicographically greatest (r, c) of each orbit, in sorted order.

    A unit u of Z_n acts on a pair jointly, by u mod d on the row fold
    and u mod m on the column fold.  Since gcd(d, m) = 1, the CRT gives
    Z_n^* = Z_d^* x Z_m^*, and a translation g with (t-1)*g = 0 mod n
    splits the same way, so the group is the product of the affine
    groups of the two folds.  Its orbits on pairs are the products of
    its orbits on each side, and each side is reduced on its own."""
    rows = reduce_by_affine_maps(row_solutions, row_partition)
    cols = reduce_by_affine_maps(col_solutions, col_partition)
    return [(r.scaled, c.scaled) for r in rows for c in cols]
