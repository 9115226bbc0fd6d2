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

lift finds them by quotient lifting: the fold of such a B onto Z_(q/p)
is again one, with the bound multiplied by p, so a solution set on Z_q
is built from a fold onto a quotient one prime at a time, each level
walked by orbittable.walk, the search's walk, keeping only vectors with
B * B^(-1) = k and pruning by the self-conjugacy theorem (p^a divides
every b when p^(2a) || k, p does not divide the modulus and is
self-conjugate mod it); every level keeps every fold of a final
solution.  lift_margin_solutions lifts from Z_1 = (s); the search lifts
each margin pair from one of its folds, with the other fold as a second
family of line targets.  solve_margin_system enumerates every
solution of the two moment identities instead; it stays as the oracle
the lifter is tested against.  count_margin_solutions counts its
solutions without listing them (the raw count cwm margins prints), by
a dynamic program over (linear sum, square sum) that places the
largest orbits first and solves the last, smallest orbit from each
state's linear residual in one check.  fold_consistency_filter applies
weighs to a list of solutions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .numbertheory import (
    OrbitPartition, factorize, is_self_conjugate, orbits, self_conjugacy_divisor
)
from .orbittable import orbit_boxes, walk


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
    programming over (linear sum, square sum) instead of enumeration.

    The count does not depend on the order of the coordinates, so the
    orbits are placed largest first, while the state set is still small;
    each value is tried in nondecreasing square mass, up to the mass
    left, and the Cauchy-Schwarz cut of solve_margin_system bounds the
    mass of the orbits still to place.  The last (smallest) orbit is
    solved, not walked: a state (lin, sq) admits only b = (s - lin) /
    size, which must divide exactly, lie in the bound and make the
    square sum k."""
    if not orbit_sizes:
        return int(s == 0)  # the empty vector
    k = s * s
    *head, last = sorted(orbit_sizes, reverse=True)
    states = {(0, 0): 1}
    later = sum(orbit_sizes)
    for size in head:
        later -= size
        top = min(bound, math.isqrt(k // size))
        values = sorted(range(-top, top + 1), key=abs)
        choices = [(b * size, b * b * size) for b in values]
        nxt: dict[tuple[int, int], int] = {}
        for (lin, sq), ways in states.items():
            room = k - sq
            for dlin, dsq in choices:
                if dsq > room:
                    break
                nlin = lin + dlin
                # the Cauchy-Schwarz cut of solve_margin_system
                if (s - nlin) ** 2 <= (room - dsq) * later:
                    nxt[nlin, sq + dsq] = nxt.get((nlin, sq + dsq), 0) + ways
        states = nxt
    total = 0
    for (lin, sq), ways in states.items():
        b, rem = divmod(s - lin, last)
        if not rem and abs(b) <= bound and sq + b * b * last == k:
            total += ways
    return total


def lift_margin_solutions(s: int, partition: OrbitPartition, bound: int) -> list[MarginSolution]:
    """Orbit-constant B on Z_m with sum s, B * B^(-1) = k = s^2 and
    |b_i| <= bound, in lexicographic order: fold_consistency_filter(
    solve_margin_system(s, partition.sizes, bound), partition, k).

    Found by lift from Z_1 = (s) through the prime chain of m, with the
    one-row fold onto Z_1 as the cross fold.
    """
    m = partition.modulus
    if abs(s) > bound * m:
        return []
    chain = [orbits(q, partition.multiplier) for q in (1, *lift_moduli(1, m)[:-1])]
    (found,) = lift(s * s, [*chain, partition], [((s,), (s,))], chain[0], bound * m)
    return sorted(found, key=lambda sol: sol.values)


def lift_moduli(base: int, n: int) -> list[int]:
    """The moduli from Z_base up to Z_n, base | n, one prime of n / base
    at a time, largest prime first; n is the last."""
    out = [base]
    for p, e in sorted(factorize(n // base).items(), reverse=True):
        out += [out[-1] * p**i for i in range(1, e + 1)]
    return out[1:]


def lift(
    k: int,
    chain: Sequence[OrbitPartition],
    starts: Iterable[tuple[Sequence[int], Sequence[int]]],
    cross: OrbitPartition,
    bound: int,
    walks: Optional[dict] = None,
    budget: int = sys.maxsize,
) -> Optional[list[list[MarginSolution]]]:
    """For each start (c, x), the orbit-value vectors B on chain[-1] with
    B * B^(-1) = k and |b| <= bound / chain[-1].modulus whose folds onto
    chain[0] and onto cross have the scaled (orbit-size weighted) vectors
    c and x.  chain is a tower of quotients under one multiplier, each a
    prime times the one before; cross shares the multiplier.

    A level is one orbittable.walk per parent vector: a column per parent
    orbit O', holding the child orbits O that reduce into it, with target
    sum b_O |O| = |O'| c_O'; a row per orbit of Z_gcd(q, cross.modulus),
    with x folded there as targets; and only multiples of
    self_conjugacy_divisor(k, chain[-1].modulus).  A level keeps the
    leaves with B * B^(-1) = k.  walks, if given, keeps each level walk's
    (vectors, nodes) by its targets, and a walk found there is not walked
    again.  Returns None once the walks, those in walks included, pass
    budget nodes.
    """
    step = self_conjugacy_divisor(k, chain[-1].modulus)
    room = budget - sum(nodes for _, nodes in (walks or {}).values())
    levels = []
    for parent, child in zip(chain, chain[1:]):
        rows = orbits(math.gcd(child.modulus, cross.modulus), cross.multiplier)
        levels.append((child, rows, orbit_boxes(child, rows, parent), cross.spread(rows)))
    out = []
    for c, x in starts:
        sizes = chain[0].sizes
        level = [MarginSolution(sizes, tuple(v // size for v, size in zip(c, sizes)))]
        for child, rows, boxes, spread in levels:
            r = [0] * len(rows)
            for (i, _), v in zip(spread, x):
                r[i] += v
            found: list[MarginSolution] = []
            for sol in level:
                key = (child.modulus, sol.values, *r)
                done = walks.get(key) if walks is not None else None
                if done is None:
                    leaves: list[MarginSolution] = []

                    def keep(assign: list[int]):
                        leaves.append(MarginSolution(child.sizes, tuple(assign)))

                    nodes, _ = walk(
                        boxes, child.sizes, r, sol.scaled, k, bound // child.modulus, step, keep,
                        room,
                    )
                    if nodes > room:
                        return None
                    room -= nodes
                    done = fold_consistency_filter(leaves, child, k), nodes
                    if walks is not None:
                        walks[key] = done
                found += done[0]
            level = found
        out.append(level)
    return out


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
    class.  The maps form a group, so the images of a solution are its
    whole orbit: each orbit is built once, from its first solution, and
    its other solutions are skipped."""
    perms = affine_orbit_permutations(partition)
    sizes = partition.sizes
    seen: set[tuple[int, ...]] = set()
    reps = []
    for sol in solutions:
        scaled = sol.scaled
        if scaled in seen:
            continue
        # index i of an image takes the value of the orbit i is mapped into
        images = {tuple(scaled[j] for j in perm) for perm in perms}
        seen |= images
        reps.append(max(images))
    return [MarginSolution(sizes, tuple(v // s for v, s in zip(r, sizes))) for r in sorted(reps)]


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
