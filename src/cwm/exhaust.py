"""Exhaustive search over orbit assignments, one walk unit at a time.

search lifts each margin pair (r, c) onto an intermediate quotient Z_q
before it walks (walk_units).  Every fold of a solution satisfies
B B^(-1) = k (the compression of Dokovic and Kotsireas, DCC 74 (2015)),
and the lift keeps every such fold, so a pair whose lift is empty has
no solution.  Each lifted vector is one unit: an orbittable.walk of a
table whose columns (or rows) are the Z_q orbits, with the vector as
their targets.  A leaf is expanded once over Z_n; it is fixed by the
multiplier, so its autocorrelation is constant on orbits, and it is
rejected at the first orbit whose one shift gives a nonzero value.
Every leaf that survives is verified by the full convolution, so
reported solutions are sound independent of the pruning.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import margins as margins_mod
from .groupring import GroupRingElement, canonical_form, verify
from .numbertheory import (
    OrbitPartition,
    coprime_part,
    factorize,
    mcfarland_multiplier,
    multiplicative_order,
    orbits,
    prime_power_multiplier,
    theorem_multipliers,
)
from .orbittable import OrbitTable, Stop, build, default_factorization, refine, walk


class MethodInapplicable(Exception):
    """No multiplier is derivable and none was supplied."""


@dataclass(frozen=True)
class SearchConfig:
    """How a search of CW(n, k) is set up: the orbit table, the weight,
    the coefficient bound, and through them the two folds it searches."""

    table: OrbitTable
    k: int
    coeff_bound: int = 1
    mode: str = "all"  # "first" | "all"
    node_budget: Optional[int] = None

    def __post_init__(self):
        if self.coeff_bound < 1:
            raise ValueError("coeff_bound must be >= 1")
        weight_root(self.k)
        if self.mode not in ("first", "all"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def s(self) -> int:
        return weight_root(self.k)

    @property
    def folds(self) -> tuple[tuple[OrbitPartition, int], ...]:
        """(orbits, coefficient bound) of the row fold onto Z_d and the
        column fold onto Z_m; a fold sums n / modulus coefficients."""
        t = self.table
        return (
            (t.row_orbits, self.coeff_bound * t.m),
            (t.col_orbits, self.coeff_bound * t.d),
        )

    def margin_solutions(self) -> tuple[list[margins_mod.MarginSolution], ...]:
        """The margin solutions of the row fold and of the column fold:
        the solutions of the fold equation, lifted through the quotients
        of the fold and pruned by the self-conjugacy theorem."""
        return tuple(
            margins_mod.lift_margin_solutions(self.s, part, bound) for part, bound in self.folds
        )


@dataclass(frozen=True)
class SearchOutcome:
    solutions: tuple[GroupRingElement, ...]  # canonical forms, deduplicated
    solutions_found: int  # verified leaves before deduplication
    nodes_visited: int
    leaves_tested: int
    exhaustive: bool

    @property
    def classes(self) -> int:
        """The number of equivalence classes found."""
        return len(self.solutions)

    @staticmethod
    def merge(parts: Sequence["SearchOutcome"]) -> "SearchOutcome":
        """One outcome for a whole search: the union of the parts' classes,
        sorted once, and the sums of their counters."""
        found: dict[tuple[int, ...], GroupRingElement] = {}
        for part in parts:
            for sol in part.solutions:
                found.setdefault(sol.coeffs, sol)
        return SearchOutcome(
            solutions=tuple(found[key] for key in sorted(found)),
            solutions_found=sum(part.solutions_found for part in parts),
            nodes_visited=sum(part.nodes_visited for part in parts),
            leaves_tested=sum(part.leaves_tested for part in parts),
            exhaustive=all(part.exhaustive for part in parts),
        )


def exhaust_pair(
    config: SearchConfig, r: Sequence[int], c: Sequence[int]
) -> SearchOutcome:
    """Search all orbit assignments whose margins match (r, c) exactly.

    r and c are scaled margin vectors (orbit-size weighted); their totals
    must both equal s.  A node budget turns the outcome inexhaustive
    rather than silently truncating: the walk stops at the first node past
    the budget, or in first mode at the first verified leaf.
    """
    table = config.table
    if len(r) != len(table.row_orbits) or len(c) != len(table.col_orbits):
        raise ValueError("margin vector length does not match the table")
    if sum(r) != config.s or sum(c) != config.s:
        raise ValueError(f"margin totals must equal s = {config.s}")
    bound = config.coeff_bound
    k = config.k
    partition = table.partition
    verified_count = 0
    found: dict[tuple[int, ...], GroupRingElement] = {}

    def leaf(assign: list[int]):
        nonlocal verified_count
        vec = partition.expand(assign)
        if not partition.off_peak_vanishes(vec):
            return
        candidate = GroupRingElement(table.n, vec)
        if verify(candidate, k, bound):
            verified_count += 1
            canon = canonical_form(candidate)
            found.setdefault(canon.coeffs, canon)
            if config.mode == "first":
                raise Stop

    limit = sys.maxsize if config.node_budget is None else config.node_budget
    nodes, leaves = walk(table.boxes, partition.sizes, r, c, k, bound, 1, leaf, limit)
    return SearchOutcome(
        solutions=tuple(found[key] for key in sorted(found)),
        solutions_found=verified_count,
        nodes_visited=nodes,
        leaves_tested=leaves,
        exhaustive=nodes <= limit,
    )


def weight_root(k: int) -> int:
    """s with k = s^2, the sum of every fold of a CW(n, k).  Raises
    ValueError unless k is a positive square."""
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    s = math.isqrt(k)
    if s * s != k:
        raise ValueError(f"k = {k} is not a perfect square")
    return s


def plan(
    n: int,
    k: int,
    multiplier: Optional[int] = None,
    coeff_bound: int = 1,
    factorization: Optional[tuple[int, int]] = None,
) -> SearchConfig:
    """The set-up of a search of CW(n, k): the multiplier (derived unless
    supplied), the split n = d * m (the default one unless supplied), its
    orbit table and the coefficient bound.

    The derived multiplier is the prime-power rule's, else the least
    generator of theorem_multipliers(n, k).  Orders with no coprime split
    get a 1 x n table, whose columns are the orbits of Z_n itself.
    Raises ValueError for a k that is not a positive square or an n below
    1, both checked before the multiplier is derived, or for a multiplier
    not in theorem_multipliers(n, k); MethodInapplicable when none is
    supplied and the theorems give none but 1.
    """
    weight_root(k)
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    t = multiplier
    if t is None and math.gcd(n, k) == 1:
        t = prime_power_multiplier(n, k) or mcfarland_multiplier(n, k)
    if t is None:
        raise MethodInapplicable(
            f"no multiplier derivable for n={n}, k={k}; supply one explicitly"
        )
    table = build(n, *(factorization or default_factorization(n, k, t)), t)
    if t % n not in theorem_multipliers(n, k):
        raise ValueError(f"{t} is not a multiplier of CW({n},{k})")
    return SearchConfig(table=table, k=k, coeff_bound=coeff_bound)


def search(
    n: int,
    k: int,
    multiplier: Optional[int] = None,
    coeff_bound: int = 1,
    mode: str = "all",
    node_budget: Optional[int] = None,
    jobs: int = 1,
) -> SearchOutcome:
    """Full driver: plan the search, solve the margin systems of both
    folds, and run the exhaust over every walk unit of the margin pairs;
    a node budget is split evenly over the units.  It bounds only their
    walks: the margin lifts and the pair lift (walk_units) always run to
    the end, and their nodes are not counted in nodes_visited.

    Finds every solution class fixed by the multiplier group, which is
    complete up to equivalence because some translate of any solution is
    fixed.  Raises MethodInapplicable when no multiplier is available.
    """
    if node_budget is not None and node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    config = replace(plan(n, k, multiplier, coeff_bound), mode=mode)
    table = config.table
    row_sols, col_sols = config.margin_solutions()
    pairs = margins_mod.margin_pairs(row_sols, col_sols, table.row_orbits, table.col_orbits)
    units = walk_units(config, pairs)
    budgets = _split_budget(node_budget, len(units))
    configs = [replace(unit, node_budget=b) for (unit, _, _), b in zip(units, budgets)]
    rs, cs = [r for _, r, _ in units], [c for _, _, c in units]
    parallel = jobs > 1 and mode != "first" and len(units) > 1
    workers = min(jobs, len(units))  # the pool forks all its workers at its first submit
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        parts = []
        for part in (pool.map if parallel else map)(exhaust_pair, configs, rs, cs):
            parts.append(part)
            if mode == "first" and part.classes:
                break
    return SearchOutcome.merge(parts)


def walk_units(
    config: SearchConfig, pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]
) -> list[tuple[SearchConfig, tuple[int, ...], tuple[int, ...]]]:
    """The walks of a search as (config, r, c) for exhaust_pair: each
    margin pair lifted onto an intermediate quotient Z_q, and one walk per
    lifted vector, whose Z_q columns (or rows) take it as their targets.

    The column side lifts c from Z_m one prime of d at a time, in the
    lifter's order, up to q = (d / p) * m for the last prime p, with r as
    the cross fold; the row side lifts r from Z_d through the primes of m.
    When both sides can lift they race: each round gives each side, the
    column side first, a node budget for all its level walks, 1024 and
    doubling, and the first to finish wins; a side keeps its finished
    walks between rounds.  A lone side lifts once, with no budget.
    Orders with d = 1, where each pair is one leaf, or with no lift on
    either side walk each pair as it is.
    """
    table = config.table
    sides = []
    for flip, (fixed, lifted) in enumerate(
        ((table.row_orbits, table.col_orbits), (table.col_orbits, table.row_orbits))
    ):
        moduli = margins_mod.lift_moduli(lifted.modulus, table.n)[:-1]
        if table.d > 1 and moduli:
            sides.append((flip, fixed, [lifted, *(orbits(q, table.multiplier) for q in moduli)], {}))
    bound = config.coeff_bound * table.n  # on the fold onto Z_1
    budget = 1024 if len(sides) > 1 else sys.maxsize
    while sides:
        for flip, fixed, chain, walks in sides:
            starts = pairs if flip else [(c, r) for r, c in pairs]
            lifts = margins_mod.lift(config.k, chain, starts, fixed, bound, walks, budget)
            if lifts is None:
                continue
            if flip:
                refined = replace(config, table=refine(table, chain[-1], fixed))
                return [(refined, g.scaled, c) for (_, c), gs in zip(pairs, lifts) for g in gs]
            refined = replace(config, table=refine(table, fixed, chain[-1]))
            return [(refined, r, g.scaled) for (r, _), gs in zip(pairs, lifts) for g in gs]
        budget *= 2
    return [(config, r, c) for r, c in pairs]


def _split_budget(total: Optional[int], parts: int) -> list[Optional[int]]:
    if total is None or parts == 0:
        return [None] * parts
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


# Open parameter cases where a contracted integer matrix search applies:
# (n, k) with m = largest divisor of n coprime to k and d = n / m.
CONTRACTED_SEARCH_CASES: tuple[tuple[int, int], ...] = (
    (105, 36),
    (112, 36),
    (117, 36),
    (140, 36),
    (195, 36),
    (140, 64),
    (180, 64),
    (182, 64),
    (196, 64),
    (132, 81),
    (156, 81),
    (195, 81),
    (198, 81),
    (156, 100),
    (165, 100),
    (195, 100),
)


@dataclass(frozen=True)
class CensusRow:
    n: int
    k: int
    d: int
    m: int
    multiplier: int
    multiplier_order: int
    classes: int
    solutions_found: int
    exhaustive: bool


def contraction_parameters(n: int, k: int) -> tuple[int, int]:
    """(d, m): m is the largest divisor of n coprime to k, d = n/m.
    A CW(n,k) contracts to an ICW_d(m,k) on which the composite-weight
    multiplier theorem applies."""
    m = n
    for p in factorize(k):
        m = coprime_part(m, p)
    return n // m, m


def icw_census(
    cases: Sequence[tuple[int, int]] = CONTRACTED_SEARCH_CASES,
    mode: str = "all",
    jobs: int = 1,
) -> list[CensusRow]:
    """Run the contracted search for each (n, k) case; zero classes for
    the contraction proves the CW(n, k) itself cannot exist."""
    out = []
    for n, k in cases:
        d, m = contraction_parameters(n, k)
        t = plan(m, k, coeff_bound=d).table.multiplier
        outcome = search(m, k, multiplier=t, coeff_bound=d, mode=mode, jobs=jobs)
        out.append(
            CensusRow(
                n=n,
                k=k,
                d=d,
                m=m,
                multiplier=t,
                multiplier_order=multiplicative_order(t, m),
                classes=outcome.classes,
                solutions_found=outcome.solutions_found,
                exhaustive=outcome.exhaustive,
            )
        )
    return out
