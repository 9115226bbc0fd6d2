"""Depth-first exhaustive search over orbit assignments.

The search walks the orbit table column by column (right to left),
within a column box by box from the bottom row up, assigning each orbit
a signed multiplicity.  Margins count down toward zero; a line that can
no longer reach its target is cut immediately, and the running square
mass (which must end exactly at k) prunes as well.  A leaf is fixed by
the multiplier, so its autocorrelation is constant on orbits: the leaf is
rejected at the first orbit whose one shift gives a nonzero value.  Every
leaf that survives is verified by the full convolution, so reported
solutions are sound independent of the pruning.

Every cut reads only the square mass and the row and column residuals,
and when the walk opens a column the columns behind it are at zero and
the ones ahead still hold their margins.  So the subtree below a
column's first step is fixed by the step, the square mass and the row
residuals.  A pair's walk records the node count of each such subtree
that held no leaf, and on a repeat adds that count instead of walking it
again: a leafless subtree verifies nothing and moves no other counter.
nodes_visited therefore counts the nodes of the search tree, those of a
skipped subtree included, and a budget stops the count where the full
walk would have stopped.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext, suppress
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from operator import mul
from typing import Optional, Sequence

from . import margins as margins_mod
from .groupring import GroupRingElement, canonical_form, verify
from .numbertheory import (
    OrbitPartition,
    coprime_part,
    factorize,
    mcfarland_multiplier,
    multiplicative_order,
    prime_power_multiplier,
    self_conjugacy_divisor,
)
from .orbittable import OrbitTable, build, default_factorization


class MethodInapplicable(Exception):
    """No multiplier is derivable and none was supplied."""


class _Stop(Exception):
    """Ends a pair's walk; raised and caught inside exhaust_pair only."""


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
        if self.s * self.s != self.k:
            raise ValueError(f"k = {self.k} is not a perfect square")
        if self.mode not in ("first", "all"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def s(self) -> int:
        return math.isqrt(self.k)

    @property
    def folds(self) -> tuple[tuple[int, OrbitPartition, int], ...]:
        """(modulus, orbits, coefficient bound) of the row fold onto Z_d and
        the column fold onto Z_m; a fold sums n / modulus coefficients."""
        t = self.table
        return (
            (t.d, t.row_orbits, self.coeff_bound * t.m),
            (t.m, t.col_orbits, self.coeff_bound * t.d),
        )

    def margin_solutions(self) -> tuple[list[margins_mod.MarginSolution], ...]:
        """The margin solutions of the row fold and of the column fold."""
        return tuple(
            side_margin_solutions(self.s, self.k, part, bound)
            for _, part, bound in self.folds
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


def _multiplicity_order(bound: int) -> tuple[int, ...]:
    vals = [0]
    for v in range(1, bound + 1):
        vals.extend((v, -v))
    return tuple(vals)


def orbit_shifts(partition: OrbitPartition) -> tuple[int, ...]:
    """One nonzero shift g per orbit of the partition, taking g or -g once.

    A vector fixed by x -> t*x has an autocorrelation c_g = sum a_i a_(i+g)
    with c_(tg) = c_g, and every autocorrelation has c_(-g) = c_g, so the
    off-peak autocorrelation vanishes iff it vanishes at these shifts."""
    return tuple(
        rep
        for oid, (rep, _) in enumerate(partition.orbits)
        if rep and partition.orbit_of(-rep) >= oid
    )


def off_peak_vanishes(vec: tuple[int, ...], shifts: Sequence[int]) -> bool:
    """True iff the autocorrelation of vec is zero at every shift in shifts."""
    return not any(sum(map(mul, vec, vec[g:] + vec[:g])) for g in shifts)


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
    if len(r) != table.num_rows or len(c) != table.num_cols:
        raise ValueError("margin vector length does not match the table")
    if sum(r) != config.s or sum(c) != config.s:
        raise ValueError(f"margin totals must equal s = {config.s}")
    bound = config.coeff_bound
    k = config.k
    partition = table.partition

    # one step per orbit in visit order (column-major: right to left, bottom
    # to top, box orbits reversed), built back to front: the orbit, its row
    # and column, the row, column and square masses the later steps can
    # still carry, each multiplicity with its line and square mass, and
    # whether the step opens its column
    mult_order = _multiplicity_order(bound)
    choices_of = {
        size: tuple((mult, mult * size, mult * mult * size) for mult in mult_order)
        for size in set(partition.sizes)
    }
    row_mass = [0] * table.num_rows
    col_mass = [0] * table.num_cols
    sq_mass = 0
    steps = []
    for j in range(table.num_cols):
        for i in range(table.num_rows):
            for oid in table.boxes[i][j]:
                size = table.orbit_size(oid)
                steps.append(
                    (oid, i, j, row_mass[i], col_mass[j], sq_mass, choices_of[size], False)
                )
                row_mass[i] += bound * size
                col_mass[j] += bound * size
                sq_mass += bound * bound * size
        # every column holds an orbit; its last step built is its first visited
        steps[-1] = (*steps[-1][:-1], True)
    steps.reverse()
    nplan = len(steps)

    shifts = orbit_shifts(partition)
    r_res = list(r)
    c_res = list(c)
    assign = [0] * len(partition)

    nodes = 0
    leaves = 0
    verified_count = 0
    limit = sys.maxsize if config.node_budget is None else config.node_budget
    found: dict[tuple[int, ...], GroupRingElement] = {}
    # node count of each leafless subtree below a column's first step, by
    # (step, square mass, row residuals), which fix it (module docstring)
    leafless: dict[tuple[int, ...], int] = {}

    def rec(idx: int, sq: int):
        nonlocal nodes, leaves, verified_count
        nodes += 1
        if nodes > limit:
            raise _Stop
        if idx == nplan:
            # the remaining masses forced all residuals to zero and sq == k
            leaves += 1
            vec = partition.expand(assign)
            if not off_peak_vanishes(vec, shifts):
                return
            candidate = GroupRingElement(table.n, vec)
            if verify(candidate, k, bound):
                verified_count += 1
                canon = canonical_form(candidate)
                found.setdefault(canon.coeffs, canon)
                if config.mode == "first":
                    raise _Stop
            return
        oid, i, j, nxt_row, nxt_col, nxt_sq, choices, opens = steps[idx]
        if opens:
            key = (idx, sq, *r_res)
            size = leafless.get(key)
            if size is not None:
                # the walk would visit size nodes here and move no other
                # counter, stopping at the first node past the budget
                nodes += size - 1
                if nodes > limit:
                    nodes = limit + 1
                    raise _Stop
                return
            nodes_at = nodes
            leaves_at = leaves
        ri = r_res[i]
        cj = c_res[j]
        for mult, mass, sq_step in choices:
            nsq = sq + sq_step
            if nsq > k or nsq + nxt_sq < k:
                continue
            nr = ri - mass
            if nr > nxt_row or -nr > nxt_row:
                continue
            nc = cj - mass
            if nc > nxt_col or -nc > nxt_col:
                continue
            r_res[i] = nr
            c_res[j] = nc
            assign[oid] = mult
            rec(idx + 1, nsq)
        r_res[i] = ri
        c_res[j] = cj
        assign[oid] = 0
        if opens and leaves == leaves_at:
            leafless[key] = nodes - nodes_at + 1

    with suppress(_Stop):
        rec(0, 0)
    del rec  # rec holds itself in its closure; free the walk's state now
    return SearchOutcome(
        solutions=tuple(found[key] for key in sorted(found)),
        solutions_found=verified_count,
        nodes_visited=nodes,
        leaves_tested=leaves,
        exhaustive=nodes <= limit,
    )


def side_margin_solutions(
    s: int, k: int, partition: OrbitPartition, bound: int
) -> list[margins_mod.MarginSolution]:
    """Margin solutions for one fold, after every sound filter: the
    solutions of the fold equation lifted through the quotients of the
    fold, each b divisible by the self-conjugacy divisor."""
    divisor = self_conjugacy_divisor(k, partition.modulus)
    return margins_mod.lift_margin_solutions(s, k, partition, bound, divisor)


def derive_multiplier(n: int, k: int) -> int:
    """The multiplier a search of CW(n, k) uses: the prime-power rule,
    else the composite-weight rule when gcd(n, k) = 1.  Raises
    MethodInapplicable when neither gives one."""
    t = prime_power_multiplier(n, k)
    if t is None and math.gcd(n, k) == 1:
        t = mcfarland_multiplier(n, k)
    if t is None:
        raise MethodInapplicable(
            f"no multiplier derivable for n={n}, k={k}; supply one explicitly"
        )
    return t


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

    Orders with no coprime split get a 1 x n table, whose columns are the
    orbits of Z_n itself.  Raises ValueError for a k that is not a square
    or a multiplier not coprime to n, and MethodInapplicable when no
    multiplier is available.
    """
    if math.isqrt(k) ** 2 != k:
        raise ValueError(f"k = {k} is not a perfect square")
    if multiplier is None:
        multiplier = derive_multiplier(n, k)
    d, m = factorization or default_factorization(n, k, multiplier) or (1, n)
    return SearchConfig(table=build(n, d, m, multiplier), k=k, coeff_bound=coeff_bound)


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
    folds, and run the exhaust over every margin pair.

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
    configs = [replace(config, node_budget=b) for b in _split_budget(node_budget, len(pairs))]
    parallel = jobs > 1 and mode != "first" and len(pairs) > 1
    with ProcessPoolExecutor(max_workers=jobs) if parallel else nullcontext() as pool:
        parts = []
        for part in (pool.map if parallel else map)(exhaust_pair, configs, *zip(*pairs)):
            parts.append(part)
            if mode == "first" and part.classes:
                break
    return SearchOutcome.merge(parts)


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
        t = derive_multiplier(m, k)
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
