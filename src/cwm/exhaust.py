"""Depth-first exhaustive search over orbit assignments.

The search walks the orbit table column by column (right to left),
within a column box by box from the bottom row up, assigning each orbit
a signed multiplicity.  Margins count down toward zero; a line that can
no longer reach its target is cut immediately, and the running square
mass (which must end exactly at k) prunes as well.  Every assignment
surviving to a leaf is verified by the full convolution, so reported
solutions are sound independent of the pruning.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import margins as margins_mod
from .groupring import GroupRingElement, canonical_form, verify
from .numbertheory import (
    coprime_part,
    factorize,
    is_self_conjugate,
    mcfarland_multiplier,
    multiplicative_order,
    orbits,
    prime_power_multiplier,
)
from .orbittable import OrbitTable, build, default_factorization


class MethodInapplicable(Exception):
    """No multiplier is derivable and none was supplied."""


@dataclass(frozen=True)
class SearchConfig:
    table: OrbitTable
    k: int
    s: int
    coeff_bound: int = 1
    mode: str = "all"  # "first" | "all" | "count"
    node_budget: Optional[int] = None

    def __post_init__(self):
        if self.coeff_bound < 1:
            raise ValueError("coeff_bound must be >= 1")
        if self.s * self.s != self.k:
            raise ValueError(f"k = {self.k} is not s^2 for s = {self.s}")
        if self.mode not in ("first", "all", "count"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SearchOutcome:
    solutions: tuple[GroupRingElement, ...]  # canonical forms, deduplicated
    classes: int
    solutions_found: int  # verified leaves before deduplication
    nodes_visited: int
    leaves_tested: int
    exhaustive: bool

    def merged_with(self, other: "SearchOutcome") -> "SearchOutcome":
        combined = {sol.coeffs: sol for sol in self.solutions}
        for sol in other.solutions:
            combined.setdefault(sol.coeffs, sol)
        sols = tuple(combined[key] for key in sorted(combined))
        return SearchOutcome(
            solutions=sols,
            classes=len(combined),
            solutions_found=self.solutions_found + other.solutions_found,
            nodes_visited=self.nodes_visited + other.nodes_visited,
            leaves_tested=self.leaves_tested + other.leaves_tested,
            exhaustive=self.exhaustive and other.exhaustive,
        )


_EMPTY = SearchOutcome((), 0, 0, 0, 0, True)


def _multiplicity_order(bound: int) -> tuple[int, ...]:
    vals = [0]
    for v in range(1, bound + 1):
        vals.extend((v, -v))
    return tuple(vals)


def exhaust_pair(
    config: SearchConfig, r: Sequence[int], c: Sequence[int]
) -> SearchOutcome:
    """Search all orbit assignments whose margins match (r, c) exactly.

    r and c are scaled margin vectors (orbit-size weighted); their totals
    must both equal s.  A node budget turns the outcome inexhaustive
    rather than silently truncating.
    """
    table = config.table
    if len(r) != table.num_rows or len(c) != table.num_cols:
        raise ValueError("margin vector length does not match the table")
    if sum(r) != config.s or sum(c) != config.s:
        raise ValueError(f"margin totals must equal s = {config.s}")
    bound = config.coeff_bound
    k = config.k

    # column-major plan: right to left, bottom to top, box orbits reversed
    plan: list[tuple[int, int, int, int]] = []  # (oid, size, row, col)
    for j in range(table.num_cols - 1, -1, -1):
        for i in range(table.num_rows - 1, -1, -1):
            for oid in reversed(table.boxes[i][j]):
                plan.append((oid, table.orbit_size(oid), i, j))
    nplan = len(plan)

    # suffix masses per line and total square capacity after each index
    u, v = table.num_rows, table.num_cols
    suf_row = [[0] * u for _ in range(nplan + 1)]
    suf_col = [[0] * v for _ in range(nplan + 1)]
    suf_sq = [0] * (nplan + 1)
    for idx in range(nplan - 1, -1, -1):
        _, size, i, j = plan[idx]
        suf_row[idx] = suf_row[idx + 1].copy()
        suf_col[idx] = suf_col[idx + 1].copy()
        suf_row[idx][i] += bound * size
        suf_col[idx][j] += bound * size
        suf_sq[idx] = suf_sq[idx + 1] + bound * bound * size

    mult_order = _multiplicity_order(bound)
    r_res = list(r)
    c_res = list(c)
    assign = [0] * len(table.partition.orbits)

    nodes = 0
    leaves = 0
    verified_count = 0
    budget = config.node_budget
    exhausted_budget = False
    found: dict[tuple[int, ...], GroupRingElement] = {}
    stop_early = False

    def rec(idx: int, sq: int):
        nonlocal nodes, leaves, verified_count, exhausted_budget, stop_early
        if stop_early or exhausted_budget:
            return
        nodes += 1
        if budget is not None and nodes > budget:
            exhausted_budget = True
            return
        if idx == nplan:
            # suffix masses force all residuals to zero and sq == k here
            leaves += 1
            coeffs = [0] * table.n
            for oid, mult in enumerate(assign):
                if mult:
                    for x in table.partition.orbits[oid][1]:
                        coeffs[x] = mult
            candidate = GroupRingElement(table.n, tuple(coeffs))
            if verify(candidate, k, bound):
                verified_count += 1
                canon = canonical_form(candidate)
                found.setdefault(canon.coeffs, canon)
                if config.mode == "first":
                    stop_early = True
            return
        oid, size, i, j = plan[idx]
        nxt_row = suf_row[idx + 1][i]
        nxt_col = suf_col[idx + 1][j]
        nxt_sq = suf_sq[idx + 1]
        for mult in mult_order:
            nsq = sq + mult * mult * size
            if nsq > k or nsq + nxt_sq < k:
                continue
            nr = r_res[i] - mult * size
            if nr > nxt_row or -nr > nxt_row:
                continue
            nc = c_res[j] - mult * size
            if nc > nxt_col or -nc > nxt_col:
                continue
            r_res[i] = nr
            c_res[j] = nc
            assign[oid] = mult
            rec(idx + 1, nsq)
            r_res[i] = nr + mult * size
            c_res[j] = nc + mult * size
            assign[oid] = 0
            if stop_early or exhausted_budget:
                return

    rec(0, 0)
    sols = tuple(found[key] for key in sorted(found))
    # count mode still carries the canonical forms so that class counts
    # merge correctly across margin pairs; the driver strips them
    return SearchOutcome(
        solutions=sols,
        classes=len(found),
        solutions_found=verified_count,
        nodes_visited=nodes,
        leaves_tested=leaves,
        exhaustive=not exhausted_budget,
    )


def _sc_exponents(k: int) -> list[tuple[int, int]]:
    """(p, a) pairs with p^(2a) dividing k maximally, a >= 1."""
    return [(p, e // 2) for p, e in factorize(k).items() if e >= 2]


def side_margin_solutions(
    s: int,
    k: int,
    partition,
    coeff_bound: int,
    cofactor: int,
    fold_consistency: bool = True,
) -> list[margins_mod.MarginSolution]:
    """Margin solutions for one fold, after every sound filter.

    With fold_consistency the solutions are lifted through the quotients
    of the fold; without it every moment solution that passes the
    self-conjugacy filter is listed."""
    bound = coeff_bound * cofactor
    exponents = [
        (p, a) for p, a in _sc_exponents(k) if is_self_conjugate(p, partition.modulus)
    ]
    if fold_consistency:
        divisor = math.prod(p**a for p, a in exponents)
        return margins_mod.lift_margin_solutions(s, k, partition, bound, divisor)
    sols = margins_mod.solve_margin_system(s, k, partition.sizes, bound)
    for p, a in exponents:
        sols = margins_mod.self_conjugacy_filter(sols, p, partition.modulus, a)
    return sols


def _pair_task(args):
    config, r, c = args
    return exhaust_pair(config, r, c)


def search(
    n: int,
    k: int,
    multiplier: Optional[int] = None,
    coeff_bound: int = 1,
    mode: str = "all",
    node_budget: Optional[int] = None,
    jobs: int = 1,
    factorization: Optional[tuple[int, int]] = None,
    symmetry_reduction: bool = True,
    fold_consistency: bool = True,
) -> SearchOutcome:
    """Full driver: derive the multiplier, pick a factorization, solve and
    filter the margin systems, and run the exhaust over every margin pair.

    Finds every solution class fixed by the multiplier group, which is
    complete up to equivalence because some translate of any solution is
    fixed.  Raises MethodInapplicable when no multiplier is available.
    """
    s = math.isqrt(k)
    if s * s != k:
        raise ValueError(f"k = {k} is not a perfect square")
    if multiplier is None:
        multiplier = prime_power_multiplier(n, k)
        if multiplier is None and math.gcd(n, k) == 1:
            multiplier = mcfarland_multiplier(n, k)
        if multiplier is None:
            raise MethodInapplicable(
                f"no multiplier derivable for n={n}, k={k}; supply one explicitly"
            )
    if math.gcd(multiplier, n) != 1:
        raise ValueError(f"multiplier {multiplier} is not coprime to {n}")

    if factorization is None:
        factorization = default_factorization(n, k, multiplier)
    if factorization is None:
        return _search_single_group(n, k, s, multiplier, coeff_bound, mode)

    d, m = factorization
    table = build(n, d, m, multiplier)
    row_sols = side_margin_solutions(
        s, k, table.row_orbits, coeff_bound, m, fold_consistency=fold_consistency
    )
    col_sols = side_margin_solutions(
        s, k, table.col_orbits, coeff_bound, d, fold_consistency=fold_consistency
    )
    pairs = margins_mod.margin_pairs(
        row_sols,
        col_sols,
        table.row_orbits,
        table.col_orbits,
        symmetry_reduction=symmetry_reduction,
    )
    config = SearchConfig(
        table=table, k=k, s=s, coeff_bound=coeff_bound, mode=mode, node_budget=None
    )
    budgets = _split_budget(node_budget, len(pairs))

    outcome = _EMPTY
    if jobs > 1 and mode != "first" and len(pairs) > 1:
        tasks = [
            (replace(config, node_budget=b), r, c)
            for (r, c), b in zip(pairs, budgets)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_pair_task, tasks):
                outcome = outcome.merged_with(part)
    else:
        for (r, c), b in zip(pairs, budgets):
            part = exhaust_pair(replace(config, node_budget=b), r, c)
            outcome = outcome.merged_with(part)
            if mode == "first" and outcome.classes:
                break
    if mode == "count":
        outcome = replace(outcome, solutions=())
    return outcome


def _split_budget(total: Optional[int], parts: int) -> list[Optional[int]]:
    if total is None or parts == 0:
        return [None] * parts
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _search_single_group(
    n: int, k: int, s: int, multiplier: int, coeff_bound: int, mode: str
) -> SearchOutcome:
    """Fallback when n has no coprime factorization (prime or prime power):
    the two moment identities over the full orbit set already pin every
    candidate assignment, so solve them and verify each candidate."""
    part = orbits(n, multiplier)
    sols = margins_mod.solve_margin_system(s, k, part.sizes, coeff_bound)
    for p, a in _sc_exponents(k):
        if is_self_conjugate(p, n):
            sols = margins_mod.self_conjugacy_filter(sols, p, n, a)
    found: dict[tuple[int, ...], GroupRingElement] = {}
    leaves = 0
    verified_count = 0
    for sol in sols:
        coeffs = [0] * n
        for (_, members), mult in zip(part.orbits, sol.values):
            if mult:
                for x in members:
                    coeffs[x] = mult
        candidate = GroupRingElement(n, tuple(coeffs))
        leaves += 1
        if verify(candidate, k, coeff_bound):
            verified_count += 1
            canon = canonical_form(candidate)
            found.setdefault(canon.coeffs, canon)
            if mode == "first":
                break
    sols_out = tuple(found[key] for key in sorted(found))
    return SearchOutcome(
        solutions=sols_out if mode != "count" else (),
        classes=len(found),
        solutions_found=verified_count,
        nodes_visited=leaves,
        leaves_tested=leaves,
        exhaustive=True,
    )


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
    mode: str = "count",
    jobs: int = 1,
) -> list[CensusRow]:
    """Run the contracted search for each (n, k) case; zero classes for
    the contraction proves the CW(n, k) itself cannot exist."""
    out = []
    for n, k in cases:
        d, m = contraction_parameters(n, k)
        t = mcfarland_multiplier(m, k)
        if t is None:
            raise MethodInapplicable(f"no multiplier for contracted case ({n},{k})")
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
