import gc
import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from cwm.exhaust import (
    CONTRACTED_SEARCH_CASES,
    MethodInapplicable,
    SearchConfig,
    contraction_parameters,
    derive_multiplier,
    exhaust_pair,
    icw_census,
    off_peak_vanishes,
    orbit_shifts,
    plan,
    search,
    side_margin_solutions,
)
from cwm.groupring import GroupRingElement, canonical_form, element, fold, verify, weight
from cwm.margins import (
    fold_consistency_filter,
    lift_margin_solutions,
    margin_pairs,
    self_conjugacy_filter,
    solve_margin_system,
)
from cwm.numbertheory import (
    factorize,
    is_self_conjugate,
    mcfarland_multiplier,
    orbits,
    prime_power_multiplier,
)
from cwm.orbittable import build, default_factorization


def enumerated_side(s, k, part, bound):
    """Every moment solution of one fold that the self-conjugacy filter
    keeps: the margin set of side_margin_solutions before fold consistency."""
    sols = solve_margin_system(s, k, part.sizes, bound)
    for p, e in factorize(k).items():
        if e >= 2 and is_self_conjugate(p, part.modulus):
            sols = self_conjugacy_filter(sols, p, part.modulus, e // 2)
    return sols


def reference_classes(n, k, fold_consistency, symmetry_reduction):
    """Class set of search(n, k) rebuilt with pruning layers turned off:
    enumerated margins in place of lifted ones, and every (row, column)
    pair in place of one per translation class, each through exhaust_pair."""
    config = plan(n, k)
    table = config.table
    side = side_margin_solutions if fold_consistency else enumerated_side
    rows, cols = (side(config.s, k, part, bound) for _, part, bound in config.folds)
    if symmetry_reduction:
        pairs = margin_pairs(rows, cols, table.row_orbits, table.col_orbits)
    else:
        pairs = [(r.scaled, c.scaled) for r in rows for c in cols]
    classes = set()
    for r, c in pairs:
        classes |= {sol.coeffs for sol in exhaust_pair(config, r, c).solutions}
    return classes


class _OracleStop(Exception):
    pass


def exhaust_pair_oracle(config, r, c):
    """The earlier exhaust_pair walk, which visits every node of the search
    tree and verifies every leaf by the full convolution.  Returns (nodes,
    leaves, verified leaves, classes, exhaustive) and the class set."""
    table, bound, k = config.table, config.coeff_bound, config.k
    partition = table.partition
    mults = (0,) + tuple(sign * v for v in range(1, bound + 1) for sign in (1, -1))
    steps = []
    row_mass = [0] * table.num_rows
    col_mass = [0] * table.num_cols
    sq_mass = 0
    for j in range(table.num_cols):
        for i in range(table.num_rows):
            for oid in table.boxes[i][j]:
                size = table.orbit_size(oid)
                steps.append((oid, i, j, size, row_mass[i], col_mass[j], sq_mass))
                row_mass[i] += bound * size
                col_mass[j] += bound * size
                sq_mass += bound * bound * size
    steps.reverse()
    r_res, c_res = list(r), list(c)
    assign = [0] * len(partition)
    limit = math.inf if config.node_budget is None else config.node_budget
    nodes = leaves = verified = 0
    found = set()

    def rec(idx, sq):
        nonlocal nodes, leaves, verified
        nodes += 1
        if nodes > limit:
            raise _OracleStop
        if idx == len(steps):
            leaves += 1
            candidate = GroupRingElement(table.n, partition.expand(assign))
            if verify(candidate, k, bound):
                verified += 1
                found.add(canonical_form(candidate).coeffs)
                if config.mode == "first":
                    raise _OracleStop
            return
        oid, i, j, size, nxt_row, nxt_col, nxt_sq = steps[idx]
        ri, cj = r_res[i], c_res[j]
        for mult in mults:
            nsq = sq + mult * mult * size
            nr, nc = ri - mult * size, cj - mult * size
            if nsq > k or nsq + nxt_sq < k or abs(nr) > nxt_row or abs(nc) > nxt_col:
                continue
            r_res[i], c_res[j], assign[oid] = nr, nc, mult
            rec(idx + 1, nsq)
        r_res[i], c_res[j], assign[oid] = ri, cj, 0

    try:
        rec(0, 0)
    except _OracleStop:
        pass
    return (nodes, leaves, verified, len(found), nodes <= limit), found


@pytest.fixture(scope="module")
def table63():
    return build(63, 9, 7, 2)


class TestExhaustPair:
    def test_finds_worked_63_16_solution(self, table63, cw63):
        config = SearchConfig(table=table63, k=16)
        out = exhaust_pair(config, (4, 0, 0), (1, 6, -3))
        assert out.classes >= 1
        assert canonical_form(cw63).coeffs in {s.coeffs for s in out.solutions}
        assert out.exhaustive

    def test_zero_margins_rejected_for_positive_weight(self, table63):
        # all-zero margins cannot total s > 0, and the zero element the
        # empty assignment reconstructs never verifies against k > 0
        config = SearchConfig(table=table63, k=16)
        with pytest.raises(ValueError):
            exhaust_pair(config, (0, 0, 0), (0, 0, 0))
        assert not verify(GroupRingElement(63, (0,) * 63), 16, 1)

    def test_all_leaves_verified(self, table63):
        config = SearchConfig(table=table63, k=16)
        out = exhaust_pair(config, (4, 0, 0), (1, 6, -3))
        for sol in out.solutions:
            assert verify(sol, 16, 1)

    def test_budget_reported_honestly(self, table63):
        config = SearchConfig(table=table63, k=16, node_budget=10)
        out = exhaust_pair(config, (4, 0, 0), (1, 6, -3))
        assert not out.exhaustive
        assert out.nodes_visited <= 11

    def test_nodes_monotone_in_coeff_bound(self, table63):
        out1 = exhaust_pair(
            SearchConfig(table=table63, k=16), (4, 0, 0), (1, 6, -3)
        )
        out2 = exhaust_pair(
            SearchConfig(table=table63, k=16, coeff_bound=2), (4, 0, 0), (1, 6, -3)
        )
        assert out2.nodes_visited >= out1.nodes_visited

    def test_margin_total_mismatch_rejected(self, table63):
        config = SearchConfig(table=table63, k=16)
        with pytest.raises(ValueError):
            exhaust_pair(config, (3, 0, 0), (1, 6, -3))


@st.composite
def orbit_vectors(draw):
    """(orbits of Z_n under a random unit t, the expansion of random orbit
    values in -2..2): a vector fixed by x -> t*x."""
    n = draw(st.integers(1, 40))
    t = draw(st.sampled_from([u for u in range(1, n + 1) if math.gcd(u, n) == 1]))
    part = orbits(n, t)
    values = draw(st.lists(st.integers(-2, 2), min_size=len(part), max_size=len(part)))
    return part, part.expand(values)


Z63 = orbits(63, 2)
# the order-63 weight-16 matrix: +1 on {0}, <27>, <11> and -1 on <31>
CW63_CASE = (Z63, Z63.expand([{0: 1, 27: 1, 11: 1, 31: -1}.get(rep, 0) for rep in Z63.reps]))


class TestLeafRejection:
    @settings(max_examples=300, deadline=None)
    @given(case=orbit_vectors())
    @example(case=CW63_CASE)
    def test_orbit_shifts_decide_off_peak_autocorrelation(self, case):
        part, vec = case
        accepted = off_peak_vanishes(vec, orbit_shifts(part))
        assert accepted == (weight(element(part.modulus, vec)) == sum(a * a for a in vec))

    @pytest.mark.parametrize(
        "n,t,shifts",
        [
            (7, 2, (1,)),  # <3> = -<1>
            # 12 nonzero orbits: 5 pairs O, -O, and <7> = -<7>, <21> = -<21>
            (63, 2, (1, 3, 5, 7, 9, 11, 21)),
        ],
    )
    def test_one_shift_per_orbit_up_to_negation(self, n, t, shifts):
        assert orbit_shifts(orbits(n, t)) == shifts


class TestSearch:
    def test_order7_single_class(self, cw7):
        out = search(7, 4, multiplier=2)
        assert out.classes == 1
        assert out.solutions[0] == canonical_form(cw7)
        assert out.exhaustive

    def test_order63_two_classes(self):
        out = search(63, 16, multiplier=2)
        assert out.classes == 2

    def test_derives_multiplier(self):
        assert search(7, 4).classes == 1

    def test_icw3_44_81_empty(self):
        out = search(44, 81, multiplier=3, coeff_bound=3)
        assert out.classes == 0 and out.exhaustive

    def test_method_inapplicable(self):
        with pytest.raises(MethodInapplicable):
            search(112, 36)  # gcd(n, k) > 1 and k not a prime power

    def test_supplied_multiplier_for_composite_weight(self):
        # composite weight with coprime order: the composite-weight rule
        # applies automatically and matches an explicit supply
        auto = search(143, 36)
        explicit = search(143, 36, multiplier=3)
        assert auto.classes == explicit.classes == 0

    def test_determinism_across_jobs(self):
        seq = search(63, 16, jobs=1)
        par = search(63, 16, jobs=2)
        assert seq == par

    def test_count_mode_rejected(self):
        # counting without listing is a view of the command line
        with pytest.raises(ValueError, match="unknown mode 'count'"):
            search(63, 16, mode="count")

    def test_first_mode_stops_early(self):
        out = search(63, 16, mode="first")
        assert out.classes >= 1

    def test_budget_propagates(self):
        out = search(63, 16, node_budget=5)
        assert not out.exhaustive

    def test_pruning_layers_do_not_change_results(self):
        base = {s.coeffs for s in search(63, 16).solutions}
        for fold_consistency, symmetry_reduction in itertools.product((True, False), repeat=2):
            assert reference_classes(63, 16, fold_consistency, symmetry_reduction) == base

    def test_nonexistence_110_with_and_without_pruning(self):
        assert search(110, 81).classes == 0
        assert reference_classes(110, 81, False, False) == set()

    def test_coeff_bound_checked_on_order_without_split(self):
        with pytest.raises(ValueError):
            search(7, 4, coeff_bound=0)

    def test_budget_honoured_on_order_without_split(self):
        assert search(31, 25, node_budget=1).exhaustive is False

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="node_budget must be >= 1"):
            search(63, 16, node_budget=budget)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            search(63, 16, jobs=jobs)


class TestSearchCounters:
    """Pinned nodes, leaves, verified leaves and classes: a change to the
    walk's order or to its cuts moves them even when the classes stay."""

    @pytest.mark.parametrize(
        "n,k,kwargs,counts",
        [
            (104, 81, {}, (419127, 784, 0, 0, True)),
            (110, 81, {}, (97, 0, 0, 0, True)),
            (44, 81, dict(multiplier=3, coeff_bound=3), (284, 0, 0, 0, True)),
            # the stop paths: first mode ends the search at its first class,
            # a budget ends each pair's walk at the first node past its share
            (63, 16, dict(mode="first"), (171, 2, 1, 1, True)),
            (132, 25, dict(mode="first"), (76656, 13, 1, 1, True)),
            (104, 81, dict(node_budget=1000), (1120, 0, 0, 0, False)),
            (104, 81, dict(node_budget=1000, jobs=2), (1120, 0, 0, 0, False)),
            (63, 16, dict(node_budget=5), (10, 0, 0, 0, False)),
            (31, 25, dict(node_budget=1), (21, 0, 0, 0, False)),
            # census row (156,81): ICW_3(52,81), whose walk repeats many
            # leafless subtrees
            (52, 81, dict(multiplier=3, coeff_bound=3), (520388, 5568, 132, 33, True)),
            (52, 81, dict(multiplier=3, coeff_bound=3, mode="first"), (2570, 26, 1, 1, True)),
            (
                52, 81, dict(multiplier=3, coeff_bound=3, node_budget=100000),
                (100025, 1336, 39, 20, False),
            ),
        ],
    )
    def test_search(self, n, k, kwargs, counts):
        out = search(n, k, **kwargs)
        assert (
            out.nodes_visited, out.leaves_tested, out.solutions_found, out.classes,
            out.exhaustive,
        ) == counts

    def test_census_row_105_36(self):
        d, m = contraction_parameters(105, 36)
        t = derive_multiplier(m, 36)
        assert (d, m, t) == (3, 35, 4)
        out = search(m, 36, multiplier=t, coeff_bound=d)
        assert out.exhaustive
        assert (out.nodes_visited, out.leaves_tested, out.solutions_found, out.classes) == (
            291, 14, 2, 1
        )


class TestLeaflessSubtrees:
    """exhaust_pair counts a repeated leafless subtree without walking it
    again; under every budget and in first mode its counters and classes
    match the walk that visits every node."""

    @pytest.mark.parametrize(
        "n,k,multiplier,coeff_bound,index,budgets",
        [
            (63, 16, None, 1, 2, None),  # every budget 1..N
            (104, 81, None, 1, 56, 50),
            (52, 81, 3, 3, 10, 50),
        ],
    )
    def test_budget_sweep_matches_full_walk(self, n, k, multiplier, coeff_bound, index, budgets):
        config = plan(n, k, multiplier, coeff_bound)
        table = config.table
        pairs = margin_pairs(*config.margin_solutions(), table.row_orbits, table.col_orbits)
        r, c = pairs[index]
        total = exhaust_pair_oracle(config, r, c)[0][0]
        if budgets is None:
            sweep = range(1, total + 1)
        else:
            sweep = sorted({1 + (total - 1) * step // (budgets - 1) for step in range(budgets)})
        configs = [replace(config, node_budget=b) for b in sweep]
        for cfg in configs + [config, replace(config, mode="first")]:
            out = exhaust_pair(cfg, r, c)
            counts = (
                out.nodes_visited, out.leaves_tested, out.solutions_found, out.classes,
                out.exhaustive,
            )
            assert (counts, {sol.coeffs for sol in out.solutions}) == exhaust_pair_oracle(
                cfg, r, c
            ), cfg.node_budget


class TestNoCyclicGarbage:
    def test_searches_leave_no_cycles(self):
        # every recursive walk is freed when its search returns, so nothing
        # waits for the cyclic collector
        gc.collect()
        gc.disable()
        try:
            search(63, 16)
            search(104, 81)
            search(52, 81, multiplier=3, coeff_bound=3)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPlan:
    def test_default_and_supplied_factorization(self):
        table = plan(63, 16).table
        assert (table.d, table.m, table.multiplier) == (9, 7, 2)
        table = plan(63, 16, factorization=(7, 9)).table
        assert (table.d, table.m) == (7, 9)

    def test_order_without_split_is_one_row(self):
        table = plan(31, 25).table
        assert (table.d, table.m) == (1, 31)

    def test_folds_carry_bounds(self, table63):
        config = plan(63, 16, coeff_bound=2)
        assert config.table == table63 and config.s == 4
        assert config.folds == ((9, table63.row_orbits, 14), (7, table63.col_orbits, 18))

    def test_margin_solutions_of_both_folds(self, table63):
        rows, cols = plan(63, 16).margin_solutions()
        assert [sol.values for sol in rows] == [(4, 0, 0)]
        assert (1, 2, -1) in [sol.values for sol in cols]
        assert all(sol.orbit_sizes == table63.col_orbits.sizes for sol in cols)

    def test_errors_in_order(self):
        # a non-square k is a usage error before any multiplier is derived
        with pytest.raises(ValueError, match="perfect square"):
            plan(112, 35)
        with pytest.raises(MethodInapplicable):
            plan(112, 36)
        with pytest.raises(ValueError, match="coprime"):
            plan(63, 16, multiplier=3)
        with pytest.raises(ValueError, match="coeff_bound"):
            plan(63, 16, coeff_bound=0)

    def test_config_rejects_non_square_weight(self, table63):
        with pytest.raises(ValueError):
            SearchConfig(table=table63, k=15)


class TestCompletenessOracles:
    def test_order7_matches_full_enumeration(self):
        brute = set()
        for coeffs in itertools.product((-1, 0, 1), repeat=7):
            a = GroupRingElement(7, coeffs)
            if verify(a, 4, 1):
                brute.add(canonical_form(a).coeffs)
        out = search(7, 4)
        assert {s.coeffs for s in out.solutions} == brute

    def test_order13_matches_orbit_union_enumeration(self):
        # multiplier 3 fixes a translate of any solution, so enumerating
        # multiplicity vectors over the five orbits is exhaustive
        from cwm.numbertheory import orbits

        part = orbits(13, 3)
        brute = set()
        for values in itertools.product((-1, 0, 1), repeat=len(part)):
            coeffs = [0] * 13
            for (_, members), v in zip(part.orbits, values):
                for x in members:
                    coeffs[x] = v
            a = GroupRingElement(13, tuple(coeffs))
            if verify(a, 9, 1):
                brute.add(canonical_form(a).coeffs)
        out = search(13, 9)
        assert {s.coeffs for s in out.solutions} == brute
        assert out.classes == 2

    # the multiplier rules apply to these prime-power weights exactly
    # when gcd(n, k) = 1
    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for k, top in ((4, 30), (9, 13)) for n in range(1, top + 1) if math.gcd(n, k) == 1],
    )
    def test_class_set_matches_brute_force(self, n, k):
        # every class has a member with +1 at 0: translate a support point
        # to 0, then negate if needed
        brute = set()
        for rest in itertools.combinations(range(1, n), k - 1):
            for signs in itertools.product((1, -1), repeat=k - 1):
                coeffs = [0] * n
                coeffs[0] = 1
                for x, sign in zip(rest, signs):
                    coeffs[x] = sign
                a = GroupRingElement(n, tuple(coeffs))
                if verify(a, k, 1):
                    brute.add(canonical_form(a).coeffs)
        assert {s.coeffs for s in search(n, k).solutions} == brute

    def test_margins_of_found_solutions_satisfy_folds(self):
        out = search(63, 16)
        for sol in out.solutions:
            for m in (3, 7, 9, 21):
                b = fold(sol, m)
                assert abs(sum(b.coeffs)) == 4
                assert sum(c * c for c in b.coeffs) == 16


class TestCensus:
    def test_contraction_parameters(self):
        assert contraction_parameters(112, 36) == (16, 7)
        assert contraction_parameters(105, 36) == (3, 35)
        assert contraction_parameters(182, 64) == (2, 91)
        assert contraction_parameters(132, 81) == (3, 44)

    def test_census_rule_is_search_rule(self):
        # the census once took the composite-weight rule directly; on every
        # contracted case the search's rule gives the same multiplier
        for n, k in CONTRACTED_SEARCH_CASES:
            _, m = contraction_parameters(n, k)
            assert derive_multiplier(m, k) == mcfarland_multiplier(m, k)

    def test_single_empty_row(self):
        rows = icw_census(cases=[(182, 64)])
        row = rows[0]
        assert (row.d, row.m, row.multiplier, row.multiplier_order) == (2, 91, 2, 12)
        assert row.classes == 0 and row.exhaustive

    def test_single_nonzero_row(self):
        rows = icw_census(cases=[(112, 36)])
        row = rows[0]
        assert (row.d, row.m, row.multiplier, row.multiplier_order) == (16, 7, 2, 3)
        assert row.classes > 0


# Consistent margin sets of the long power-of-two sides, as the enumerate-
# then-filter path lists them (fold_consistency_filter over every moment
# solution).  That path takes 4 s, 2 s and 156 s on these three sides
# (Python 3.11, 2 cores), so the sets are pinned rather than recomputed.
PINNED_SIDES = {
    (144, 49, 16): [
        (0, 0, 0, 0, 0, 0, 7, 0, 0),
        (3, -2, 1, -1, 0, -1, 4, 2, 1),
        (3, -1, -2, 1, 0, 2, 4, 1, -1),
        (3, -1, -1, 2, 0, 1, 4, 1, -2),
        (3, -1, 2, -1, 0, -2, 4, 1, 1),
        (3, 1, -2, -1, 0, 2, 4, -1, 1),
        (3, 1, -1, -2, 0, 1, 4, -1, 2),
        (3, 1, 2, 1, 0, -2, 4, -1, -1),
        (3, 2, 1, 1, 0, -1, 4, -2, -1),
        (4, -2, -1, -1, 0, 1, 3, 2, 1),
        (4, -1, -2, -1, 0, 2, 3, 1, 1),
        (4, -1, 1, 2, 0, -1, 3, 1, -2),
        (4, -1, 2, 1, 0, -2, 3, 1, -1),
        (4, 1, -2, 1, 0, 2, 3, -1, -1),
        (4, 1, 1, -2, 0, -1, 3, -1, 2),
        (4, 1, 2, -1, 0, -2, 3, -1, 1),
        (4, 2, -1, 1, 0, 1, 3, -2, -1),
        (7, 0, 0, 0, 0, 0, 0, 0, 0),
    ],
    (160, 81, 32): [
        (-4, 0, -1, 0, 0, 4, 1, 5, 0),
        (-4, 0, 1, 0, 0, 4, -1, 5, 0),
        (-3, 0, -1, -2, 0, 4, 1, 4, 2),
        (-3, 0, -1, 2, 0, 4, 1, 4, -2),
        (-3, 0, 1, -2, 0, 4, -1, 4, 2),
        (-3, 0, 1, 2, 0, 4, -1, 4, -2),
        (-1, 0, -1, -3, 0, 4, 1, 2, 3),
        (-1, 0, -1, 3, 0, 4, 1, 2, -3),
        (-1, 0, 1, -3, 0, 4, -1, 2, 3),
        (-1, 0, 1, 3, 0, 4, -1, 2, -3),
        (2, 0, -1, -3, 0, 4, 1, -1, 3),
        (2, 0, -1, 3, 0, 4, 1, -1, -3),
        (2, 0, 1, -3, 0, 4, -1, -1, 3),
        (2, 0, 1, 3, 0, 4, -1, -1, -3),
        (4, 0, -1, -2, 0, 4, 1, -3, 2),
        (4, 0, -1, 2, 0, 4, 1, -3, -2),
        (4, 0, 1, -2, 0, 4, -1, -3, 2),
        (4, 0, 1, 2, 0, 4, -1, -3, -2),
        (5, 0, -1, 0, 0, 4, 1, -4, 0),
        (5, 0, 1, 0, 0, 4, -1, -4, 0),
    ],
    (160, 49, 32): [
        (3, 0, -2, 0, 1, -1, 0, 0, 0, -1, 4, 2, 1),
        (3, 0, -1, 0, -2, 1, 0, 0, 0, 2, 4, 1, -1),
        (3, 0, -1, 0, -1, 2, 0, 0, 0, 1, 4, 1, -2),
        (3, 0, -1, 0, 2, -1, 0, 0, 0, -2, 4, 1, 1),
        (3, 0, 1, 0, -2, -1, 0, 0, 0, 2, 4, -1, 1),
        (3, 0, 1, 0, -1, -2, 0, 0, 0, 1, 4, -1, 2),
        (3, 0, 1, 0, 2, 1, 0, 0, 0, -2, 4, -1, -1),
        (3, 0, 2, 0, 1, 1, 0, 0, 0, -1, 4, -2, -1),
        (4, 0, -2, 0, -1, -1, 0, 0, 0, 1, 3, 2, 1),
        (4, 0, -1, 0, -2, -1, 0, 0, 0, 2, 3, 1, 1),
        (4, 0, -1, 0, 1, 2, 0, 0, 0, -1, 3, 1, -2),
        (4, 0, -1, 0, 2, 1, 0, 0, 0, -2, 3, 1, -1),
        (4, 0, 1, 0, -2, 1, 0, 0, 0, 2, 3, -1, -1),
        (4, 0, 1, 0, 1, -2, 0, 0, 0, -1, 3, -1, 2),
        (4, 0, 1, 0, 2, -1, 0, 0, 0, -2, 3, -1, 1),
        (4, 0, 2, 0, -1, 1, 0, 0, 0, 1, 3, -2, -1),
    ],
}


class TestSideMarginSolutions:
    @pytest.mark.parametrize("n,k", [(144, 49), (152, 49), (160, 81), (160, 49)])
    def test_long_sides_match_enumerate_then_filter(self, n, k):
        s = 9 if k == 81 else 7
        t = prime_power_multiplier(n, k)
        d, m = default_factorization(n, k, t)
        table = build(n, d, m, t)
        for part, cofactor in ((table.row_orbits, m), (table.col_orbits, d)):
            lifted = side_margin_solutions(s, k, part, cofactor)
            expected = PINNED_SIDES.get((n, k, part.modulus))
            if expected is None:
                raw = enumerated_side(s, k, part, cofactor)
                expected = [sol.values for sol in fold_consistency_filter(raw, part, k)]
            assert [sol.values for sol in lifted] == expected
            assert all(sol.orbit_sizes == part.sizes for sol in lifted)

    def test_self_conjugacy_divisor_applies(self):
        # 3 is self-conjugate mod 6 and 3^2 | 9, so every b is divisible by 3
        part = orbits(6, 5)
        lifted = side_margin_solutions(3, 9, part, 3)
        raw = enumerated_side(3, 9, part, 3)
        assert [sol.values for sol in lifted] == [
            sol.values for sol in fold_consistency_filter(raw, part, 9)
        ]
        assert [sol.values for sol in lifted] == [(0, 0, 0, 3), (3, 0, 0, 0)]
        assert len(lift_margin_solutions(3, 9, part, 3)) == 8
