import gc
import importlib.resources
import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from cwm import exhaust as exhaust_mod
from cwm import margins as margins_mod
from cwm.exhaust import (
    CONTRACTED_SEARCH_CASES,
    MethodInapplicable,
    SearchConfig,
    SearchOutcome,
    contraction_parameters,
    exhaust_pair,
    icw_census,
    plan,
    search,
    walk_units,
)
from cwm.groupring import (
    GroupRingElement,
    canonical_form,
    element,
    fold,
    verify,
    weight,
    witness_parse,
)
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
    multiplicative_order,
    orbits,
    self_conjugacy_divisor,
    theorem_multipliers,
)
from cwm.orbittable import build, walk


def enumerated_side(s, part, bound):
    """Every moment solution of one fold that the self-conjugacy filter
    keeps: the margin set of SearchConfig.margin_solutions before fold
    consistency."""
    sols = solve_margin_system(s, part.sizes, bound)
    for p, e in factorize(s * s).items():
        if e >= 2 and part.modulus % p and is_self_conjugate(p, part.modulus):
            sols = self_conjugacy_filter(sols, p, part.modulus, e // 2)
    return sols


def reference_classes(n, k, fold_consistency, symmetry_reduction, multiplier=None, coeff_bound=1):
    """Class set of search(n, k, multiplier, coeff_bound) rebuilt with
    pruning layers turned off: enumerated margins in place of lifted ones,
    and every (row, column) pair in place of one per orbit of the affine
    maps x -> u*x + g, each through exhaust_pair."""
    config = plan(n, k, multiplier, coeff_bound)
    table = config.table
    if fold_consistency:
        rows, cols = config.margin_solutions()
    else:
        rows, cols = (enumerated_side(config.s, part, bound) for part, bound in config.folds)
    if symmetry_reduction:
        pairs = margin_pairs(rows, cols, table.row_orbits, table.col_orbits)
    else:
        pairs = [(r.scaled, c.scaled) for r in rows for c in cols]
    classes = set()
    for r, c in pairs:
        classes |= {sol.coeffs for sol in exhaust_pair(config, r, c).solutions}
    return classes


def config_pairs(config):
    """The margin pairs of a search set up by config."""
    table = config.table
    return margin_pairs(*config.margin_solutions(), table.row_orbits, table.col_orbits)


def plain_search(n, k, multiplier=None, coeff_bound=1):
    """search as it ran before the pair lift: every margin pair walked on
    the plan's orbit table."""
    config = plan(n, k, multiplier, coeff_bound)
    return SearchOutcome.merge([exhaust_pair(config, r, c) for r, c in config_pairs(config)])


def brute_force_classes(n, k):
    """The class set of every CW(n, k), by enumeration: every class has a
    member with +1 at 0 (translate a support point to 0, then negate if
    needed)."""
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
    return brute


class _OracleStop(Exception):
    pass


def exhaust_pair_oracle(config, r, c, residual_cut=False):
    """The earlier exhaust_pair walk, which visits every node of the search
    tree and verifies every leaf by the full convolution.  Returns (nodes,
    leaves, verified leaves, classes, exhaustive) and the class set.  With
    residual_cut it also cuts a child whose row or column residuals sum,
    in absolute value, past the square mass still to place."""
    table, bound, k = config.table, config.coeff_bound, config.k
    partition = table.partition
    mults = (0,) + tuple(sign * v for v in range(1, bound + 1) for sign in (1, -1))
    steps = []
    row_mass = [0] * len(table.row_orbits)
    col_mass = [0] * len(table.col_orbits)
    sq_mass = 0
    for j in range(len(table.col_orbits)):
        for i in range(len(table.row_orbits)):
            for oid in table.boxes[i][j]:
                size = partition.sizes[oid]
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
        r_rest = sum(map(abs, r_res)) - abs(ri)
        c_rest = sum(map(abs, c_res)) - abs(cj)
        for mult in mults:
            nsq = sq + mult * mult * size
            nr, nc = ri - mult * size, cj - mult * size
            if nsq > k or nsq + nxt_sq < k or abs(nr) > nxt_row or abs(nc) > nxt_col:
                continue
            if residual_cut and k - nsq < max(r_rest + abs(nr), c_rest + abs(nc)):
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
        with pytest.raises(ValueError, match="length"):
            exhaust_pair(config, (4, 0), (1, 6, -3))


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
        accepted = part.off_peak_vanishes(vec)
        assert accepted == (weight(element(part.modulus, vec)) == sum(a * a for a in vec))

    @settings(max_examples=300, deadline=None)
    @given(case=orbit_vectors(), offset=st.integers(-3, 3).filter(bool))
    @example(case=CW63_CASE, offset=1)
    def test_weighs_is_the_weight_of_the_expansion(self, case, offset):
        part, vec = case
        values = [vec[rep] for rep in part.reps]
        square_sum = sum(a * a for a in vec)
        for k in (square_sum, square_sum + offset):
            expected = weight(element(part.modulus, part.expand(values))) == k
            assert part.weighs(values, k) == expected, k

    @pytest.mark.parametrize(
        "n,t,shifts",
        [
            (7, 2, (1,)),  # <3> = -<1>
            # 12 nonzero orbits: 5 pairs O, -O, and <7> = -<7>, <21> = -<21>
            (63, 2, (1, 3, 5, 7, 9, 11, 21)),
        ],
    )
    def test_one_shift_per_orbit_up_to_negation(self, n, t, shifts):
        assert orbits(n, t).shifts == shifts


def intermediate_divisors(n):
    return [q for q in range(2, n) if n % q == 0]


def fold_values(part, values, qpart):
    """The orbit values on qpart of the fold of part.expand(values), summed
    through part.spread(qpart) as the walk sums a leaf."""
    b = [0] * len(qpart)
    for mult, (qid, times) in zip(values, part.spread(qpart)):
        b[qid] += mult * times
    return b


def folds_hold(vec, k, moduli):
    """The leaf's quotient-fold test on a whole vector: the orbits of the
    multiplier 1 are the points of Z_n."""
    part = orbits(len(vec), 1)
    qparts = [orbits(q, 1) for q in moduli]
    return all(qpart.weighs(fold_values(part, vec, qpart), k) for qpart in qparts)


class TestQuotientFolds:
    @settings(max_examples=300, deadline=None)
    @given(case=orbit_vectors())
    @example(case=CW63_CASE)
    def test_orbit_spreads_fold_like_the_vector(self, case):
        part, vec = case
        values = [vec[rep] for rep in part.reps]
        for q in intermediate_divisors(part.modulus):
            folded = fold(element(part.modulus, vec), q)
            qpart = orbits(q, part.multiplier)
            b = fold_values(part, values, qpart)
            assert qpart.expand(b) == folded.coeffs, q
            for k in {sum(a * a for a in vec), sum(b * b for b in folded.coeffs)}:
                assert qpart.weighs(b, k) == (weight(folded) == k), (q, k)

    def test_spread_rejects_a_partition_of_no_quotient(self):
        with pytest.raises(ValueError, match="no quotient"):
            orbits(12, 5).spread(orbits(5, 1))
        with pytest.raises(ValueError, match="no quotient"):
            orbits(12, 5).spread(orbits(4, 3))

    @pytest.mark.parametrize(
        "name",
        sorted(
            path.name
            for path in importlib.resources.files("cwm").joinpath("data", "witnesses").iterdir()
            if path.name.endswith(".cw")
        ),
    )
    def test_accepts_every_bundled_witness(self, name):
        path = importlib.resources.files("cwm").joinpath("data", "witnesses", name)
        elem, k, _ = witness_parse(path.read_text())
        assert folds_hold(elem.coeffs, k, intermediate_divisors(elem.order))

    @pytest.mark.parametrize(
        "n,k,multiplier,bound",
        [(13, 9, None, 1), (26, 9, None, 1), (63, 16, None, 1), (132, 25, None, 1),
         (52, 81, 3, 3), (35, 36, 4, 3)],
    )
    def test_accepts_every_class_the_search_finds(self, n, k, multiplier, bound):
        found = search(n, k, multiplier, bound).solutions
        assert found
        for sol in found:
            assert folds_hold(sol.coeffs, k, intermediate_divisors(n))


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

    def test_generator_multiplier_finishes_143_100(self):
        # t = 25 generates the theorem set of (143,100) and leaves 21
        # orbits; t = 12 generates a proper subgroup, leaves 77 orbits, and
        # its search runs past 20M nodes
        assert plan(143, 100).table.multiplier == 25
        out = search(143, 100)
        assert out.exhaustive and out.classes == 0

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

    def test_pool_never_outnumbers_the_walk_units(self, monkeypatch):
        # the pool forks all its workers at its first submit; this one maps
        # serially and starts no process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        config = plan(52, 81, 3, 3)
        units = walk_units(config, config_pairs(config))
        monkeypatch.setattr(exhaust_mod, "ProcessPoolExecutor", SerialPool)
        assert search(52, 81, 3, 3, jobs=64) == search(52, 81, 3, 3)
        assert sizes == [len(units)] == [34]

    def test_count_mode_rejected(self):
        # counting without listing is a view of the command line
        with pytest.raises(ValueError, match="unknown mode 'count'"):
            search(63, 16, mode="count")

    def test_first_mode_stops_early(self):
        out = search(63, 16, mode="first")
        assert out.classes >= 1

    @pytest.mark.parametrize("n,k", [(26, 9), (63, 16)])
    def test_first_mode_class_is_an_all_mode_class(self, n, k):
        first = search(n, k, mode="first")
        assert first.classes == 1
        assert first.solutions[0] in search(n, k).solutions

    def test_budget_propagates(self):
        out = search(63, 16, node_budget=5)
        assert not out.exhaustive

    def test_pruning_layers_do_not_change_results(self):
        base = {s.coeffs for s in search(63, 16).solutions}
        for fold_consistency, symmetry_reduction in itertools.product((True, False), repeat=2):
            assert reference_classes(63, 16, fold_consistency, symmetry_reduction) == base

    @pytest.mark.parametrize(
        "n,k,multiplier,coeff_bound",
        [(31, 25, None, 1), (104, 81, None, 1), (132, 25, None, 1), (52, 81, 3, 3)],
    )
    def test_unit_merged_pairs_lose_no_class(self, n, k, multiplier, coeff_bound):
        # units of Z_n merge margin pairs here, so walking every pair is
        # an independent check of the reduction
        base = {s.coeffs for s in search(n, k, multiplier, coeff_bound).solutions}
        assert reference_classes(n, k, True, False, multiplier, coeff_bound) == base

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
            # every pair of (104,81) and (110,81) is refuted by its lift
            (104, 81, {}, (0, 0, 0, 0, True)),
            (110, 81, {}, (0, 0, 0, 0, True)),
            (44, 81, dict(multiplier=3, coeff_bound=3), (30, 0, 0, 0, True)),
            # the stop paths: first mode ends the search at its first class,
            # a budget ends each walk unit at the first node past its share
            (63, 16, dict(mode="first"), (21, 1, 1, 1, True)),
            (132, 25, dict(mode="first"), (448, 2, 1, 1, True)),
            # no unit is left to walk, so a budget cannot stop the search
            (104, 81, dict(node_budget=1000), (0, 0, 0, 0, True)),
            (104, 81, dict(node_budget=1000, jobs=2), (0, 0, 0, 0, True)),
            (63, 16, dict(node_budget=5), (8, 0, 0, 0, False)),
            (31, 25, dict(node_budget=1), (3, 0, 0, 0, False)),
            # census row (156,81): ICW_3(52,81), whose walk repeats many
            # leafless subtrees
            (52, 81, dict(multiplier=3, coeff_bound=3), (5385, 154, 33, 33, True)),
            (52, 81, dict(multiplier=3, coeff_bound=3, mode="first"), (121, 2, 1, 1, True)),
            (
                52, 81, dict(multiplier=3, coeff_bound=3, node_budget=100000),
                (5385, 154, 33, 33, True),
            ),
            # a budget below the 5,385 nodes of its 34 units stops it early
            (
                52, 81, dict(multiplier=3, coeff_bound=3, node_budget=2000),
                (1118, 14, 7, 7, False),
            ),
            (
                52, 81, dict(multiplier=3, coeff_bound=3, node_budget=2000, jobs=2),
                (1118, 14, 7, 7, False),
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
        t = plan(m, 36, coeff_bound=d).table.multiplier
        assert (d, m, t) == (3, 35, 4)
        out = search(m, 36, multiplier=t, coeff_bound=d)
        assert out.exhaustive
        assert (out.nodes_visited, out.leaves_tested, out.solutions_found, out.classes) == (
            160, 9, 1, 1
        )


class TestLeaflessSubtrees:
    """exhaust_pair counts a repeated leafless subtree without walking it
    again; under every budget and in first mode its counters and classes
    match the walk that visits every node of the same tree, the one the
    residual-mass cut leaves.  Each case sweeps the margin pair with the
    most tree nodes."""

    @pytest.mark.parametrize(
        "n,k,multiplier,coeff_bound,budgets",
        [
            (63, 16, None, 1, None),  # every budget 1..N
            (104, 81, None, 1, 50),
            (52, 81, 3, 3, 50),
        ],
    )
    def test_budget_sweep_matches_full_walk(self, n, k, multiplier, coeff_bound, budgets):
        config = plan(n, k, multiplier, coeff_bound)
        table = config.table
        pairs = margin_pairs(*config.margin_solutions(), table.row_orbits, table.col_orbits)
        total, r, c = max(
            (exhaust_pair_oracle(config, r, c, residual_cut=True)[0][0], r, c) for r, c in pairs
        )
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
                cfg, r, c, residual_cut=True
            ), cfg.node_budget


class TestResidualCutSoundness:
    """The residual-mass cut drops no leaf and no class: on every margin
    pair, unbudgeted, the walk's leaves, verified leaves, classes and
    exhaustive flag are those of the walk without it, and its tree is no
    larger."""

    # the exhaust bench cells, (63,16), (176,49), then the contracted
    # searches of the census bench rows
    CELLS = [
        (110, 81, None, 1), (130, 81, None, 1), (143, 81, None, 1), (143, 36, None, 1),
        (154, 81, None, 1), (44, 81, 3, 3), (91, 64, 2, 2), (104, 81, None, 1),
        (72, 49, None, 1), (132, 25, None, 1), (168, 25, None, 1), (116, 49, None, 1),
        (63, 16, None, 1), (176, 49, None, 1),
    ] + [
        (m, k, None, d)
        for n, k in (
            (105, 36), (132, 81), (140, 36), (140, 64), (156, 81), (165, 100), (180, 64),
            (196, 64), (198, 81),
        )
        for d, m in [contraction_parameters(n, k)]
    ]

    @pytest.mark.parametrize("n,k,multiplier,bound", CELLS)
    def test_every_pair_matches_the_uncut_walk(self, n, k, multiplier, bound):
        config = plan(n, k, multiplier, bound)
        table = config.table
        for r, c in margin_pairs(*config.margin_solutions(), table.row_orbits, table.col_orbits):
            out = exhaust_pair(config, r, c)
            (nodes, *counts), classes = exhaust_pair_oracle(config, r, c)
            assert out.nodes_visited <= nodes
            assert [out.leaves_tested, out.solutions_found, out.classes, out.exhaustive] == counts
            assert {sol.coeffs for sol in out.solutions} == classes


def verified_leaves(config, r, c):
    """Every verified vector of the margin pair (r, c) on config's table,
    by the walk with no test at its leaves but the full convolution."""
    table = config.table
    out = []

    def leaf(assign):
        vec = table.partition.expand(assign)
        if verify(GroupRingElement(table.n, vec), config.k, config.coeff_bound):
            out.append(vec)

    walk(table.boxes, table.partition.sizes, r, c, config.k, config.coeff_bound, 1, leaf)
    return out


def scaled_fold(vec, part):
    """The scaled vector of the fold of vec onto part's quotient: the sum
    of the folded coefficients over each orbit."""
    folded = fold(element(len(vec), vec), part.modulus).coeffs
    return tuple(sum(folded[x] for x in members) for _, members in part.orbits)


class TestPairLift:
    """search lifts each margin pair onto an intermediate quotient Z_q and
    walks one unit per lifted vector; its answers must be those of the
    plain path, which walks every pair on the plan's table."""

    def test_refutes_every_pair_of_104_81(self):
        # the margins fix the folds onto Z_8 and Z_13; no pair's column
        # fold lifts through Z_26 onto Z_52, so nothing is walked
        config = plan(104, 81)
        pairs = config_pairs(config)
        assert len(pairs) == 18
        assert walk_units(config, pairs) == []
        assert search(104, 81) == SearchOutcome((), 0, 0, 0, True)

    @pytest.mark.parametrize(
        "n,k,multiplier,bound", TestResidualCutSoundness.CELLS + [(152, 49, None, 1)]
    )
    def test_matches_the_plain_path(self, n, k, multiplier, bound):
        out = search(n, k, multiplier, bound)
        ref = plain_search(n, k, multiplier, bound)
        assert (out.solutions, out.solutions_found, out.exhaustive) == (
            ref.solutions, ref.solutions_found, ref.exhaustive
        )

    @pytest.mark.parametrize("n,k", [(72, 49), (132, 25), (168, 25)])
    def test_either_side_gives_the_same_classes(self, monkeypatch, n, k):
        config = plan(n, k)
        table = config.table
        pairs = config_pairs(config)
        lift = margins_mod.lift
        outcomes = []
        # the column side lifts with the row fold onto Z_d as its cross
        # fold, the row side with the column fold onto Z_m; the side left
        # unblocked must finish, and its units walk its refined line
        for kept, blocked, moved in ((table.d, table.m, "m"), (table.m, table.d, "d")):
            finished = []

            def one_side(k, chain, starts, cross, *rest, blocked=blocked):
                if cross.modulus == blocked:
                    return None
                lifts = lift(k, chain, starts, cross, *rest)
                finished.append(lifts is not None and cross.modulus)
                return lifts

            monkeypatch.setattr(margins_mod, "lift", one_side)
            units = walk_units(config, pairs)
            assert finished[-1] == kept
            assert all(getattr(cfg.table, moved) != getattr(table, moved) for cfg, _, _ in units)
            outcomes.append(SearchOutcome.merge([exhaust_pair(*unit) for unit in units]))
        ref = plain_search(n, k)
        for out in outcomes:
            assert (out.solutions, out.solutions_found) == (ref.solutions, ref.solutions_found)

    @pytest.mark.parametrize(
        "n,k,crosses",
        [
            (104, 81, [8]),
            (152, 49, [8]),
            (160, 81, [32]),
            (72, 49, [8, 9] * 3 + [8]),
            (144, 49, [9, 16] * 7),
        ],
    )
    def test_a_lone_side_lifts_once(self, monkeypatch, n, k, crosses):
        # a lone side has no race to lose, so it is given no budget and
        # never walks its level walks again; two sides still race
        config = plan(n, k)
        pairs = config_pairs(config)
        lift = margins_mod.lift
        calls = []

        def counted(k, chain, starts, cross, *rest):
            calls.append(cross.modulus)
            return lift(k, chain, starts, cross, *rest)

        monkeypatch.setattr(margins_mod, "lift", counted)
        walk_units(config, pairs)
        assert calls == crosses

    @pytest.mark.parametrize(
        "n,k,multiplier,bound", [(63, 16, None, 1), (132, 25, None, 1), (52, 81, 3, 3)]
    )
    def test_every_solution_folds_onto_a_lifted_vector(self, n, k, multiplier, bound):
        config = plan(n, k, multiplier, bound)
        pairs = config_pairs(config)
        units = walk_units(config, pairs)
        refined = units[0][0].table
        lifted = {(r, c) for _, r, c in units}
        found = 0
        for r, c in pairs:
            for vec in verified_leaves(config, r, c):
                folds = (scaled_fold(vec, refined.row_orbits), scaled_fold(vec, refined.col_orbits))
                assert folds in lifted
                assert folds[0] == r or folds[1] == c
                found += 1
        assert found == search(n, k, multiplier, bound).solutions_found > 0


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
            # raced pair lifts: the column side wins the first two, the
            # row side the last
            search(168, 25)
            search(72, 49)
            search(144, 49)
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
        assert config.folds == ((table63.row_orbits, 14), (table63.col_orbits, 18))
        assert [part.modulus for part, _ in config.folds] == [9, 7]

    def test_margin_solutions_of_both_folds(self, table63):
        rows, cols = plan(63, 16).margin_solutions()
        assert [sol.values for sol in rows] == [(4, 0, 0)]
        assert (1, 2, -1) in [sol.values for sol in cols]
        assert all(sol.orbit_sizes == table63.col_orbits.sizes for sol in cols)

    def test_errors_in_order(self):
        # a non-square k is a usage error before any multiplier is derived
        with pytest.raises(ValueError, match="perfect square"):
            plan(112, 35)
        # and so is a weight below 1, even with a supplied multiplier
        for k in (0, -4):
            with pytest.raises(ValueError, match=f"k = {k} must be >= 1"):
                plan(7, k, multiplier=2)
        with pytest.raises(MethodInapplicable):
            plan(112, 36)
        with pytest.raises(ValueError, match="coprime"):
            plan(63, 16, multiplier=3)
        with pytest.raises(ValueError, match="coeff_bound"):
            plan(63, 16, coeff_bound=0)

    def test_supplied_multiplier_checked_against_the_theorems(self):
        # gcd(8, 4) = 2 leaves only t = 1, and CW(8,4) exists
        with pytest.raises(ValueError, match=r"^3 is not a multiplier of CW\(8,4\)$"):
            plan(8, 4, multiplier=3)
        assert plan(8, 4, multiplier=1).table.multiplier == 1
        # 5 is a unit mod 63 but no power of 2
        with pytest.raises(ValueError, match=r"^5 is not a multiplier of CW\(63,16\)$"):
            plan(63, 16, multiplier=5)
        # a multiplier not coprime to n is named as that first
        with pytest.raises(ValueError, match="^multiplier 6 is not coprime to 8$"):
            plan(8, 4, multiplier=6)

    def test_every_derived_multiplier_accepted(self):
        # and generates the theorem set: gcd(n, k) = 1, so some translate of
        # a solution is fixed by every theorem multiplier at once, and the
        # search may use the coarsest partition, that of a generator
        planned = 0
        for n in range(1, 201):
            for s in range(1, 13):
                try:
                    t = plan(n, s * s).table.multiplier
                except MethodInapplicable:
                    continue
                assert plan(n, s * s, multiplier=t).table.multiplier == t
                assert multiplicative_order(t, n) == len(theorem_multipliers(n, s * s)), (n, s)
                planned += 1
        assert planned == 1289

    def test_derivation_checks_its_inputs_first(self):
        for n, k, expect in (
            (7, 0, "k = 0 must be >= 1"),
            (12, -4, "k = -4 must be >= 1"),
            (13, 3, "k = 3 is not a perfect square"),
            (0, 4, "modulus must be positive, got 0"),
        ):
            with pytest.raises(ValueError, match=f"^{expect}$"):
                plan(n, k)

    def test_config_rejects_non_square_weight(self, table63):
        for k in (15, 0, -4):
            with pytest.raises(ValueError, match=f"k = {k} "):
                SearchConfig(table=table63, k=k)


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
        assert {s.coeffs for s in search(n, k).solutions} == brute_force_classes(n, k)

    # with gcd(n, k) > 1 only t = 1 is a multiplier, and the self-conjugacy
    # divisor must skip the primes of k that divide a fold's modulus
    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for k, top in ((4, 30), (9, 13)) for n in range(1, top + 1) if math.gcd(n, k) > 1],
    )
    def test_unit_multiplier_matches_brute_force(self, n, k):
        outcome = search(n, k, multiplier=1)
        assert {s.coeffs for s in outcome.solutions} == brute_force_classes(n, k)

    @pytest.mark.parametrize(
        "k,orders,exists",
        [
            (9, [n for n in range(1, 201) if n % 3], lambda n: n % 13 == 0),
            (16, range(1, 201, 2), lambda n: n % 21 == 0 or n % 31 == 0),
        ],
        ids=["weight9-coprime-to-3", "weight16-odd"],
    )
    def test_existence_patterns_up_to_200(self, k, orders, exists):
        """The first-mode search's answers over n <= 200: with 3 not dividing
        n a CW(n,9) exists iff 13 | n, and for odd n a CW(n,16) exists iff
        21 | n or 31 | n; every "none" is exhaustive.  These agree with the
        weight-9 and weight-16 classifications as recalled from Arasu,
        Dillon, Jungnickel & Pott, JCTA 71 (1995) and Arasu, Leung, Ma,
        Nabavi & Ray-Chaudhuri, FFA 12 (2006).  They are pinned as the
        search's answers; they have not been checked against the papers."""
        for n in orders:
            outcome = search(n, k, mode="first")
            assert (outcome.classes > 0) == exists(n), n
            assert outcome.classes > 0 or outcome.exhaustive, n

    # (n, k, multiplier, coeff_bound): the search cells, then the
    # contracted searches of census rows
    LIFT_CELLS = [
        (63, 16, None, 1), (110, 81, None, 1), (130, 81, None, 1), (143, 81, None, 1),
        (143, 36, None, 1), (154, 81, None, 1), (44, 81, 3, 3), (132, 25, None, 1),
        (168, 25, None, 1), (116, 49, None, 1), (176, 49, None, 1),
    ] + [
        (m, k, None, d)
        for n, k in ((105, 36), (132, 81), (140, 64), (165, 100), (180, 64), (196, 64), (198, 81))
        for d, m in [contraction_parameters(n, k)]
    ]

    @pytest.mark.parametrize("n,k,multiplier,bound", LIFT_CELLS)
    def test_class_set_matches_lift_to_the_whole_group(self, n, k, multiplier, bound):
        """Lifting the margin system straight to Z_n lists every
        multiplier-fixed vector of weight k; their classes are the
        search's.  This oracle shares no orbit table, pair reduction,
        DFS, leafless memo or leaf test with the search, and it reaches
        orders far past brute force."""
        config = plan(n, k, multiplier, bound)
        part = orbits(n, config.table.multiplier)
        lifted = {
            canonical_form(GroupRingElement(n, part.expand(sol.values))).coeffs
            for sol in lift_margin_solutions(config.s, part, bound)
        }
        found = search(n, k, config.table.multiplier, bound)
        assert {sol.coeffs for sol in found.solutions} == lifted and found.exhaustive

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
            assert plan(m, k).table.multiplier == mcfarland_multiplier(m, k)

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
        config = plan(n, k)
        for (part, bound), lifted in zip(config.folds, config.margin_solutions()):
            expected = PINNED_SIDES.get((n, k, part.modulus))
            if expected is None:
                raw = enumerated_side(config.s, part, bound)
                expected = [sol.values for sol in fold_consistency_filter(raw, part, k)]
            assert [sol.values for sol in lifted] == expected
            assert all(sol.orbit_sizes == part.sizes for sol in lifted)

    def test_self_conjugacy_divisor_applies(self):
        # 3 does not divide 10 and is self-conjugate mod 10 (3^2 = -1), and
        # 3^4 || 81, so every b of a fold onto Z_10 is divisible by 9
        part = orbits(10, 3)
        assert self_conjugacy_divisor(81, 10) == 9
        lifted = lift_margin_solutions(9, part, 11)
        raw = enumerated_side(9, part, 11)
        # the divisor drops no fold-consistent solution
        assert [sol.values for sol in lifted] == [
            sol.values for sol in fold_consistency_filter(raw, part, 81)
        ]
        assert [sol.values for sol in lifted] == [(0, 0, 0, 9), (9, 0, 0, 0)]
        assert len(solve_margin_system(9, part.sizes, 11)) > len(lifted)

    def test_self_conjugacy_divisor_skips_primes_dividing_the_modulus(self):
        # 3 | 6, so the theorem says nothing about folds onto Z_6: some
        # fold-consistent vectors there have coefficients prime to 3
        part = orbits(6, 5)
        assert self_conjugacy_divisor(9, 6) == 1
        lifted = lift_margin_solutions(3, part, 3)
        assert len(lifted) == 8 and any(b % 3 for sol in lifted for b in sol.values)
