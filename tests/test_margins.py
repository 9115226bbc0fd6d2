import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cwm.margins import (
    MarginSolution,
    affine_orbit_permutations,
    count_margin_solutions,
    fold_consistency_filter,
    lift_margin_solutions,
    margin_pairs,
    reduce_by_affine_maps,
    self_conjugacy_filter,
    solve_margin_system,
)
from cwm.exhaust import plan
from cwm.numbertheory import orbits, self_conjugacy_divisor


def brute_solutions(s, k, sizes, bound):
    # every coordinate but the last is enumerated; the linear equation
    # then fixes the last one
    out = []
    ranges = [range(-bound, bound + 1)] * (len(sizes) - 1)
    for head in itertools.product(*ranges):
        last, rem = divmod(s - sum(b * z for b, z in zip(head, sizes)), sizes[-1])
        if rem or abs(last) > bound:
            continue
        values = head + (last,)
        if sum(b * b * z for b, z in zip(values, sizes)) != k:
            continue
        out.append(values)
    return sorted(out)


MOMENT_CASES = [
    (9, 81, (1, 5, 5), 13),
    (6, 36, (1, 3, 3, 3, 3), 11),
    (9, 81, (1, 1, 4, 4), 11),
    (7, 49, (1, 1, 1, 3, 3), 13),
    (8, 64, (1, 3, 3), 12),
    (3, 9, (1, 3, 3, 3, 3), 2),
]


class TestSolveMarginSystem:
    def test_weight81_two_size5_orbits(self):
        sols = solve_margin_system(9, (1, 5, 5), 13)
        assert {s.values for s in sols} == {
            (9, 0, 0), (4, 3, -2), (4, -2, 3), (-6, 3, 0), (-6, 0, 3)
        }

    def test_weight36_four_size3_orbits(self):
        # the full moment system is larger than the classically quoted
        # (6,0,0,0,0) / (0,2,2,-2,0)-permutation list; the oracle test
        # below pins the complete count, here we check the quoted
        # solutions are all present
        sols = solve_margin_system(6, (1, 3, 3, 3, 3), 11)
        values = {s.values for s in sols}
        quoted = {(6, 0, 0, 0, 0)} | {
            (0,) + perm for perm in set(itertools.permutations((2, 2, -2, 0)))
        }
        assert quoted <= values
        assert len(sols) == 65

    def test_weight36_order11_side(self):
        sols = solve_margin_system(6, (1, 5, 5), 13)
        assert {s.values for s in sols} == {(6, 0, 0), (-4, 2, 0), (-4, 0, 2)}

    def test_trivial_solution_present(self):
        for s in (2, 3, 7):
            sols = solve_margin_system(s, (1, 1, 1), s)
            assert any(
                sorted(sol.values) == sorted([s] + [0, 0]) for sol in sols
            )

    @pytest.mark.parametrize("s,k,sizes,bound", MOMENT_CASES)
    def test_matches_nested_loop_oracle(self, s, k, sizes, bound):
        sols = solve_margin_system(s, sizes, bound)
        assert [sol.values for sol in sols] == brute_solutions(s, k, sizes, bound)

    def test_lexicographic_order(self):
        sols = solve_margin_system(9, (1, 5, 5), 13)
        assert [s.values for s in sols] == sorted(s.values for s in sols)

    def test_empty_is_valid(self):
        assert solve_margin_system(3, (2, 2), 5) == []

    def test_scaled_and_total(self):
        sol = MarginSolution((1, 5, 5), (4, 3, -2))
        assert sol.scaled == (4, 15, -10)
        assert sum(sol.scaled) == 9


class TestCountMarginSolutions:
    @pytest.mark.parametrize("s,k,sizes,bound", MOMENT_CASES)
    def test_equals_enumeration(self, s, k, sizes, bound):
        assert count_margin_solutions(s, sizes, bound) == len(
            solve_margin_system(s, sizes, bound)
        )

    def test_long_side_144_49(self):
        # the Z_16 fold of (144,49): the enumeration lists 68574 solutions
        assert count_margin_solutions(7, (1, 2, 2, 2, 2, 2, 1, 2, 2), 9) == 68574

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
        s=st.integers(-4, 6),
        bound=st.integers(0, 4),
    )
    def test_equals_enumeration_random(self, sizes, s, bound):
        assert count_margin_solutions(s, sizes, bound) == len(
            solve_margin_system(s, sizes, bound)
        )


def orbit_partitions(m):
    """The distinct partitions of Z_m into orbits of a multiplier."""
    parts = {}
    for t in range(1, m):
        if math.gcd(t, m) == 1:
            part = orbits(m, t)
            parts.setdefault(part.orbits, part)
    return list(parts.values())


def lifting_cases():
    """(partition, bound) pairs for every modulus 2..40 that the moment
    enumeration can list quickly: every multiplier partition with at most
    8 orbits at bounds 1 and 2 (and 3 with at most 6 orbits); moduli whose
    partitions all have more orbits (24, 30, 32, 36, 40) use their
    partition with the fewest orbits at bound 1."""
    cases = []
    for m in range(2, 41):
        parts = orbit_partitions(m)
        small = [part for part in parts if len(part) <= 8]
        for part in small:
            for bound in (1, 2, 3) if len(part) <= 6 else (1, 2):
                cases.append((part, bound))
        if not small:
            cases.append((min(parts, key=len), 1))
    return cases


def unpruned_oracle(s, part, bound):
    """Every moment solution, then full fold consistency: the lifter's
    contract, with no self-conjugacy pruning."""
    return fold_consistency_filter(solve_margin_system(s, part.sizes, bound), part, s * s)


class TestLiftMarginSolutions:
    # the lifter prunes by the self-conjugacy divisor; equality with the
    # unpruned oracle checks that the theorem, as the code states it,
    # drops no fold-consistent vector
    @staticmethod
    def check_against_oracle(cases):
        """(checked, pruned by a divisor > 1, nonempty) over s = 2..7."""
        checked = pruned = nonempty = 0
        for part, bound in cases:
            for s in range(2, 8):
                lifted = lift_margin_solutions(s, part, bound)
                if s * s > bound * bound * part.modulus:
                    # no vector reaches the square mass; both sides are empty
                    assert lifted == []
                else:
                    assert lifted == unpruned_oracle(s, part, bound), (
                        part.modulus, part.multiplier, s, bound
                    )
                checked += 1
                pruned += self_conjugacy_divisor(s * s, part.modulus) > 1
                nonempty += bool(lifted)
        return checked, pruned, nonempty

    def test_matches_filtered_moment_solutions(self):
        checked, pruned, nonempty = self.check_against_oracle(lifting_cases())
        assert {part.modulus for part, _ in lifting_cases()} == set(range(2, 41))
        assert (checked, pruned) == (1632, 773) and nonempty > 100

    def test_matches_filtered_moment_solutions_at_census_bounds(self):
        # the census's contracted searches fold at bounds well above 3
        cases = [
            (part, bound)
            for m in range(2, 41)
            for part in orbit_partitions(m)
            if len(part) <= 5
            for bound in (4, 7, 12)
        ]
        assert self.check_against_oracle(cases) == (990, 579, 858)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 24),
        t=st.integers(1, 23),
        s=st.integers(-3, 5),
        bound=st.integers(0, 3),
    )
    def test_matches_filtered_moment_solutions_random(self, m, t, s, bound):
        t %= m
        if m > 1 and math.gcd(t, m) != 1:
            t = 1
        part = orbits(m, t)
        if len(part) > 8:
            part = min(orbit_partitions(m), key=len)
        if len(part) > 8:
            bound = min(bound, 1)
        assert lift_margin_solutions(s, part, bound) == unpruned_oracle(s, part, bound)

    def test_solutions_carry_the_partition_sizes(self):
        part = orbits(16, 7)
        sols = lift_margin_solutions(7, part, 9)
        assert len(sols) == 18
        assert all(sol.orbit_sizes == part.sizes for sol in sols)

    def test_modulus_one(self):
        part = orbits(1, 1)
        assert [sol.values for sol in lift_margin_solutions(3, part, 3)] == [(3,)]
        assert lift_margin_solutions(3, part, 2) == []


class TestSelfConjugacyFilter:
    def test_110_fold_onto_10_keeps_trivial_only(self):
        # orbit sizes of Z_10 under 3 are (1, 1, 4, 4); p = 3 with 3^4 | 81
        sols = solve_margin_system(9, (1, 1, 4, 4), 11)
        kept = self_conjugacy_filter(sols, 3, 10, 2)
        assert {s.values for s in kept} == {(9, 0, 0, 0), (0, 9, 0, 0)}
        assert len(sols) > len(kept)

    def test_exponent_zero_is_identity(self):
        sols = solve_margin_system(9, (1, 5, 5), 13)
        assert self_conjugacy_filter(sols, 3, 11, 0) == sols

    def test_non_self_conjugate_rejected(self):
        sols = solve_margin_system(9, (1, 5, 5), 13)
        with pytest.raises(ValueError):
            self_conjugacy_filter(sols, 3, 11, 2)

    def test_prime_dividing_modulus_rejected(self):
        # 2 | 8: the theorem says nothing about folds onto Z_8, and the
        # CW(8,4) (-1,0,1,0,1,0,1,0) is its own fold with odd coefficients
        sols = solve_margin_system(8, (1, 1, 2, 2, 2), 26)
        with pytest.raises(ValueError, match="unsound"):
            self_conjugacy_filter(sols, 2, 8, 3)

    def test_survivors_divisible(self):
        # 2^2 = -1 mod 5, so a fold onto Z_5 of weight 16 is 0 mod 4
        sols = solve_margin_system(4, (1, 1, 1, 1, 1), 4)
        kept = self_conjugacy_filter(sols, 2, 5, 2)
        assert 0 < len(kept) < len(sols)
        for sol in kept:
            assert all(b % 4 == 0 for b in sol.values)


class TestFoldConsistency:
    def test_never_discards_a_true_fold(self, cw63):
        from cwm.groupring import fold

        part = orbits(7, 2)
        sols = solve_margin_system(4, part.sizes, 9)
        kept = fold_consistency_filter(sols, part, 16)
        folded = fold(cw63, 7)
        true_values = tuple(folded.coeffs[rep] for rep, _ in part.orbits)
        assert any(sol.values == true_values for sol in kept)

    def test_filters_inconsistent_moment_solutions(self):
        part = orbits(13, 3)
        sols = solve_margin_system(9, part.sizes, 11)
        kept = fold_consistency_filter(sols, part, 81)
        # the (0,5,0,-1,-1)-type solutions satisfy the moments but not
        # the full product equation
        assert len(kept) < len(sols)
        for sol in kept:
            vec = part.expand(sol.values)
            for shift in range(1, 13):
                assert sum(vec[i] * vec[(i + shift) % 13] for i in range(13)) == 0

    @pytest.mark.parametrize(
        "m,t,s,k,bound", [(13, 3, 9, 81, 11), (7, 2, 4, 16, 9), (11, 3, 6, 36, 13)]
    )
    def test_keeps_exactly_the_solutions_of_the_fold_equation(self, m, t, s, k, bound):
        part = orbits(m, t)
        sols = solve_margin_system(s, part.sizes, bound)

        def autocorrelation(sol):
            vec = part.expand(sol.values)
            return [sum(vec[i] * vec[(i + x) % m] for i in range(m)) for x in range(m)]

        expected = [sol for sol in sols if autocorrelation(sol) == [k] + [0] * (m - 1)]
        assert fold_consistency_filter(sols, part, k) == expected

    def test_expand_is_orbit_constant(self):
        part = orbits(9, 7)
        sol = MarginSolution(part.sizes, (1, 2, -1, 0, 3))
        vec = part.expand(sol.values)
        for oid, (_, members) in enumerate(part.orbits):
            assert {vec[x] for x in members} == {sol.values[oid]}


class TestShiftReduction:
    def test_permutations_form_expected_group(self):
        # units of Z_10 all lie in <3>, so only the translations by 0 and 5
        # (2x = 0 mod 10) move orbits
        part = orbits(10, 3)
        perms = affine_orbit_permutations(part)
        assert len(perms) == 2

    def test_110_rows_collapse(self):
        part = orbits(10, 3)
        sols = solve_margin_system(9, part.sizes, 11)
        kept = self_conjugacy_filter(sols, 3, 10, 2)
        reduced = reduce_by_affine_maps(kept, part)
        assert len(reduced) == 1
        assert reduced[0].scaled == (9, 0, 0, 0)

    def test_reduction_keeps_lex_greatest(self):
        # Z_10: translations only; Z_11 and Z_5: units outside <t> as well
        for m, t, s, k, bound in [(10, 3, 9, 81, 11), (11, 3, 9, 81, 10), (5, 4, 3, 9, 3)]:
            part = orbits(m, t)
            sols = solve_margin_system(s, part.sizes, bound)
            reduced = reduce_by_affine_maps(sols, part)
            perms = affine_orbit_permutations(part)
            for sol in reduced:
                for perm in perms:
                    image = tuple(sol.scaled[perm[i]] for i in range(len(perm)))
                    assert image <= sol.scaled


def reduce_oracle(solutions, partition):
    """The earlier reduce_by_affine_maps: the greatest image of each
    solution under every map, one solution at a time."""
    perms = affine_orbit_permutations(partition)
    sizes = partition.sizes
    seen = {}
    for sol in solutions:
        scaled = sol.scaled
        key = max(tuple(scaled[j] for j in perm) for perm in perms)
        if key not in seen:
            seen[key] = MarginSolution(sizes, tuple(v // s for v, s in zip(key, sizes)))
    return [seen[key] for key in sorted(seen)]


class TestReductionOracle:
    @pytest.mark.parametrize(
        "m,t,s,bound",
        [(10, 3, 9, 11), (11, 3, 9, 10), (5, 4, 3, 3), (9, 7, 4, 7), (13, 3, 3, 2)],
    )
    def test_matches_the_per_solution_maximum(self, m, t, s, bound):
        part = orbits(m, t)
        sols = solve_margin_system(s, part.sizes, bound)
        assert reduce_by_affine_maps(sols, part) == reduce_oracle(sols, part)

    @pytest.mark.parametrize("n,k", [(63, 16), (152, 49), (168, 25), (72, 49)])
    def test_matches_on_the_folds_of_a_search(self, n, k):
        config = plan(n, k)
        for (part, _), sols in zip(config.folds, config.margin_solutions()):
            assert reduce_by_affine_maps(sols, part) == reduce_oracle(sols, part)

    def test_one_orbit_under_multiplier_one(self):
        # the weight-1 solutions of Z_31 with t = 1 are the 31 translates
        # of a point, one orbit of the translations
        part = orbits(31, 1)
        sols = solve_margin_system(1, part.sizes, 1)
        assert len(sols) == 31
        reduced = reduce_by_affine_maps(sols, part)
        assert reduced == reduce_oracle(sols, part)
        assert [sol.values for sol in reduced] == [(1,) + (0,) * 30]


def affine_pair_orbits(rows, cols, rows_part, cols_part):
    """Number of orbits of the pairs of expanded row/column vectors under
    x -> u*x + g on Z_n, n = d*m, for every unit u and every g with
    (t-1)*g = 0 mod n, acting on the row fold mod d and the column fold
    mod m.  t is the multiplier of Z_n that reduces to both folds'."""
    d, m = rows_part.modulus, cols_part.modulus
    n = d * m
    t = next(
        x for x in range(n)
        if x % d == rows_part.multiplier % d and x % m == cols_part.multiplier % m
    )
    maps = [
        (u, g)
        for u in range(n) if math.gcd(u, n) == 1
        for g in range(n) if (t - 1) * g % n == 0
    ]

    def image(vec, mod, u, g):
        return tuple(vec[(u * x + g) % mod] for x in range(mod))

    pairs = {
        (rows_part.expand(r.values), cols_part.expand(c.values)) for r in rows for c in cols
    }
    return len(
        {
            min((image(vr, d, u, g), image(vc, m, u, g)) for u, g in maps)
            for vr, vc in pairs
        }
    )


class TestMarginPairs:
    def test_pair_count_matches_brute_force_orbits(self):
        # only the zero translation commutes with 4 on Z_5 and 2 on Z_3,
        # but a unit u = 2 mod 5 swaps the orbits {1, 4} and {2, 3} of Z_5
        rows_part, cols_part = orbits(5, 4), orbits(3, 2)
        rows = solve_margin_system(3, rows_part.sizes, 3)
        cols = solve_margin_system(3, cols_part.sizes, 3)
        pairs = margin_pairs(rows, cols, rows_part, cols_part)
        assert len(rows) * len(cols) == 6
        assert len(pairs) == affine_pair_orbits(rows, cols, rows_part, cols_part) == 4
        assert pairs == sorted(pairs)
        assert set(pairs) <= {(r.scaled, c.scaled) for r in rows for c in cols}

    def test_empty_rows_give_empty_output(self):
        cols = solve_margin_system(3, (1, 2), 3)
        assert margin_pairs([], cols, orbits(5, 4), orbits(3, 2)) == []

    def test_63_16_pair_present(self):
        rows_part = orbits(9, 2)
        cols_part = orbits(7, 2)
        rows = solve_margin_system(4, rows_part.sizes, 7)
        cols = solve_margin_system(4, cols_part.sizes, 9)
        pairs = margin_pairs(rows, cols, rows_part, cols_part)
        assert ((4, 0, 0), (1, 6, -3)) in pairs

    def test_reduction_only_merges_affine_equivalents(self):
        rows_part = orbits(10, 3)
        cols_part = orbits(11, 3)
        rows = self_conjugacy_filter(
            solve_margin_system(9, rows_part.sizes, 11), 3, 10, 2
        )
        cols = solve_margin_system(9, cols_part.sizes, 10)
        reduced = margin_pairs(rows, cols, rows_part, cols_part)
        # the two row survivors are translates of one another; on Z_11 the
        # unit -1 swaps the two nonzero orbits of x -> 3x
        assert len(reduced) == affine_pair_orbits(rows, cols, rows_part, cols_part)
        assert len(reduced) < len(rows) * len(cols) // 2
        assert all(r == (9, 0, 0, 0) for r, _ in reduced)
