import pytest

from cwm.groupring import GroupRingElement, fold
from cwm.numbertheory import crt_combine
from cwm.orbittable import build, default_factorization, render


def box_reps(table, i, j):
    return {table.partition.orbits[o][0] for o in table.boxes[i][j]}


def assigned(table, assignment):
    """The element carrying each multiplicity of the assignment on the
    whole orbit of its representative."""
    values = [0] * len(table.partition)
    for rep, mult in assignment.items():
        values[table.partition.orbit_of(rep)] = mult
    return GroupRingElement(table.n, table.partition.expand(values))


def fold_margins(table, a):
    """Row and column margins of a: its folds onto Z_d and Z_m, summed
    over each row and column orbit."""
    return tuple(
        tuple(sum(fold(a, q).coeffs[x] for x in members) for _, members in part.orbits)
        for q, part in ((table.d, table.row_orbits), (table.m, table.col_orbits))
    )


class TestBuild:
    def test_63_table(self):
        t = build(63, 9, 7, 2)
        assert t.row_orbits.reps == (0, 1, 3)
        assert t.row_orbits.sizes == (1, 6, 2)
        assert t.col_orbits.reps == (0, 1, 3)
        assert t.col_orbits.sizes == (1, 3, 3)
        assert box_reps(t, 1, 1) == {1, 11, 23}
        assert box_reps(t, 1, 2) == {5, 13, 31}
        assert box_reps(t, 0, 0) == {0}
        assert box_reps(t, 2, 0) == {21}

    def test_110_table(self):
        t = build(110, 10, 11, 3)
        assert box_reps(t, 0, 1) == {20}
        assert t.partition.sizes[t.boxes[0][1][0]] == 5
        # the size-20 orbit through 3 sits in box (row <1>_4, col <1>_5);
        # its least member is 1, which is the canonical label here
        i = t.row_orbits.reps.index(1)
        assert box_reps(t, i, 1) == {1}
        oid = next(o for o in t.boxes[i][1])
        assert t.partition.sizes[oid] == 20
        assert 3 in t.partition.orbits[oid][1]

    def test_identity_multiplier_gives_crt_singletons(self):
        t = build(15, 3, 5, 1)
        for i in range(3):
            for j in range(5):
                assert box_reps(t, i, j) == {crt_combine(3, 5, i, j)}

    def test_every_orbit_in_exactly_one_box(self):
        t = build(63, 9, 7, 2)
        seen = []
        for i in range(len(t.row_orbits)):
            for j in range(len(t.col_orbits)):
                seen.extend(t.boxes[i][j])
        assert sorted(seen) == list(range(len(t.partition.orbits)))
        assert sum(t.partition.sizes[o] for o in seen) == 63

    def test_orbit_size_divisible_by_line_sizes(self):
        for n, d, m, mult in ((63, 9, 7, 2), (110, 10, 11, 3), (143, 11, 13, 3)):
            t = build(n, d, m, mult)
            for i, row in enumerate(t.boxes):
                for j, box in enumerate(row):
                    for oid in box:
                        size = t.partition.sizes[oid]
                        assert size % t.row_orbits.sizes[i] == 0
                        assert size % t.col_orbits.sizes[j] == 0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            build(63, 3, 21, 2)  # not coprime
        with pytest.raises(ValueError):
            build(63, 9, 8, 2)  # wrong product
        with pytest.raises(ValueError):
            build(63, 9, 7, 7)  # multiplier shares a factor


class TestMargins:
    def test_worked_63_16_solution(self):
        t = build(63, 9, 7, 2)
        a = assigned(t, {0: 1, 27: 1, 11: 1, 31: -1})
        r, c = fold_margins(t, a)
        assert r == (4, 0, 0)
        assert c == (1, 6, -3)

    def test_empty_assignment(self):
        t = build(63, 9, 7, 2)
        r, c = fold_margins(t, assigned(t, {}))
        assert r == (0, 0, 0) and c == (0, 0, 0)

    def test_all_plus_one_gives_row_totals(self):
        t = build(63, 9, 7, 2)
        a = assigned(t, {t.partition.orbits[o][0]: 1 for o in range(len(t.partition.orbits))})
        r, c = fold_margins(t, a)
        assert r == (7, 42, 14)
        assert sum(r) == sum(c) == 63

    def test_totals_agree(self):
        t = build(110, 10, 11, 3)
        r, c = fold_margins(t, assigned(t, {0: 1, 20: 1, 10: -1, 1: 1}))
        assert sum(r) == sum(c)


class TestReconstruct:
    def test_margins_match_scaled_fold(self):
        t = build(63, 9, 7, 2)
        a = assigned(t, {0: 1, 27: 1, 11: 1, 31: -1})
        _, c = fold_margins(t, a)
        # the fold of a multiplier-fixed element is constant on each orbit
        folded = fold(a, 7)
        for j, (_, members) in enumerate(t.col_orbits.orbits):
            for x in members:
                assert folded.coeffs[x] * len(members) == c[j]

    def test_round_trip_through_margins(self):
        t = build(110, 10, 11, 3)
        a = assigned(t, {0: -1, 20: 1, 10: 1})
        assert sum(a.coeffs) == sum(fold_margins(t, a)[0])


class TestDefaultFactorization:
    def test_63(self):
        assert default_factorization(63, 16, 2) == (9, 7)

    def test_110(self):
        assert default_factorization(110, 81, 3) == (10, 11)

    def test_prime_returns_unit_split(self):
        assert default_factorization(13, 9, 3) == (1, 13)


class TestRender:
    def test_notation_and_determinism(self):
        t = build(63, 9, 7, 2)
        text = render(t)
        assert "<1>_6" in text and "<11>_6" in text and "<23>_6" in text
        assert text == render(build(63, 9, 7, 2))
