"""Orbit tables for Z_n = Z_d x Z_m with gcd(d, m) = 1.

Each Z_n-orbit under the multiplier lands in exactly one box B_ij,
indexed by the Z_d-orbit of its image under reduction mod d (row) and
the Z_m-orbit of its image mod m (column).  Row and column margins of
an orbit assignment are the signed orbit-size sums per line; they are
the orbit-size-scaled intersection numbers of the two folds.  With
d = 1 the table has one row and one column per orbit of Z_n; the search
uses it for orders with no coprime split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .groupring import GroupRingElement
from .numbertheory import OrbitPartition, coprime_factor_pairs, factorize, is_self_conjugate, orbits


@dataclass(frozen=True)
class OrbitTable:
    n: int
    d: int
    m: int
    multiplier: int
    partition: OrbitPartition  # Z_n orbits
    row_orbits: OrbitPartition  # Z_d orbits under t mod d
    col_orbits: OrbitPartition  # Z_m orbits under t mod m
    boxes: tuple[tuple[tuple[int, ...], ...], ...]  # boxes[i][j] = Z_n orbit ids
    orbit_row: tuple[int, ...]  # Z_n orbit id -> row index
    orbit_col: tuple[int, ...]

    @property
    def num_rows(self) -> int:
        return len(self.row_orbits)

    @property
    def num_cols(self) -> int:
        return len(self.col_orbits)

    def orbit_rep(self, oid: int) -> int:
        return self.partition.orbits[oid][0]

    def orbit_size(self, oid: int) -> int:
        return len(self.partition.orbits[oid][1])


def build(n: int, d: int, m: int, t: int) -> OrbitTable:
    if d * m != n:
        raise ValueError(f"{d} * {m} != {n}")
    if math.gcd(d, m) != 1:
        raise ValueError(f"{d} and {m} are not coprime")
    if math.gcd(t, n) != 1:
        raise ValueError(f"multiplier {t} is not coprime to {n}")
    part = orbits(n, t)
    rows = orbits(d, t % d)
    cols = orbits(m, t % m)
    orbit_row = []
    orbit_col = []
    box_lists: list[list[list[int]]] = [
        [[] for _ in range(len(cols))] for _ in range(len(rows))
    ]
    for oid, (rep, _) in enumerate(part.orbits):
        i = rows.orbit_of(rep % d)
        j = cols.orbit_of(rep % m)
        orbit_row.append(i)
        orbit_col.append(j)
        box_lists[i][j].append(oid)
    boxes = tuple(tuple(tuple(cell) for cell in row) for row in box_lists)
    return OrbitTable(n, d, m, t, part, rows, cols, boxes, tuple(orbit_row), tuple(orbit_col))


def _orbit_values(table: OrbitTable, assignment: Mapping[int, int]) -> list[int]:
    """The assignment's multiplicity on each Z_n orbit, by orbit id."""
    values = [0] * len(table.partition)
    for rep, mult in assignment.items():
        if not mult:
            continue
        oid = table.partition.orbit_of(rep)
        if table.orbit_rep(oid) != rep % table.n:
            raise ValueError(f"{rep} is not an orbit representative mod {table.n}")
        values[oid] = mult
    return values


def margin_of(table: OrbitTable, assignment: Mapping[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column sums of an assignment mapping orbit representatives
    to signed multiplicities (absent orbits count as 0)."""
    r = [0] * table.num_rows
    c = [0] * table.num_cols
    for oid, mult in enumerate(_orbit_values(table, assignment)):
        size = table.orbit_size(oid)
        r[table.orbit_row[oid]] += mult * size
        c[table.orbit_col[oid]] += mult * size
    return tuple(r), tuple(c)


def reconstruct(table: OrbitTable, assignment: Mapping[int, int]) -> GroupRingElement:
    """Group ring element with the given multiplicity on each orbit."""
    return GroupRingElement(table.n, table.partition.expand(_orbit_values(table, assignment)))


def default_factorization(n: int, k: int, t: int) -> Optional[tuple[int, int]]:
    """Pick (d, m) for the search table.

    Maximizes min(#row orbits, #col orbits); ties prefer making the rows
    the side whose fold is trivialized by self-conjugacy (strongest
    pruning), then the smaller d.  None when n has no coprime split.
    """
    pairs = coprime_factor_pairs(n)
    if not pairs:
        return None
    ks = [p for p, e in factorize(k).items() if e >= 2]

    def score(pair):
        d, m = pair
        nrows = len(orbits(d, t % d))
        ncols = len(orbits(m, t % m))
        sc_rows = any(is_self_conjugate(p, d) for p in ks)
        return (min(nrows, ncols), 1 if sc_rows else 0, -d)

    return max(pairs, key=score)


def _bracket(rep: int, size: int) -> str:
    return f"<{rep}>_{size}"


def render(table: OrbitTable) -> str:
    """Aligned text rendering of the table in <rep>_size notation."""
    header = [f"Z_{table.d} \\ Z_{table.m}"] + [
        _bracket(rep, len(members)) for rep, members in table.col_orbits.orbits
    ]
    rows_text = [header]
    for i, (rep, members) in enumerate(table.row_orbits.orbits):
        row = [_bracket(rep, len(members))]
        for j in range(table.num_cols):
            cell = " ".join(
                _bracket(table.orbit_rep(oid), table.orbit_size(oid))
                for oid in table.boxes[i][j]
            )
            row.append(cell)
        rows_text.append(row)
    widths = [max(len(r[c]) for r in rows_text) for c in range(len(header))]
    lines = []
    for ridx, row in enumerate(rows_text):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        if ridx == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines) + "\n"
