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

from .numbertheory import OrbitPartition, coprime_factor_pairs, orbits, self_conjugacy_divisor


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


def build(n: int, d: int, m: int, t: int) -> OrbitTable:
    if d * m != n:
        raise ValueError(f"{d} * {m} != {n}")
    if math.gcd(d, m) != 1:
        raise ValueError(f"{d} and {m} are not coprime")
    part = orbits(n, t)
    rows = orbits(d, t % d)
    cols = orbits(m, t % m)
    box_lists: list[list[list[int]]] = [
        [[] for _ in range(len(cols))] for _ in range(len(rows))
    ]
    for oid, ((i, _), (j, _)) in enumerate(zip(part.spread(rows), part.spread(cols))):
        box_lists[i][j].append(oid)
    boxes = tuple(tuple(tuple(cell) for cell in row) for row in box_lists)
    return OrbitTable(n, d, m, t, part, rows, cols, boxes)


def default_factorization(n: int, k: int, t: int) -> tuple[int, int]:
    """Pick (d, m) for the search table.

    Maximizes min(#row orbits, #col orbits); ties prefer making the rows
    the side whose fold is trivialized by self-conjugacy (strongest
    pruning), then the smaller d.  (1, n) when n has no coprime split.
    Raises ValueError for a multiplier not coprime to n.
    """
    if math.gcd(t, n) != 1:
        raise ValueError(f"multiplier {t} is not coprime to {n}")
    pairs = coprime_factor_pairs(n)
    if not pairs:
        return 1, n

    def score(pair):
        d, m = pair
        nrows = len(orbits(d, t % d))
        ncols = len(orbits(m, t % m))
        return (min(nrows, ncols), self_conjugacy_divisor(k, d) > 1, -d)

    return max(pairs, key=score)


def _bracket(rep: int, size: int) -> str:
    return f"<{rep}>_{size}"


def render(table: OrbitTable) -> str:
    """Aligned text rendering of the table in <rep>_size notation."""
    header = [f"Z_{table.d} \\ Z_{table.m}"] + [
        _bracket(rep, len(members)) for rep, members in table.col_orbits.orbits
    ]
    part = table.partition
    rows_text = [header]
    for i, (rep, members) in enumerate(table.row_orbits.orbits):
        row = [_bracket(rep, len(members))]
        for j in range(len(table.col_orbits)):
            cell = " ".join(
                _bracket(part.orbits[oid][0], part.sizes[oid])
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
