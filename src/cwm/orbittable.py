"""Orbit tables for Z_n = Z_d x Z_m with gcd(d, m) = 1.

Each Z_n-orbit under the multiplier lands in exactly one box B_ij,
indexed by the Z_d-orbit of its image under reduction mod d (row) and
the Z_m-orbit of its image mod m (column).  Row and column margins of
an orbit assignment are the signed orbit-size sums per line; they are
the orbit-size-scaled intersection numbers of the two folds.  With
d = 1 the table has one row and one column per orbit of Z_n; the search
uses it for orders with no coprime split.  refine gives the same orbits
other row and column folds, such as a lifted margin pair's Z_q.
orbit_boxes sorts orbits into boxes for both and for a margin lifter's
level.  walk is the one walk over signed orbit values, of a table's pair
of margins and of a lifter's level.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

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
    return OrbitTable(n, d, m, t, part, rows, cols, orbit_boxes(part, rows, cols))


def refine(table: OrbitTable, rows: OrbitPartition, cols: OrbitPartition) -> OrbitTable:
    """The table of the same Z_n orbits over other row and column folds:
    quotients of Z_n under its multiplier, which need not be coprime."""
    boxes = orbit_boxes(table.partition, rows, cols)
    return replace(table, d=rows.modulus, m=cols.modulus, row_orbits=rows, col_orbits=cols,
                   boxes=boxes)


def orbit_boxes(
    part: OrbitPartition, rows: OrbitPartition, cols: OrbitPartition
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """boxes[i][j]: the orbits of part that reduce into orbit i of rows and
    orbit j of cols, two quotients of part under the same multiplier."""
    box_lists: list[list[list[int]]] = [[[] for _ in cols.orbits] for _ in rows.orbits]
    for oid, ((i, _), (j, _)) in enumerate(zip(part.spread(rows), part.spread(cols))):
        box_lists[i][j].append(oid)
    return tuple(tuple(tuple(cell) for cell in row) for row in box_lists)


@lru_cache(maxsize=256)
def _choices(size: int, step: int, top: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """Each multiplicity 0, +-step, ..., +-top with its line and square mass
    on an orbit of this size, up to square mass k, in nondecreasing square
    mass.  Cached: a lift walks once per parent vector, and building the
    choices per walk raised the margins bench's peak RSS by 1.2 MB."""
    mults = [0] + [sign * v for v in range(step, top + 1, step) for sign in (1, -1)]
    return tuple((b, b * size, b * b * size) for b in mults if b * b * size <= k)


class Stop(Exception):
    """Ends a walk: raised by its leaf, or by the walk past its node limit."""


def walk(
    boxes: Sequence[Sequence[Sequence[int]]], sizes: Sequence[int], r: Sequence[int],
    c: Sequence[int], k: int, bound: int, step: int, leaf: Callable[[list[int]], None],
    limit: int = sys.maxsize,
) -> tuple[int, int]:
    """Call leaf(assign) at every assignment of a multiplicity assign[oid]
    in 0, +-step, +-2*step, ..., up to bound - bound % step, to each orbit
    of boxes (boxes[i][j] lists the orbits of row i and column j, and
    every column holds one) whose size-weighted row sums are r, column
    sums c, and square mass sum mult^2 * sizes[oid] is k.  A leaf may
    raise Stop to end the walk.  Returns (nodes, leaves): the nodes of
    the search tree, stopping at the first node past limit, so that
    nodes <= limit iff the walk was exhaustive, and the leaves reached.

    The walk goes column by column (right to left), within a column box
    by box from the bottom row up.  A line that can no longer reach its
    target, or a square mass that can no longer end at k, is cut at once.
    The residual-mass cut drops a child when the square mass still to
    place is below the sum of its absolute row, or column, residuals: the
    later steps add sum mult^2 size >= sum |mult| size, no less than
    either sum, so no leaf is lost.  Every cut reads only the square mass
    and the residuals, and when the walk opens a column the columns
    behind it are at zero and the ones ahead still hold their targets.
    So the subtree below a column's first step is fixed by the step, the
    square mass and the row residuals, for any partition of the orbits
    into rows and columns; the walk records the node count of each such
    subtree that held no leaf and adds it on a repeat instead of walking
    it again.  That calls no leaf and counts the nodes of the
    whole tree, so a limit stops the count where the full walk would.
    """
    top = bound - bound % step
    # one step per orbit in visit order, built back to front: the orbit,
    # its row and column, the row, column and square masses the later
    # steps can still carry, its choices, and whether it opens its column
    row_mass = [0] * len(r)
    col_mass = [0] * len(c)
    sq_mass = 0
    steps = []
    for j in range(len(c)):
        for i in range(len(r)):
            for oid in boxes[i][j]:
                size = sizes[oid]
                choices = _choices(size, step, top, k)
                steps.append((oid, i, j, row_mass[i], col_mass[j], sq_mass, choices, False))
                row_mass[i] += top * size
                col_mass[j] += top * size
                sq_mass += top * top * size
        # the last step built of a column is its first visited
        steps[-1] = (*steps[-1][:-1], True)
    steps.reverse()
    nplan = len(steps)

    r_res = list(r)
    c_res = list(c)
    assign = [0] * len(sizes)
    nodes = leaves = 0
    # node count of each leafless subtree below a column's first step, by
    # (step, square mass to place, row residuals), which fix it
    leafless: dict[tuple[int, ...], int] = {}

    def rec(idx: int, room: int, r_abs: int, c_abs: int):
        nonlocal nodes, leaves
        nodes += 1
        if nodes > limit:
            raise Stop
        if idx == nplan:
            # the remaining masses forced all residuals to zero and room == 0
            leaves += 1
            leaf(assign)
            return
        oid, i, j, nxt_row, nxt_col, nxt_sq, choices, opens = steps[idx]
        if opens:
            key = (idx, room, *r_res)
            size = leafless.get(key)
            if size is not None:
                # the walk would visit size nodes here and reach no leaf,
                # stopping at the first node past the limit
                nodes += size - 1
                if nodes > limit:
                    nodes = limit + 1
                    raise Stop
                return
            nodes_at = nodes
            leaves_at = leaves
        ri = r_res[i]
        cj = c_res[j]
        r_rest = r_abs - abs(ri)
        c_rest = c_abs - abs(cj)
        for mult, mass, sq_step in choices:
            nroom = room - sq_step
            if nroom > nxt_sq:
                continue
            if nroom < 0:
                break  # the choices come in nondecreasing square mass
            nr = ri - mass
            if nr > nxt_row or -nr > nxt_row:
                continue
            nc = cj - mass
            if nc > nxt_col or -nc > nxt_col:
                continue
            # the residual-mass cut (docstring)
            nr_abs = r_rest + abs(nr)
            nc_abs = c_rest + abs(nc)
            if nr_abs > nroom or nc_abs > nroom:
                continue
            r_res[i] = nr
            c_res[j] = nc
            assign[oid] = mult
            rec(idx + 1, nroom, nr_abs, nc_abs)
        r_res[i] = ri
        c_res[j] = cj
        assign[oid] = 0
        if opens and leaves == leaves_at:
            leafless[key] = nodes - nodes_at + 1

    with suppress(Stop):
        rec(0, k, sum(map(abs, r)), sum(map(abs, c)))
    del rec  # rec holds itself in its closure; free the walk's state now
    return nodes, leaves


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
