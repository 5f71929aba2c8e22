"""Folding a one-dimensional sequence onto a tiled shape and back.

A direction d lays sequence position t on the shape cell congruent to
t*d modulo the lattice.  When those |S| cells are all distinct, the
direction "defines a folding": the row of cells is a bijection between
sequence positions 0..|S|-1 and shape cells, and fold/unfold transport
symbols across it in both directions.  Whether a direction folds is
decided in closed form by `defines_folding_gcd`; the tests keep the
step-by-step walk as the reference it is checked against.  Cells of the
row come from the coset formula, and positions of cells from the
lattice's map phi onto the cyclic quotient Z_|S|.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

from .lattices import Lattice, Point, Tiling
from .numtheory import as_ints, euler_phi, modinv

Direction = tuple[int, int]


def _check_direction(direction: Direction) -> Direction:
    d = as_ints(direction, "direction", 2)
    if d == (0, 0):
        raise ValueError(f"direction must be a nonzero pair of integers, got {direction!r}")
    return d


def _folds(rows: tuple[Point, Point], size: int, d1: int, d2: int) -> bool:
    """The gcd criterion on plain ints the caller has already checked."""
    (v11, v12), (v21, v22) = rows
    tau = math.gcd(d1, d2)
    return math.gcd(d1 * v22 - d2 * v21, d2 * v11 - d1 * v12) == tau and math.gcd(tau, size) == 1


def defines_folding_gcd(lattice: Lattice, size: int, direction: Direction) -> bool:
    """Closed-form folding test from the basis entries alone.

    With basis rows (v11, v12), (v21, v22) and tau = gcd(|d1|, |d2|),
    a direction folds a shape of the lattice's volume iff tau is coprime
    to the size and the cross-determinants d1*v22 - d2*v21 and
    d2*v11 - d1*v12 are coprime after dividing out tau: gcd exactly tau.
    """
    d1, d2 = _check_direction(direction)
    if size <= 0 or size != lattice.volume:
        raise ValueError(f"size {size} does not match the lattice volume {lattice.volume}")
    return _folds(lattice.rows, size, d1, d2)


def folding_directions(tiling: Tiling) -> list[Direction]:
    """All folding directions, one representative per residue class.

    Directions congruent modulo the lattice trace the same row, so each
    coset gets one closed-form test: O(|S|) work.  Representatives are
    the lexicographically smallest in [0, |S|)^2, namely the cells of
    [0, a) x [0, d) for the triangular basis ((a, b), (0, d)): any other
    member has a larger x, or the same x and a y larger by a multiple of d.
    Whenever the result is nonempty it has exactly phi(|S|) entries.
    """
    n = tiling.size
    if n == 1:
        return [(0, 1)]  # every direction folds the single cell
    # A tiling's size is its lattice's volume, checked once when it was
    # built, so the cells below go to the kernel as plain ints.
    (a, _), (_, d) = tiling.lattice.hnf
    rows = tiling.lattice.rows
    out = [(x, y) for x in range(a) for y in range(d) if (x or y) and _folds(rows, n, x, y)]
    if out and len(out) != euler_phi(n):
        raise RuntimeError(f"{len(out)} folding directions, expected phi({n}) = {euler_phi(n)}")
    return out


def _folding(tiling: Tiling, direction: Direction) -> Direction:
    """The checked direction; raises unless it folds the tiling."""
    d = _check_direction(direction)
    if not defines_folding_gcd(tiling.lattice, tiling.size, d):
        raise ValueError(f"direction {direction} does not define a folding")
    return d


def folded_cells(tiling: Tiling, direction: Direction, positions: Iterable[int]) -> list[Point]:
    """The shape cells congruent to t*d for the given positions t of the
    row; raises unless d folds, which makes the cells of t = 0..|S|-1
    all distinct."""
    d1, d2 = _folding(tiling, direction)
    return tiling.cells((t * d1, t * d2) for t in positions)


def folded_positions(tiling: Tiling, direction: Direction, points: Iterable[Point]) -> list[int]:
    """The inverse of folded_cells: the position t whose cell t*d is
    congruent to each point; raises unless d folds.  A folding d generates
    Z^2 modulo the lattice, so phi maps onto Z_|S| and t = phi(p) / phi(d)."""
    phi, n = tiling.lattice.phi, tiling.size
    (step,) = phi(_folding(tiling, direction))
    inverse = modinv(step, n)
    return [phi(p)[0] * inverse % n for p in points]


def fold(
    seq: Sequence[Hashable], tiling: Tiling, direction: Direction
) -> dict[Point, Hashable]:
    """Lay a length-|S| sequence onto the shape along the folded row."""
    row = folded_cells(tiling, direction, range(tiling.size))
    if len(seq) != tiling.size:
        raise ValueError(f"sequence length {len(seq)} != shape size {tiling.size}")
    return dict(zip(row, seq))


def unfold(
    array: Mapping[Point, Hashable], tiling: Tiling, direction: Direction
) -> list[Hashable]:
    """Read the shape's cells back into a sequence along the folded row."""
    row = folded_cells(tiling, direction, range(tiling.size))
    if set(array) != tiling.shape.points:
        raise ValueError("array cells do not match the shape")
    return [array[cell] for cell in row]
