"""Folding a one-dimensional sequence onto a tiled shape and back.

A direction d lays sequence position t on the shape cell congruent to
t*d modulo the lattice.  When those |S| cells are all distinct, the
direction "defines a folding": the row of cells is a bijection between
sequence positions 0..|S|-1 and shape cells, and fold/unfold transport
symbols across it in both directions.  Whether a direction folds is
decided in closed form by `defines_folding_gcd`; the tests keep the
step-by-step walk as the reference it is checked against.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Sequence

from .lattices import Lattice, Point, Tiling
from .numtheory import as_ints, euler_phi

Direction = tuple[int, int]


def _check_direction(direction: Direction) -> Direction:
    d = as_ints(direction, "direction", 2)
    if d == (0, 0):
        raise ValueError(f"direction must be a nonzero pair of integers, got {direction!r}")
    return d


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
    (v11, v12), (v21, v22) = lattice.rows
    tau = math.gcd(d1, d2)
    return math.gcd(d1 * v22 - d2 * v21, d2 * v11 - d1 * v12) == tau and math.gcd(tau, size) == 1


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
    (a, _), (_, d) = tiling.lattice.hnf
    cells = ((x, y) for x in range(a) for y in range(d) if x or y)
    out = [c for c in cells if defines_folding_gcd(tiling.lattice, n, c)]
    if out and len(out) != euler_phi(n):
        raise RuntimeError(f"{len(out)} folding directions, expected phi({n}) = {euler_phi(n)}")
    return out


def _folded_row(tiling: Tiling, direction: Direction) -> list[Point]:
    """The shape cells congruent to t*d for t = 0..|S|-1; raises unless
    d folds, which is what makes them all distinct."""
    if not defines_folding_gcd(tiling.lattice, tiling.size, direction):
        raise ValueError(f"direction {direction} does not define a folding")
    d1, d2 = direction
    representative = tiling.representative
    return [representative((t * d1, t * d2)) for t in range(tiling.size)]


def fold(
    seq: Sequence[Hashable], tiling: Tiling, direction: Direction
) -> dict[Point, Hashable]:
    """Lay a length-|S| sequence onto the shape along the folded row."""
    row = _folded_row(tiling, direction)
    if len(seq) != tiling.size:
        raise ValueError(f"sequence length {len(seq)} != shape size {tiling.size}")
    return dict(zip(row, seq))


def unfold(
    array: Mapping[Point, Hashable], tiling: Tiling, direction: Direction
) -> list[Hashable]:
    """Read the shape's cells back into a sequence along the folded row."""
    row = _folded_row(tiling, direction)
    if set(array) != tiling.shape.points:
        raise ValueError("array cells do not match the shape")
    return [array[cell] for cell in row]
