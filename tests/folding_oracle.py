"""The step-by-step folding walk, kept as the tests' reference.

The package decides folding by the closed-form gcd criterion and lays
out the row in closed form; these walk the row one step at a time, so
the tests can check both against the simulation the criterion replaced.
"""

from __future__ import annotations

from sidon2d.folding import Direction, _check_direction
from sidon2d.lattices import Point, Tiling


def folded_row(tiling: Tiling, direction: Direction) -> tuple[list[Point], bool]:
    """Walk |S| steps from the origin, reducing into the shape each time.

    Returns the visited cells in order and whether they are all distinct.
    The walk satisfies row[t] == reduction of (t*d1, t*d2), so repeats,
    once they appear, just cycle.
    """
    d1, d2 = _check_direction(direction)
    reduce_ = tiling.representative
    current = (0, 0)
    row = [current]
    for _ in range(tiling.size - 1):
        current = reduce_((current[0] + d1, current[1] + d2))
        row.append(current)
    return row, len(set(row)) == tiling.size


def defines_folding(tiling: Tiling, direction: Direction) -> bool:
    """Whether the folded row visits every cell of the shape exactly once."""
    row, complete = folded_row(tiling, direction)
    if complete:
        d1, d2 = direction
        last = row[-1]
        if tiling.representative((last[0] + d1, last[1] + d2)) != (0, 0):
            raise RuntimeError(f"the complete row of {direction} does not re-enter at the origin")
    return complete
