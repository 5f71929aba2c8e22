"""The cell-by-cell render, kept as the tests' reference for `render_ascii`.

The package builds each row as one character list and places the shape's
cells and the dots in it; this tests every cell of the bounding box in
turn, so the tests can check the rows against it.
"""

from __future__ import annotations

from sidon2d.ddc import PeriodicDdc


def render_cells(pattern: PeriodicDdc) -> str:
    """One fundamental copy, rows printed top to bottom: a bullet for a
    dot, a dot character for an empty cell, blank outside the shape."""
    min_x, min_y, max_x, max_y = pattern.shape.bounds()
    lines = []
    for y in range(max_y, min_y - 1, -1):
        row = []
        for x in range(min_x, max_x + 1):
            if (x, y) in pattern.dots:
                row.append("•")
            elif (x, y) in pattern.shape:
                row.append(".")
            else:
                row.append(" ")
        lines.append("".join(row).rstrip())
    return "\n".join(lines)
