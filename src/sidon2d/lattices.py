"""Integer sublattices of Z^2, finite shapes, and lattice tilings.

A lattice is the integer span of two independent row vectors.  A shape
is a finite set of grid cells containing the origin (the origin is the
designated center cell).  When the shape is a complete set of coset
representatives of Z^2 modulo the lattice, translating it by all
lattice vectors tiles the plane; that pairing is what the rest of the
package folds sequences onto.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable

from .numtheory import as_ints, xgcd

Point = tuple[int, int]

# The field order limit, so Bose q = 1024 fits.  Slowest at the cap: `fold` of
# that sequence onto 1023,0;0,1025, 5.6 s cold, 251 MB (2-vCPU Xeon, Python 3.11).
MAX_RECTANGLE_CELLS = 1 << 20


def _hnf_rows(rows: Iterable[Point]) -> tuple[Point, Point]:
    """Upper-triangular basis ((a, b), (0, d)) of the span of the rows.

    a > 0, d > 0, 0 <= b < d.  Raises if the rows do not span rank 2.
    """
    a, b = 0, 0
    d = 0
    for x, y in rows:
        if x == 0:
            d = math.gcd(d, y)
        elif a == 0:
            a, b = x, y
        else:
            g, u, v = xgcd(a, x)
            leftover = (a // g) * y - (x // g) * b
            a, b = g, u * b + v * y
            d = math.gcd(d, leftover)
    if a == 0 or d == 0:
        raise ValueError("rows do not span a rank-2 lattice")
    if a < 0:
        a, b = -a, -b
    return (a, b % d), (0, d)


@dataclass(frozen=True)
class Lattice:
    """Sublattice of Z^2 spanned by the two rows of an integer matrix."""

    rows: tuple[Point, Point]
    hnf: tuple[Point, Point] = field(init=False, repr=False, compare=False)
    volume: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = as_ints(self.rows, "lattice", 2, 2)
        (v11, v12), (v21, v22) = rows
        if v11 * v22 - v12 * v21 == 0:
            raise ValueError(f"basis rows {rows} are linearly dependent")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "hnf", _hnf_rows(rows))
        object.__setattr__(self, "volume", abs(v11 * v22 - v12 * v21))

    def coset_key(self, point: Point) -> Point:
        """Canonical label of the coset of point in Z^2 modulo the lattice."""
        (h11, h12), (_, h22) = self.hnf
        x, y = point
        q, r = divmod(x, h11)
        return r, (y - q * h12) % h22

    def __contains__(self, point: Point) -> bool:
        return self.coset_key(point) == (0, 0)

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


@dataclass(frozen=True)
class Shape:
    """Finite set of grid cells; the origin cell is the center."""

    points: frozenset[Point]

    def __post_init__(self) -> None:
        pts = frozenset(as_ints(self.points, "shape", None, 2))
        if (0, 0) not in pts:
            raise ValueError("a shape must contain the origin")
        object.__setattr__(self, "points", pts)

    @classmethod
    def rectangle(cls, width: int, height: int) -> "Shape":
        width, height = as_ints((width, height), "rectangle sides", 2)
        if width < 1 or height < 1:
            raise ValueError(f"rectangle sides must be positive, got {width}x{height}")
        if width * height > MAX_RECTANGLE_CELLS:
            raise ValueError(f"rectangle {width}x{height} is over the {MAX_RECTANGLE_CELLS}-cell cap")
        return cls(frozenset(product(range(width), range(height))))

    @property
    def size(self) -> int:
        return len(self.points)

    def bounds(self) -> tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y) of the cells."""
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        return min(xs), min(ys), max(xs), max(ys)

    def to_json(self) -> list[list[int]]:
        """The cells as [x, y] lists in sorted order; a full box is sorted
        already when listed x-major."""
        min_x, min_y, max_x, max_y = self.bounds()
        if self.size == (max_x - min_x + 1) * (max_y - min_y + 1):
            return [[x, y] for x in range(min_x, max_x + 1) for y in range(min_y, max_y + 1)]
        return [list(p) for p in sorted(self.points)]


def fundamental_shape(lattice: Lattice) -> Shape:
    """The rectangular transversal read off the triangular basis.

    With basis ((h11, h12), (0, h22)), every point reduces uniquely into
    [0, h11) x [0, h22), so the rectangle always tiles with the lattice.
    """
    (h11, _), (_, h22) = lattice.hnf
    return Shape.rectangle(h11, h22)


class Tiling:
    """A validated (lattice, shape) tiling pair with point reduction.

    Reduction sends any grid point to the unique cell of the shape in
    its coset; the matching lattice point (the "center" of the copy the
    point fell in) is the difference.  On the fundamental rectangle
    [0, a) x [0, d) of the triangular basis ((a, b), (0, d)) the coset
    key is that cell, so only other shapes keep a key -> cell table.
    """

    def __init__(self, lattice: Lattice, shape: Shape):
        (a, _), (_, d) = lattice.hnf
        self._cell_of_key: dict[Point, Point] | None = None
        # the size alone would pass a transposed d x a box
        if not (shape.size == a * d and shape.bounds() == (0, 0, a - 1, d - 1)):
            key = lattice.coset_key
            self._cell_of_key = {key(p): p for p in shape.points}
            # a transversal: one cell per coset, and as many cells as cosets
            if not len(self._cell_of_key) == shape.size == lattice.volume:
                raise ValueError(
                    f"shape of size {shape.size} does not tile with lattice {lattice.rows}"
                    f" (volume {lattice.volume})"
                )
        self.lattice = lattice
        self.shape = shape

    @property
    def size(self) -> int:
        return self.shape.size

    def representative(self, point: Point) -> Point:
        """The cell of the shape congruent to the point."""
        key = self.lattice.coset_key(point)
        return key if self._cell_of_key is None else self._cell_of_key[key]

    def cells(self, points: Iterable[Point]) -> list[Point]:
        """The cell of the shape congruent to each point, in order."""
        keys = map(self.lattice.coset_key, points)
        if self._cell_of_key is None:
            return list(keys)
        return list(map(self._cell_of_key.__getitem__, keys))


def minimal_period(lattice: Lattice, shape: Shape, dots: Iterable[Point]) -> Lattice:
    """The full translation-symmetry lattice of the pattern.

    The pattern is the doubly periodic 0/1 array obtained by stamping
    the dots into every lattice translate of the shape.  The returned
    lattice contains the input lattice, so its volume divides the input
    volume; it also divides the volume of any pair of symmetry vectors.
    """
    representative = Tiling(lattice, shape).representative
    dot_list = as_ints(dots, "dots", None, 2)
    dot_set = frozenset(dot_list)
    if not dot_set <= shape.points:
        raise ValueError(f"dots outside the shape: {sorted(dot_set - shape.points)}")
    # The shape is a transversal, so its cells enumerate every candidate
    # translation class exactly once.  Translating by t permutes cosets,
    # hence containment of the shifted dot set implies equality.
    symmetries = []
    for tx, ty in shape.points:
        if all(representative((x + tx, y + ty)) in dot_set for x, y in dot_list):
            symmetries.append((tx, ty))
    return Lattice(_hnf_rows(list(lattice.rows) + symmetries))
