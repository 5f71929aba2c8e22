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
from itertools import chain, product, repeat
from typing import Any, Iterable

from .numtheory import as_ints, at_most, xgcd

Point = tuple[int, int]

# The field order limit, so Bose q = 1024 fits; it bounds every shape.  Slowest at
# the cap: a pattern whose shape is not a box, `directions` 6.8 s cold, 440 MB, and
# `verify --kind periodic-ddc` 5.0-5.3 s, 512 MB.  On a box, `fold` of Bose q = 1024
# onto 1023,0;0,1025 takes 0.55 s, 83 MB (2-vCPU Xeon, Python 3.11).
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


def _index_map(hnf: tuple[Point, Point]) -> tuple[tuple[int, ...], list[Point]]:
    """Moduli and columns of phi, the map onto Z_m1 x Z_m2 whose kernel is Λ.

    The Smith normal form P H Q = diag(m1, m2) of the triangular basis H,
    m1 | m2, gives phi(p) = p Q reduced modulo m1 and m2: p Q is in the
    row span of diag(m1, m2) exactly when p is in that of H.  Q is kept by
    stacking it under H, where the column operations reach it too.  As
    m1 = gcd(a, b, d), the quotient is cyclic when that is 1, and the
    factor Z_1 is dropped.
    """
    m = [list(hnf[0]), list(hnf[1]), [1, 0], [0, 1]]
    while True:
        (p, q), (r, s) = m[:2]
        if q:  # columns: row 0 becomes (gcd(p, q), 0)
            g, u, v = xgcd(p, q)
            m = [[u * x + v * y, (p * y - q * x) // g] for x, y in m]
        elif r:  # rows: column 0 becomes (gcd(p, r), 0)
            g, u, v = xgcd(p, r)
            m[:2] = [[g, u * q + v * s], [0, (p * s - r * q) // g]]
        elif s % p:  # diagonal, but p does not divide s: add row 1 to row 0
            m[0] = [p, s]
        else:
            columns = list(zip(*m[2:]))
            return ((s,), columns[1:]) if p == 1 else ((p, s), columns)


@dataclass(frozen=True)
class Lattice:
    """Sublattice of Z^2 spanned by the two rows of an integer matrix.

    `moduli` names the quotient Z^2 / Λ as Z_m1 x Z_m2, or Z_volume when
    it is cyclic, and `phi` maps a point to its coset in that group.
    """

    rows: tuple[Point, Point]
    hnf: tuple[Point, Point] = field(init=False, repr=False, compare=False)
    volume: int = field(init=False, repr=False, compare=False)
    moduli: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _columns: list[Point] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = as_ints(self.rows, "lattice", 2, 2)
        (v11, v12), (v21, v22) = rows
        if v11 * v22 - v12 * v21 == 0:
            raise ValueError(f"basis rows {rows} are linearly dependent")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "hnf", _hnf_rows(rows))
        object.__setattr__(self, "volume", abs(v11 * v22 - v12 * v21))
        moduli, columns = _index_map(self.hnf)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "_columns", columns)

    def coset_key(self, point: Point) -> Point:
        """Canonical label of the coset of point in Z^2 modulo the lattice."""
        (h11, h12), (_, h22) = self.hnf
        x, y = point
        q, r = divmod(x, h11)
        return r, (y - q * h12) % h22

    def phi(self, point: Point) -> tuple[int, ...]:
        """The coset of point as an element of the group named by `moduli`:
        a homomorphism onto it whose kernel is the lattice."""
        x, y = point
        return tuple((x * cx + y * cy) % m for (cx, cy), m in zip(self._columns, self.moduli))

    def __contains__(self, point: Point) -> bool:
        return self.coset_key(point) == (0, 0)

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def _box_bounds(cells: Any) -> tuple[int, int, int, int] | None:
    """(x0, y0, x1, y1) when cells is a list of exact int pairs naming
    every cell of [x0, x1] x [y0, y1] once, x-major (as Shape.to_json
    writes a box), else None.  The test is a few whole-list operations, so
    a box read from JSON costs no Python step per cell; any other input is
    left to as_ints, which reads it the same way or names what is wrong.
    """
    if type(cells) is not list:
        return None
    try:
        flat = list(chain.from_iterable(cells)) if {*map(len, cells)} == {2} else []
    except TypeError:
        return None
    if {*map(type, flat)} != {int}:
        return None
    xs, ys = flat[::2], flat[1::2]
    x0, y0, x1, y1 = xs[0], ys[0], xs[-1], ys[-1]
    width, height = x1 - x0 + 1, y1 - y0 + 1
    columns = chain.from_iterable(repeat(x, height) for x in range(x0, x1 + 1))
    if width < 1 or height < 1 or width * height != len(cells):
        return None
    if ys != list(range(y0, y1 + 1)) * width or xs != list(columns):
        return None
    return x0, y0, x1, y1


class Shape:
    """Finite set of grid cells; the origin cell is the center.

    A full box keeps only its bounds (x0, y0, x1, y1), whether it comes
    from `rectangle` or from its cells listed x-major, so its size, bounds,
    JSON and which cells lie in it need no set of cells; `points` is built
    on first use.  Equality and hashing are those of the cell set, and
    the repr lists the cells sorted.
    Every shape has at most MAX_RECTANGLE_CELLS cells.
    """

    __slots__ = ("_box", "_points")

    def __init__(self, points: Iterable[Point]):
        cap = MAX_RECTANGLE_CELLS
        points = at_most(cap, points, f"shape is over the {cap}-cell cap")
        box = _box_bounds(points)
        self._set(box, None if box else frozenset(as_ints(points, "shape", None, 2)))

    def _set(self, box: tuple[int, int, int, int] | None, points: frozenset[Point] | None) -> None:
        self._box, self._points = box, points
        if (0, 0) not in self:
            raise ValueError("a shape must contain the origin")

    @classmethod
    def rectangle(cls, width: int, height: int) -> "Shape":
        width, height = as_ints((width, height), "rectangle sides", 2)
        if width < 1 or height < 1:
            raise ValueError(f"rectangle sides must be positive, got {width}x{height}")
        if width * height > MAX_RECTANGLE_CELLS:
            raise ValueError(f"rectangle {width}x{height} is over the {MAX_RECTANGLE_CELLS}-cell cap")
        shape = cls.__new__(cls)
        shape._set((0, 0, width - 1, height - 1), None)
        return shape

    @property
    def points(self) -> frozenset[Point]:
        if self._points is None:
            x0, y0, x1, y1 = self._box
            self._points = frozenset(product(range(x0, x1 + 1), range(y0, y1 + 1)))
        return self._points

    @property
    def size(self) -> int:
        if self._box is None:
            return len(self._points)
        x0, y0, x1, y1 = self._box
        return (x1 - x0 + 1) * (y1 - y0 + 1)

    def bounds(self) -> tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y) of the cells."""
        if self._box is not None:
            return self._box
        xs = [p[0] for p in self._points]
        ys = [p[1] for p in self._points]
        return min(xs), min(ys), max(xs), max(ys)

    def __contains__(self, cell: Point) -> bool:
        """Whether the int pair is a cell of the shape."""
        if self._box is None:
            return cell in self._points
        x0, y0, x1, y1 = self._box
        return x0 <= cell[0] <= x1 and y0 <= cell[1] <= y1

    def to_json(self) -> list[list[int]]:
        """The cells as [x, y] lists in sorted order; a full box is sorted
        already when listed x-major."""
        min_x, min_y, max_x, max_y = self.bounds()
        if self.size == (max_x - min_x + 1) * (max_y - min_y + 1):
            return [[x, y] for x in range(min_x, max_x + 1) for y in range(min_y, max_y + 1)]
        return [list(p) for p in sorted(self._points)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Shape):
            return NotImplemented
        if self._box is not None and other._box is not None:
            return self._box == other._box
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"Shape({sorted(self.points)})"


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
    outside = [d for d in dot_set if d not in shape]
    if outside:
        raise ValueError(f"dots outside the shape: {sorted(outside)}")
    # The shape is a transversal, so its cells enumerate every candidate
    # translation class exactly once.  Translating by t permutes cosets,
    # hence containment of the shifted dot set implies equality.
    symmetries = []
    for tx, ty in shape.points:
        if all(representative((x + tx, y + ty)) in dot_set for x, y in dot_list):
            symmetries.append((tx, ty))
    return Lattice(_hnf_rows(list(lattice.rows) + symmetries))
