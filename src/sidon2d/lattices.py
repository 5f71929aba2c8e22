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
from collections.abc import Iterable
from itertools import product

from .numtheory import Record, as_ints, at_most, xgcd

Point = tuple[int, int]

# The field order limit, so Bose q = 1024 fits; it bounds every shape.  Slowest at
# the cap: a pattern whose shape is not a box, 301 MB cold for `directions` (5.0-5.2 s),
# `verify --kind periodic-ddc` (3.3-3.9 s) and `unfold` (3.6-3.9 s).  On a box, `fold` of
# Bose q = 1024 onto 1023,0;0,1025 takes 0.18-0.24 s, 14 MB (2-vCPU Xeon, Python 3.11).
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


class Lattice(Record):
    """Sublattice of Z^2 spanned by the two rows of an integer matrix.

    `moduli` names the quotient Z^2 / Λ as Z_m1 x Z_m2, or Z_volume when
    it is cyclic, and `phi` maps a point to its coset in that group.
    """

    __slots__ = ("rows", "hnf", "volume", "moduli", "_columns")
    _fields = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        rows = as_ints(rows, "lattice", 2, 2)
        (v11, v12), (v21, v22) = rows
        if v11 * v22 - v12 * v21 == 0:
            raise ValueError(f"basis rows {rows} are linearly dependent")
        self.rows, self.hnf, self.volume = rows, _hnf_rows(rows), abs(v11 * v22 - v12 * v21)
        self.moduli, self._columns = _index_map(self.hnf)

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


class Shape:
    """Finite set of grid cells; the origin cell is the center.

    A box made by `rectangle` keeps only its bounds (x0, y0, x1, y1), so
    its size, bounds, text and which cells lie in it need no set of cells;
    `points` is built on first use.  Any other shape, a list of a box's
    cells too, keeps its cells as a frozenset.  Equality and hashing are
    those of the cell set, and the repr lists the cells sorted.
    Every shape has at most MAX_RECTANGLE_CELLS cells.
    """

    __slots__ = ("_box", "_points")

    def __init__(self, points: Iterable[Point]):
        cap = MAX_RECTANGLE_CELLS
        points = at_most(cap, points, f"shape is over the {cap}-cell cap")
        self._set(None, frozenset(as_ints(points, "shape", None, 2)))

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
        return cls._of_box((0, 0, width - 1, height - 1))

    @classmethod
    def _of_box(cls, box: tuple[int, int, int, int]) -> "Shape":
        """The full box (x0, y0, x1, y1) of ints, x0 <= x1 and y0 <= y1,
        with at most MAX_RECTANGLE_CELLS cells: checked by the caller."""
        shape = cls.__new__(cls)
        shape._set(box, None)
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
    point fell in) is the difference.  With the triangular basis
    ((a, b), (0, d)), a coset key is a cell of [0, a) x [0, d).  On a box
    shape that is that rectangle moved to a corner (x0, y0), the cell of p
    is (x0, y0) + coset_key(p - (x0, y0)).  Any other shape, a box's cell
    list too, keeps a list of its cells, the one of key (x, y) in slot
    x * d + y, and reads it at coset_key(p): its corner is (0, 0).  At the
    cell cap the list is 8 MB; a key -> cell dict cost 136 MB more.
    """

    def __init__(self, lattice: Lattice, shape: Shape):
        (a, _), (_, d) = lattice.hnf
        box, self._cells = shape._box, None
        # a transversal: as many cells as cosets, checked before any list is
        # made, and one in each; the size alone would pass a transposed d x a box
        tiles = shape.size == lattice.volume
        if tiles and box is not None and (box[2] - box[0], box[3] - box[1]) == (a - 1, d - 1):
            self._corner = box[:2]
        elif tiles:
            self._corner, cells = (0, 0), [None] * shape.size
            key = lattice.coset_key
            for p in shape.points:
                x, y = key(p)
                cells[x * d + y] = p
            # by pigeonhole a coset met twice leaves another slot empty
            tiles, self._cells = None not in cells, cells
        if not tiles:
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
        x0, y0 = self._corner
        x, y = self.lattice.coset_key((point[0] - x0, point[1] - y0))
        if self._cells is None:
            return x + x0, y + y0
        return self._cells[x * self.lattice.hnf[1][1] + y]


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
