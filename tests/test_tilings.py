"""Closed-form tilings against independent references: the reduced
cells, the periodic-DDC check and the folded row."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidon2d import Lattice, PeriodicDdc, Shape, fundamental_shape, is_doubly_periodic_ddc
from sidon2d.folding import folded_cells, folding_directions
from sidon2d.groups import Collision, first_difference_collision
from sidon2d.lattices import Tiling

from folding_oracle import folded_row


def in_span(point, rows) -> bool:
    """Membership by Cramer's rule, independent of the triangular basis."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    x, y = point
    return (x * d - y * c) % det == 0 and (a * y - b * x) % det == 0


@st.composite
def tilings(draw):
    """An HNF lattice of volume at most 40 with its fundamental rectangle,
    a sheared copy (row y moved by y times (a, b)) or a shifted
    transversal (each cell but the origin moved by a lattice vector)."""
    a = draw(st.integers(1, 40))
    d = draw(st.integers(1, 40 // a))
    b = draw(st.integers(0, d - 1))
    lattice = Lattice(((a, b), (0, d)))
    cells = sorted(fundamental_shape(lattice).points)
    form = draw(st.sampled_from(["rectangle", "sheared", "shifted"]))
    if form == "sheared":
        cells = [(x + y * a, y + y * b) for x, y in cells]
    elif form == "shifted":
        shift = st.integers(-2, 2)
        cells = [(0, 0)] + [
            (x + k1 * a, y + k1 * b + k2 * d)
            for x, y in cells[1:]
            for k1, k2 in [(draw(shift), draw(shift))]
        ]
    return Tiling(lattice, Shape(frozenset(cells)))


points = st.lists(st.tuples(st.integers(-90, 90), st.integers(-90, 90)), max_size=30)


@given(tilings(), points)
@example(Tiling(Lattice(((2, 0), (0, 3))), Shape(frozenset({(-1, 0), (-1, 1), (-1, 2), (0, 0), (0, 1), (0, 2)}))), [(1, 4)])
@settings(max_examples=200, deadline=None)
def test_cells_are_shape_cells_congruent_to_the_points(tiling, pts):
    cells = tiling.cells(pts)
    assert len(cells) == len(pts)
    for p, c in zip(pts, cells):
        assert c in tiling.shape.points
        assert in_span((p[0] - c[0], p[1] - c[1]), tiling.lattice.rows)
        assert tiling.representative(p) == c


def ordered_scan(pattern: PeriodicDdc) -> Collision | None:
    """The first repeated difference coset, pairs in sorted order, found
    without the package's reduction: each difference is matched to the
    shape cell it differs from by a lattice vector."""
    rows = pattern.lattice.rows
    seen: dict = {}
    dots = sorted(pattern.dots)
    for u in dots:
        for v in dots:
            if u == v:
                continue
            diff = (u[0] - v[0], u[1] - v[1])
            (cell,) = [c for c in pattern.shape.points if in_span((diff[0] - c[0], diff[1] - c[1]), rows)]
            if cell in seen:
                return Collision(cell, seen[cell], (u, v))
            seen[cell] = (u, v)
    return None


@st.composite
def patterns(draw):
    """Dots on a tiling: up to three (mostly a DDC) or a dense random
    subset (mostly not)."""
    tiling = draw(tilings())
    cells = sorted(tiling.shape.points)
    count = draw(st.integers(0, min(3, len(cells)) if draw(st.booleans()) else len(cells)))
    dots = draw(st.permutations(cells))[:count]
    return PeriodicDdc(tiling.lattice, tiling.shape, frozenset(dots))


@given(patterns())
@example(PeriodicDdc(Lattice(((6, 0), (0, 7))), Shape.rectangle(6, 7),
                     frozenset({(0, 1), (1, 3), (2, 2), (3, 6), (4, 4), (5, 5)})))
@example(PeriodicDdc(Lattice(((1, 0), (0, 1))), Shape.rectangle(1, 1), frozenset()))
@settings(max_examples=200, deadline=None)
def test_periodic_ddc_check_matches_the_ordered_scan(pattern):
    assert is_doubly_periodic_ddc(pattern) == ordered_scan(pattern)


def test_a_dense_pattern_stops_within_two_rows_of_differences():
    # every cell a dot: the second row of differences already repeats, so
    # the check reduces 2n of the n^2 differences before its ordered scan
    shape = Shape.rectangle(300, 300)
    pattern = PeriodicDdc(Lattice(((300, 0), (0, 300))), shape, shape.points)
    tiling = pattern.tiling
    reduced = []

    def counted_cells(pts):
        cells = Tiling.cells(tiling, pts)
        reduced.append(len(cells))
        return cells

    tiling.cells = counted_cells
    collision = is_doubly_periodic_ddc(pattern)
    dots = sorted(shape.points)
    assert sum(reduced) == 2 * len(dots)
    assert collision == first_difference_collision(
        dots, lambda a, b: tiling.representative((a[0] - b[0], a[1] - b[1]))
    )
    assert collision.key == (0, 1)


@given(tilings())
@settings(max_examples=150, deadline=None)
def test_folded_cells_are_the_walked_row(tiling):
    n = tiling.size
    for d in folding_directions(tiling)[:6]:
        row = folded_cells(tiling, d, range(n))
        assert row == folded_row(tiling, d)[0]
        assert folded_cells(tiling, d, [n - 1, 0, n + 2]) == [row[-1], row[0], row[2 % n]]
