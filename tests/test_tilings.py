"""Closed-form tilings against independent references: the reduced
cells, the index map phi, the periodic-DDC check, the folded row and
the positions unfolding reads off it, box shapes against their cell
sets, and the rendered rows against the cell-by-cell render."""

import json
import math
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidon2d import (
    Lattice,
    PeriodicDdc,
    Shape,
    cli,
    defines_folding_gcd,
    fundamental_shape,
    is_doubly_periodic_ddc,
    render_ascii,
    unfold_to_sidon,
)
from sidon2d import groups
from sidon2d.folding import folded_cells, folding_directions
from sidon2d.groups import Collision
from sidon2d.lattices import Tiling

from collision_oracle import first_difference_collision
from folding_oracle import folded_row
from render_oracle import render_cells


def in_span(point, rows) -> bool:
    """Membership by Cramer's rule, independent of the triangular basis."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    x, y = point
    return (x * d - y * c) % det == 0 and (a * y - b * x) % det == 0


@st.composite
def tilings(draw):
    """An HNF lattice of volume at most 40 with its fundamental rectangle,
    a translate of it that keeps the origin, a sheared copy (row y moved
    by y times (a, b)) or a shifted transversal (each cell but the origin
    moved by a lattice vector)."""
    a = draw(st.integers(1, 40))
    d = draw(st.integers(1, 40 // a))
    b = draw(st.integers(0, d - 1))
    lattice = Lattice(((a, b), (0, d)))
    cells = sorted(fundamental_shape(lattice).points)
    form = draw(st.sampled_from(["rectangle", "translated", "sheared", "shifted"]))
    if form == "translated":
        x0, y0 = -draw(st.integers(0, a - 1)), -draw(st.integers(0, d - 1))
        return Tiling(lattice, Shape._of_box((x0, y0, x0 + a - 1, y0 + d - 1)))
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
    cells = list(map(tiling.representative, pts))
    assert len(cells) == len(pts)
    for p, c in zip(pts, cells):
        assert c in tiling.shape.points
        assert in_span((p[0] - c[0], p[1] - c[1]), tiling.lattice.rows)
        assert tiling.representative(c) == c
    # the row's batch path: the cells of t * d for a folding direction d
    ts = [x for x, _ in pts]
    for d1, d2 in folding_directions(tiling)[:1]:
        assert folded_cells(tiling, (d1, d2), ts) == [tiling.representative((t * d1, t * d2)) for t in ts]


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


def test_a_dense_pattern_stops_within_two_rows_of_differences(monkeypatch):
    # every cell a dot: the first row of sums marks all n elements of
    # Z_300 x Z_300 in the check's table, so the first sum of the second
    # row is already marked, and the decision reads n + 1 cells and marks
    # n of the n(n + 1)/2 sums; the pass over differences that names the
    # witness marks in a table of its own, under the same pigeonhole
    shape = Shape.rectangle(300, 300)
    pattern = PeriodicDdc(Lattice(((300, 0), (0, 300))), shape, shape.points)
    tables = []

    class CountingTable(bytearray):
        def __init__(self, size):
            self.read, self.marked = [], []
            tables.append(self)
            super().__init__(size)

        def __getitem__(self, key):
            self.read.append(key)
            return super().__getitem__(key)

        def __setitem__(self, key, value):
            self.marked.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(groups, "bytearray", CountingTable, raising=False)
    collision = is_doubly_periodic_ddc(pattern)
    monkeypatch.undo()
    dots = sorted(shape.points)
    decision, witness = tables
    assert (len(decision.read), len(decision.marked)) == (len(dots) + 1, len(dots))
    assert sorted(decision.marked) == list(range(len(dots)))
    assert len(witness.read) <= len(dots) + 1 and len(witness.marked) <= len(dots)
    assert collision == first_difference_collision(
        dots, lambda a, b: pattern.tiling.representative((a[0] - b[0], a[1] - b[1]))
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


@given(tilings())
@settings(max_examples=200, deadline=None)
def test_phi_vanishes_on_the_lattice_and_is_onto(tiling):
    lattice = tiling.lattice
    moduli = lattice.moduli
    assert math.prod(moduli) == lattice.volume
    assert all(m % moduli[0] == 0 for m in moduli)
    (a, b), (_, d) = lattice.hnf
    assert (len(moduli) == 1) == (math.gcd(a, b, d) == 1)
    for row in lattice.rows + lattice.hnf:
        assert lattice.phi(row) == (0,) * len(moduli)
    images = {lattice.phi(c) for c in tiling.shape.points}
    assert images == set(product(*(range(m) for m in moduli)))


@given(tilings(), points)
@settings(max_examples=200, deadline=None)
def test_phi_agrees_with_the_coset_key(tiling, pts):
    lattice = tiling.lattice
    pts = pts + sorted(tiling.shape.points)[:10]
    for p in pts:
        for q in pts:
            assert (lattice.phi(p) == lattice.phi(q)) == (lattice.coset_key(p) == lattice.coset_key(q))
        assert lattice.phi(p) == tuple((c + e) % m for c, e, m in zip(
            lattice.phi((p[0] - 1, p[1])), lattice.phi((1, 0)), lattice.moduli))


@given(tilings())
@settings(max_examples=200, deadline=None)
def test_phi_of_a_direction_is_a_unit_exactly_when_it_folds(tiling):
    lattice, n = tiling.lattice, tiling.size
    if not folding_directions(tiling):
        return
    assert len(lattice.moduli) == 1
    for d in product(range(-3, 4), repeat=2):
        if d != (0, 0):
            assert (math.gcd(lattice.phi(d)[0], n) == 1) == defines_folding_gcd(lattice, n, d)


@given(patterns(), st.integers(0, 5), st.integers(0, 10))
@example(PeriodicDdc(Lattice(((6, 0), (0, 7))), Shape.rectangle(6, 7),
                     frozenset({(0, 1), (1, 3), (2, 2), (3, 6), (4, 4), (5, 5)})), 0, 0)
@settings(max_examples=200, deadline=None)
def test_unfold_reads_the_dots_off_the_walked_row(pattern, which, anchor_index):
    directions = folding_directions(pattern.tiling)
    if not directions or not pattern.dots:
        return
    d = directions[which % len(directions)]
    anchor = sorted(pattern.dots)[anchor_index % len(pattern.dots)]
    row = folded_row(pattern.tiling, d)[0]
    shifted = {pattern.tiling.representative((x - anchor[0], y - anchor[1])) for x, y in pattern.dots}
    expected = [t for t, cell in enumerate(row) if cell in shifted]
    assert unfold_to_sidon(pattern, d, anchor).as_ints() == expected


def test_unfold_on_a_shifted_transversal():
    # the 2 x 3 box of ((2, 1), (0, 3)) with cell (1, 0) moved to (-1, -1)
    lattice = Lattice(((2, 1), (0, 3)))
    shape = Shape([(0, 0), (0, 1), (0, 2), (-1, -1), (1, 1), (1, 2)])
    pattern = PeriodicDdc(lattice, shape, frozenset({(0, 0), (-1, -1), (1, 2)}))
    for d in folding_directions(pattern.tiling):
        row = folded_row(pattern.tiling, d)[0]
        expected = [t for t, cell in enumerate(row) if cell in pattern.dots]
        assert unfold_to_sidon(pattern, d, (0, 0)).as_ints() == expected


boxes = st.tuples(st.integers(-4, 0), st.integers(-4, 0), st.integers(0, 4), st.integers(0, 4))


@given(boxes)
@example((0, 0, 0, 0))
@settings(max_examples=200, deadline=None)
def test_a_box_shape_is_its_cell_set(bounds):
    x0, y0, x1, y1 = bounds
    cells = [[x, y] for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]
    twin = Shape(frozenset(map(tuple, cells)))
    boxes = [Shape(cells)] + ([Shape.rectangle(x1 + 1, y1 + 1)] if x0 == y0 == 0 else [])
    assert all(box._points is None for box in boxes[1:])  # a rectangle is kept as its bounds
    for box in boxes:
        assert box == twin and twin == box
        assert hash(box) == hash(twin)
        assert (box.size, box.bounds(), cli._shape_json(box), repr(box)) == (
            twin.size, twin.bounds(), cli._shape_json(twin), repr(twin))
        for cell in product(range(x0 - 1, x1 + 2), range(y0 - 1, y1 + 2)):
            assert (cell in box) == (cell in twin) == (x0 <= cell[0] <= x1 and y0 <= cell[1] <= y1)
        for shape in (box, twin):
            assert cli._shape_json(shape) == json.dumps(sorted(shape.points))


@given(tilings())
@settings(max_examples=100, deadline=None)
def test_the_shape_text_of_any_shape_is_its_json(tiling):
    shape = tiling.shape
    assert cli._shape_json(shape) == json.dumps(sorted(shape.points))
    assert Shape(json.loads(cli._shape_json(shape))) == shape


def test_a_box_is_found_only_in_its_own_cell_list():
    box = [[x, y] for x in range(2) for y in range(3)]
    reordered = [[x, y] for y in range(3) for x in range(2)]
    for cells in (reordered, box[:3] + box[:3], box[:-1]):
        shape = Shape(cells)
        assert shape._points == {tuple(c) for c in cells}
    assert Shape(reordered) == Shape(box)


def test_a_tiling_tells_a_box_by_the_shape_not_its_bounds(monkeypatch):
    """The 2^20 - 1-cell box of 1023,0;0,1025 with its last cell (1022,
    1024) moved to (-1, 1024), a cell of the same coset, and the box moved
    by (-1, -1): a tiling reads the box case from the shape's own box, so
    neither asks for the bounds of its shape."""

    def refuse(self):
        raise AssertionError("the bounds were asked for")

    lattice = Lattice(((1023, 0), (0, 1025)))
    moved = Shape([c for c in product(range(1023), range(1025)) if c != (1022, 1024)] + [(-1, 1024)])
    monkeypatch.setattr(Shape, "bounds", refuse)
    tiling = Tiling(lattice, moved)
    assert tiling._cells is not None
    assert [tiling.representative(p) for p in [(1022, 1024), (-1, -1), (5, 7)]] == [(-1, 1024), (-1, 1024), (5, 7)]
    tiling = Tiling(lattice, Shape._of_box((-1, -1, 1021, 1023)))
    assert tiling._cells is None
    assert [tiling.representative(p) for p in [(1022, 1024), (-1, -1), (5, 7)]] == [(-1, -1), (-1, -1), (5, 7)]


@given(tilings(), st.data())
@settings(max_examples=300, deadline=None)
def test_render_is_the_cell_by_cell_render(tiling, data):
    dots = data.draw(st.lists(st.sampled_from(sorted(tiling.shape.points)), max_size=8, unique=True))
    pattern = PeriodicDdc(tiling.lattice, tiling.shape, dots)
    assert render_ascii(pattern) == render_cells(pattern)
