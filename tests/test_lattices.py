"""Lattices, shapes, tilings, and minimal periods."""

import json
import random

import pytest

from sidon2d import (
    Lattice,
    PeriodicDdc,
    Shape,
    Tiling,
    cli,
    fundamental_shape,
    minimal_period,
)

TROMINO = Shape(frozenset({(0, 0), (1, 0), (0, 1)}))
WELCH7 = Lattice(((6, 0), (0, 7)))
# dots (i, 3^i mod 7), dropped in by hand so this file stays independent
WELCH7_DOTS = [(0, 1), (1, 3), (2, 2), (3, 6), (4, 4), (5, 5)]


def in_span(point, rows) -> bool:
    """Membership by Cramer's rule, independent of the triangular basis."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    x, y = point
    return (x * d - y * c) % det == 0 and (a * y - b * x) % det == 0


# -- Lattice ------------------------------------------------------------------


def test_volume_examples():
    assert WELCH7.volume == 42
    assert Lattice(((1, 0), (0, 1))).volume == 1
    assert Lattice(((1, 1), (-1, 2))).volume == 3


def test_rejects_degenerate_bases():
    with pytest.raises(ValueError):
        Lattice(((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        Lattice(((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        Lattice(((1, 2, 3), (0, 1)))  # type: ignore[arg-type]


def test_triangular_basis_frozen_example():
    assert Lattice(((1, 1), (-1, 2))).hnf == ((1, 1), (0, 3))
    assert WELCH7.hnf == ((6, 0), (0, 7))


def test_triangular_basis_random_sweep():
    rng = random.Random(1)
    cases = 0
    while cases < 200:
        rows = ((rng.randint(-9, 9), rng.randint(-9, 9)),
                (rng.randint(-9, 9), rng.randint(-9, 9)))
        (a, b), (c, d) = rows
        if a * d - b * c == 0:
            continue
        cases += 1
        lat = Lattice(rows)
        (h11, h12), (h21, h22) = lat.hnf
        assert h21 == 0 and h11 > 0 and h22 > 0 and 0 <= h12 < h22
        assert h11 * h22 == lat.volume
        # both bases generate the same lattice
        assert all(in_span(r, lat.hnf) for r in rows)
        assert all(in_span(h, rows) for h in lat.hnf)


def test_coset_key_agrees_with_independent_membership():
    rng = random.Random(2)
    for rows in [((6, 0), (0, 7)), ((1, 1), (-1, 2)), ((3, -2), (5, 4))]:
        lat = Lattice(rows)
        for _ in range(300):
            p = (rng.randint(-40, 40), rng.randint(-40, 40))
            assert (lat.coset_key(p) == (0, 0)) == in_span(p, rows)


def test_coset_key_counts_cosets():
    lat = Lattice(((3, -2), (5, 4)))
    keys = {lat.coset_key((x, y)) for x in range(-30, 30) for y in range(-30, 30)}
    assert len(keys) == lat.volume == 22


def test_coset_key_frozen_example():
    assert WELCH7.coset_key((13, -1)) == (1, 6)
    assert WELCH7.coset_key((6, 7)) == (0, 0)


def test_lattice_json_round_trip(capsys):
    cli._emit_pattern(PeriodicDdc(WELCH7, Shape.rectangle(6, 7), []))
    rows = json.loads(capsys.readouterr().out)["lattice"]
    assert rows == [[6, 0], [0, 7]]
    assert Lattice(rows) == WELCH7


# -- Shape --------------------------------------------------------------------


def test_shape_must_contain_origin():
    with pytest.raises(ValueError):
        Shape(frozenset({(1, 0), (1, 1)}))


def test_rectangle_and_bounds():
    s = Shape.rectangle(6, 7)
    assert s.size == 42
    assert s.bounds() == (0, 0, 5, 6)
    assert TROMINO.bounds() == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        Shape.rectangle(0, 3)


def test_shape_json_round_trip():
    assert cli._shape_json(TROMINO) == "[[0, 0], [0, 1], [1, 0]]"
    assert Shape(json.loads(cli._shape_json(TROMINO))) == TROMINO


# -- tilings ------------------------------------------------------------------


def test_fundamental_shape_is_the_triangular_rectangle():
    assert fundamental_shape(Lattice(((1, 1), (-1, 2)))) == Shape.rectangle(1, 3)
    assert fundamental_shape(WELCH7) == Shape.rectangle(6, 7)


def test_tromino_tiles_with_one_lattice_but_not_another():
    assert Tiling(Lattice(((1, 1), (-1, 2))), TROMINO).size == 3
    with pytest.raises(ValueError):
        Tiling(Lattice(((2, 1), (1, 2))), TROMINO)  # right volume, two cells share a coset


def test_tiling_requires_matching_size():
    with pytest.raises(ValueError):
        Tiling(WELCH7, TROMINO)
    with pytest.raises(ValueError):
        Tiling(Lattice(((2, 1), (1, 2))), TROMINO)


def test_a_transposed_box_of_the_right_size_does_not_tile():
    # 3 x 2 has the volume of 2 x 3, but cells (0, 0) and (2, 0) share a coset
    with pytest.raises(ValueError, match="does not tile"):
        Tiling(Lattice(((2, 0), (0, 3))), Shape.rectangle(3, 2))
    with pytest.raises(ValueError, match="does not tile"):
        Tiling(Lattice(((2, 1), (0, 3))), Shape.rectangle(3, 2))


def test_a_shifted_box_reduces_into_its_own_cells():
    # the 2 x 3 box moved one column left: a translate of the fundamental
    # rectangle by its corner (-1, 0), so its cells are computed from it
    shape = Shape(frozenset((x, y) for x in (-1, 0) for y in range(3)))
    tiling = Tiling(Lattice(((2, 0), (0, 3))), shape)
    assert tiling.representative((1, 4)) == (-1, 1)
    assert list(map(tiling.representative, [(1, 4), (2, 2), (0, 0)])) == [(-1, 1), (0, 2), (0, 0)]


def test_rectangle_cells_and_json_order():
    box = Shape.rectangle(3, 2)
    assert box.points == {(x, y) for x in range(3) for y in range(2)}
    assert cli._shape_json(box) == json.dumps(sorted(box.points))
    shifted = Shape(frozenset((x, y) for x in (-1, 0) for y in (-2, -1, 0)))
    assert cli._shape_json(shifted) == json.dumps(sorted(shifted.points))
    assert cli._shape_json(TROMINO) == "[[0, 0], [0, 1], [1, 0]]"


def test_fundamental_shape_always_tiles():
    rng = random.Random(3)
    cases = 0
    while cases < 100:
        rows = ((rng.randint(-8, 8), rng.randint(-8, 8)),
                (rng.randint(-8, 8), rng.randint(-8, 8)))
        (a, b), (c, d) = rows
        if a * d - b * c == 0:
            continue
        cases += 1
        lat = Lattice(rows)
        assert Tiling(lat, fundamental_shape(lat)).size == lat.volume


def test_reduce_frozen_example():
    tiling = Tiling(WELCH7, fundamental_shape(WELCH7))
    assert tiling.representative((7, 8)) == (1, 1)
    assert WELCH7.coset_key((6, 7)) == (0, 0)  # the center of the copy (7, 8) falls in
    assert WELCH7.coset_key((7, 8)) == (1, 1)


def test_reduce_invariants():
    tiling = Tiling(Lattice(((1, 1), (-1, 2))), TROMINO)
    rng = random.Random(4)
    for _ in range(300):
        p = (rng.randint(-20, 20), rng.randint(-20, 20))
        offset = tiling.representative(p)
        center = (p[0] - offset[0], p[1] - offset[1])
        assert offset in tiling.shape.points
        assert tiling.lattice.coset_key(center) == (0, 0)
    for cell in TROMINO.points:
        assert tiling.representative(cell) == cell


def test_reduce_is_translation_invariant():
    tiling = Tiling(Lattice(((1, 1), (-1, 2))), TROMINO)
    for p in [(5, -3), (0, 0), (-7, 11)]:
        base = tiling.representative(p)
        for l in [(1, 1), (-1, 2), (0, 3), (-3, 3)]:
            assert tiling.representative((p[0] + l[0], p[1] + l[1])) == base


# -- minimal periods ----------------------------------------------------------


def test_minimal_period_of_an_aperiodic_pattern_is_the_lattice():
    period = minimal_period(WELCH7, fundamental_shape(WELCH7), WELCH7_DOTS)
    assert period.volume == 42


def test_minimal_period_of_uniform_patterns_is_one():
    lat = Lattice(((2, 0), (0, 2)))
    shape = Shape.rectangle(2, 2)
    assert minimal_period(lat, shape, []).volume == 1
    assert minimal_period(lat, shape, shape.points).volume == 1


def test_minimal_period_of_alternating_stripe():
    lat = Lattice(((4, 0), (0, 1)))
    period = minimal_period(lat, Shape.rectangle(4, 1), [(0, 0), (2, 0)])
    assert period.volume == 2
    assert all(period.coset_key(row) == (0, 0) for row in lat.rows)
    assert period.coset_key((2, 0)) == (0, 0)


def test_minimal_period_rejects_stray_dots():
    with pytest.raises(ValueError):
        minimal_period(WELCH7, Shape.rectangle(6, 7), [(6, 0)])


def test_minimal_period_volume_divides_lattice_volume():
    rng = random.Random(5)
    for _ in range(50):
        w, h = rng.randint(1, 5), rng.randint(1, 5)
        lat = Lattice(((w, 0), (0, h)))
        shape = Shape.rectangle(w, h)
        cells = sorted(shape.points)
        dots = [c for c in cells if rng.random() < 0.4]
        vol = minimal_period(lat, shape, dots).volume
        assert lat.volume % vol == 0
