"""Folded rows, the closed-form folding test, and the round trip between
positions and cells along a folded row."""

import itertools
import random

import pytest

from sidon2d import (
    Lattice,
    Shape,
    Tiling,
    defines_folding_gcd,
    folding_directions,
    fundamental_shape,
)
from sidon2d import folding
from sidon2d.folding import folded_cells, folded_positions
from sidon2d.numtheory import euler_phi

import folding_oracle
from folding_oracle import defines_folding, folded_row

WELCH7 = Tiling(Lattice(((6, 0), (0, 7))), Shape.rectangle(6, 7))
TROMINO = Tiling(Lattice(((1, 1), (-1, 2))), Shape(frozenset({(0, 0), (1, 0), (0, 1)})))


def square(m: int) -> Tiling:
    return Tiling(Lattice(((m, 0), (0, m))), Shape.rectangle(m, m))


# -- the walk (the reference) ---------------------------------------------------


def test_folded_row_on_coprime_rectangle_is_the_double_counter():
    row, complete = folded_row(WELCH7, (1, 1))
    assert complete
    assert row == [(t % 6, t % 7) for t in range(42)]


def test_folded_row_detects_early_cycles():
    row, complete = folded_row(square(2), (1, 1))
    assert not complete
    assert row == [(0, 0), (1, 1), (0, 0), (1, 1)]


def test_folded_row_is_the_reduced_multiple():
    for d in [(1, 1), (2, 3), (-1, 4)]:
        row, _ = folded_row(WELCH7, d)
        for t, cell in enumerate(row):
            assert cell == WELCH7.representative((t * d[0], t * d[1]))


def test_zero_direction_is_rejected():
    with pytest.raises(ValueError):
        folded_cells(WELCH7, (0, 0), range(42))
    with pytest.raises(ValueError):
        folded_positions(WELCH7, (0, 0), [(0, 0)])
    with pytest.raises(ValueError):
        defines_folding_gcd(WELCH7.lattice, 42, (0, 0))


@pytest.mark.parametrize("bad", [(1.9, 1), (True, 1), (1, False), (1, 2, 3), (1,), 5, "11", None])
def test_a_direction_is_exactly_two_integers(bad):
    with pytest.raises(ValueError, match="pair of integers"):
        folded_positions(WELCH7, bad, [(0, 0)])
    with pytest.raises(ValueError, match="pair of integers"):
        defines_folding_gcd(WELCH7.lattice, 42, bad)
    with pytest.raises(ValueError, match="pair of integers"):
        folded_cells(WELCH7, bad, range(42))
    # any two-int sequence
    row = folded_cells(WELCH7, (1, 1), range(42))
    assert folded_cells(WELCH7, [1, 1], range(42)) == row
    assert folded_positions(WELCH7, [1, 1], row) == folded_positions(WELCH7, (1, 1), row)


# -- the closed-form test --------------------------------------------------------


def test_gcd_test_frozen_examples():
    lat = WELCH7.lattice
    assert defines_folding_gcd(lat, 42, (1, 1))
    assert defines_folding_gcd(lat, 42, (1, 2))
    assert not defines_folding_gcd(lat, 42, (2, 2))  # common factor 2 vs size
    assert not defines_folding_gcd(lat, 42, (0, 7))  # collapses onto a column
    assert not defines_folding_gcd(lat, 42, (1, 0))  # cycles the bottom row


def test_gcd_test_requires_the_matching_size():
    with pytest.raises(ValueError):
        defines_folding_gcd(WELCH7.lattice, 41, (1, 1))
    with pytest.raises(ValueError):
        defines_folding_gcd(WELCH7.lattice, 0, (1, 1))


def test_gcd_test_agrees_with_the_walk():
    lattices = [
        Lattice(((6, 0), (0, 7))),
        Lattice(((1, 1), (-1, 2))),
        Lattice(((2, 1), (1, 2))),
        Lattice(((4, 2), (-3, 5))),
        Lattice(((5, 0), (0, 5))),
    ]
    dirs = [d for d in itertools.product(range(-5, 6), repeat=2) if d != (0, 0)]
    for lat in lattices:
        tiling = Tiling(lat, Shape.rectangle(*[lat.hnf[0][0], lat.hnf[1][1]]))
        for d in dirs:
            assert defines_folding_gcd(lat, lat.volume, d) == defines_folding(tiling, d)


def test_gcd_test_sees_through_the_basis_choice():
    # same lattice, different bases: verdicts must match
    a = Lattice(((6, 0), (0, 7)))
    b = Lattice(((6, 7), (6, 14)))  # row ops on the same span
    assert a.hnf == b.hnf
    for d in [(1, 1), (2, 3), (2, 2), (5, 6), (-1, 3)]:
        assert defines_folding_gcd(a, 42, d) == defines_folding_gcd(b, 42, d)


def test_opposite_directions_agree():
    for d in [(1, 1), (1, 2), (2, 3), (3, 4)]:
        assert defines_folding(WELCH7, d) == defines_folding(WELCH7, (-d[0], -d[1]))


# -- direction enumeration --------------------------------------------------------


def test_direction_count_is_a_totient():
    dirs = folding_directions(WELCH7)
    assert len(dirs) == euler_phi(42) == 12
    assert dirs == [
        (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
        (5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (5, 6),
    ]
    assert all(defines_folding(WELCH7, d) for d in dirs)


def test_directions_are_coset_distinct():
    dirs = folding_directions(TROMINO)
    assert dirs == [(0, 1), (0, 2)]
    keys = {TROMINO.lattice.coset_key(d) for d in dirs}
    assert len(keys) == len(dirs)


def walk_directions(tiling: Tiling) -> list:
    """Reference enumeration: scan [0, |S|)^2 in order and walk the first
    point of each new coset."""
    n = tiling.size
    if n == 1:
        return [(0, 1)]
    out = []
    seen = set()
    for d in itertools.product(range(n), repeat=2):
        if d == (0, 0):
            continue
        key = tiling.lattice.coset_key(d)
        if key in seen:
            continue
        seen.add(key)
        if defines_folding(tiling, d):
            out.append(d)
    return out


def shifted_transversal(lattice: Lattice, rng: random.Random) -> Shape:
    """The fundamental cells, each but the origin moved by a random lattice vector."""
    (v11, v12), (v21, v22) = lattice.rows
    cells = {(0, 0)}
    for x, y in sorted(fundamental_shape(lattice).points - {(0, 0)}):
        k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
        cells.add((x + k1 * v11 + k2 * v21, y + k1 * v12 + k2 * v22))
    return Shape(frozenset(cells))


def test_directions_equal_the_walk_scan_on_every_small_lattice():
    rng = random.Random(2011)
    lattices = 0
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        if a * d - b * c == 0:
            continue
        lattice = Lattice(((a, b), (c, d)))
        lattices += 1
        for shape in (fundamental_shape(lattice), shifted_transversal(lattice, rng)):
            tiling = Tiling(lattice, shape)
            directions = folding_directions(tiling)
            assert directions == walk_directions(tiling), (lattice.rows, shape)
            n = tiling.size
            for d in directions:
                row = folded_row(tiling, d)[0]
                assert folded_cells(tiling, d, range(n)) == row, (lattice.rows, shape, d)
                assert folded_positions(tiling, d, row) == list(range(n)), (lattice.rows, shape, d)
    assert lattices == 6016
    assert folding_directions(TROMINO) == walk_directions(TROMINO)


def test_a_wrong_direction_count_is_an_error(monkeypatch):
    monkeypatch.setattr(folding, "euler_phi", lambda n: euler_phi(n) + 1)
    with pytest.raises(RuntimeError, match="folding directions"):
        folding_directions(WELCH7)
    assert folding_directions(square(2)) == []  # an empty result is not counted


def test_a_complete_row_that_does_not_re_enter_is_an_error(monkeypatch):
    real = folding_oracle.folded_row

    def reversed_row(tiling, direction):
        row, complete = real(tiling, direction)
        return row[::-1], complete

    monkeypatch.setattr(folding_oracle, "folded_row", reversed_row)
    with pytest.raises(RuntimeError, match="re-enter"):
        defines_folding(WELCH7, (1, 1))
    assert not defines_folding(square(2), (1, 1))  # only complete rows are checked


def test_squares_have_no_folding_directions():
    for m in range(2, 7):
        assert folding_directions(square(m)) == []


def test_single_cell_always_folds():
    t = Tiling(Lattice(((1, 0), (0, 1))), Shape.rectangle(1, 1))
    assert folding_directions(t) == [(0, 1)]
    assert defines_folding(t, (3, -5))


# -- positions to cells and back -------------------------------------------------


def test_fold_then_unfold_is_identity():
    row = folded_cells(TROMINO, (0, 1), range(3))
    assert row == [(0, 0), (0, 1), (1, 0)]
    assert folded_positions(TROMINO, (0, 1), row) == [0, 1, 2]
    # reading along the other folding direction permutes the positions
    assert folded_positions(TROMINO, (0, 2), row) == [0, 2, 1]


def test_unfold_then_fold_is_identity():
    cells = sorted(TROMINO.shape.points)
    positions = folded_positions(TROMINO, (0, 2), cells)
    assert folded_cells(TROMINO, (0, 2), positions) == cells


def test_fold_round_trip_on_the_big_rectangle():
    for d in [(1, 1), (5, 6)]:
        assert folded_positions(WELCH7, d, folded_cells(WELCH7, d, range(42))) == list(range(42))


def test_fold_validates_inputs():
    with pytest.raises(ValueError, match="does not define a folding"):
        folded_cells(square(2), (1, 1), range(4))
    with pytest.raises(ValueError, match="does not define a folding"):
        folded_positions(square(2), (1, 1), [(0, 0)])
