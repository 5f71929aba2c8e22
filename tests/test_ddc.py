"""Distinct difference configurations, periodic patterns, and transport
between patterns and Sidon sequences."""

import itertools
import json
import random

import pytest

from sidon2d import (
    GroupSpec,
    Lattice,
    PeriodicDdc,
    Shape,
    SidonSequence,
    cli,
    construct_bose,
    construct_golomb,
    construct_power_pairs,
    construct_ruzsa,
    construct_welch,
    fold_sidon_to_ddc,
    folding_directions,
    is_ddc,
    is_doubly_periodic_ddc,
    lower_left_dot,
    max_ddc_dots,
    render_ascii,
    unfold_to_sidon,
    verify_sidon,
)
from sidon2d.ddc import RENDER_CELL_CAP
from sidon2d.fields import make_field
from sidon2d.lattices import Tiling
from sidon2d.numtheory import prime_power
from window_oracle import window_ddc_violation

WELCH7_DOTS = frozenset({(0, 1), (1, 3), (2, 2), (3, 6), (4, 4), (5, 5)})


def checkerboard() -> PeriodicDdc:
    return PeriodicDdc(
        Lattice(((2, 0), (0, 2))), Shape.rectangle(2, 2), frozenset({(0, 0), (1, 1)})
    )


# -- plain DDC check -----------------------------------------------------------


def test_is_ddc_accepts_and_rejects():
    assert is_ddc(WELCH7_DOTS) is None
    assert is_ddc([]) is None
    assert is_ddc([(3, 4)]) is None
    c = is_ddc([(0, 0), (1, 0), (2, 0)])
    assert c is not None
    assert c.key == (-1, 0)
    assert c.pair_a == ((0, 0), (1, 0))
    assert c.pair_b == ((1, 0), (2, 0))


def test_is_ddc_collision_witness_is_sound():
    c = is_ddc([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert c is not None
    (a1, b1), (a2, b2) = c.pair_a, c.pair_b
    assert (a1[0] - b1[0], a1[1] - b1[1]) == c.key
    assert (a2[0] - b2[0], a2[1] - b2[1]) == c.key
    assert c.pair_a != c.pair_b


# -- periodic pattern container ---------------------------------------------------


def test_pattern_validates_its_parts():
    with pytest.raises(ValueError):
        PeriodicDdc(Lattice(((2, 1), (1, 2))), Shape.rectangle(2, 2), frozenset())
    with pytest.raises(ValueError):
        PeriodicDdc(
            Lattice(((2, 0), (0, 2))), Shape.rectangle(2, 2), frozenset({(5, 5)})
        )
    p = checkerboard()
    assert p.lattice.volume == 4
    assert p.tiling.size == 4


def test_modular_check_beats_the_window_scan():
    # the two copies of the diagonal difference collide only across copies
    p = checkerboard()
    c = is_doubly_periodic_ddc(p)
    assert c is not None
    assert c.key == (1, 1)
    assert is_ddc(p.dots) is None
    assert window_ddc_violation(p) is None  # every window looks clean


def test_window_scan_reports_in_window_collisions():
    p = PeriodicDdc(
        Lattice(((3, 0), (0, 3))),
        Shape.rectangle(3, 3),
        frozenset({(0, 0), (1, 0), (2, 0)}),
    )
    hit = window_ddc_violation(p)
    assert hit is not None
    t, collision = hit
    assert t == (0, 0)
    assert collision.key == (-1, 0)


def test_modular_pass_implies_window_pass_on_random_patterns():
    rng = random.Random(11)
    implied = 0
    for _ in range(120):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        shape = Shape.rectangle(w, h)
        cells = sorted(shape.points)
        dots = frozenset(c for c in cells if rng.random() < 0.35)
        p = PeriodicDdc(Lattice(((w, 0), (0, h))), shape, dots)
        if window_ddc_violation(p) is not None:
            assert is_doubly_periodic_ddc(p) is not None
        if is_doubly_periodic_ddc(p) is None:
            assert window_ddc_violation(p) is None
            implied += 1
    assert implied > 10  # the sample actually exercised the implication


# -- named pattern families ---------------------------------------------------------


def test_welch_frozen_values():
    p = construct_welch(7, alpha=3)
    assert p.lattice == Lattice(((6, 0), (0, 7)))
    assert p.shape == Shape.rectangle(6, 7)
    assert p.dots == WELCH7_DOTS
    assert construct_welch(3).dots == frozenset({(0, 1), (1, 2)})


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_welch_is_a_doubly_periodic_ddc(p):
    pattern = construct_welch(p)
    assert len(pattern.dots) == p - 1
    assert is_doubly_periodic_ddc(pattern) is None


def test_welch_dots_are_the_power_pairs():
    for p in (3, 5, 7):
        pattern = construct_welch(p)
        pairs = {(e[0], e[1]) for e in construct_power_pairs(p).elements}
        assert pattern.dots == pairs


def test_welch_rejects_bad_parameters():
    with pytest.raises(ValueError):
        construct_welch(9)  # prime power, not prime
    with pytest.raises(ValueError):
        construct_welch(6)
    with pytest.raises(ValueError):
        construct_welch(7, alpha=2)  # order 3 mod 7


def test_golomb_frozen_values():
    p = construct_golomb(4)
    assert p.lattice == Lattice(((3, 0), (0, 3)))
    assert p.dots == frozenset({(1, 2), (2, 1)})
    assert construct_golomb(5).dots == frozenset({(1, 2), (2, 1), (3, 3)})


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_golomb_is_a_doubly_periodic_ddc(q):
    pattern = construct_golomb(q)
    assert len(pattern.dots) == q - 2
    assert pattern.shape == Shape.rectangle(q - 1, q - 1)
    assert is_doubly_periodic_ddc(pattern) is None


def test_golomb_with_two_different_primitive_elements():
    pattern = construct_golomb(7, alpha=3, beta=5)
    assert len(pattern.dots) == 5
    assert is_doubly_periodic_ddc(pattern) is None
    with pytest.raises(ValueError):
        construct_golomb(7, beta=2)  # not primitive
    with pytest.raises(ValueError):
        construct_golomb(2)
    with pytest.raises(ValueError):
        construct_golomb(6)


def golomb_dots_by_search(q, alpha=None, beta=None):
    """The reference: test every (i, j) for alpha^i + beta^j = 1."""
    f = make_field(*prime_power(q))
    alpha = alpha or f.generator
    beta = beta or f.generator
    return frozenset(
        (i, j)
        for i, j in itertools.product(range(q - 1), repeat=2)
        if f.add(f.pow(alpha, i), f.pow(beta, j)) == 1
    )


GOLOMB_ORDERS = [q for q in range(3, 65) if prime_power(q)] + [243, 256]


@pytest.mark.parametrize("q", GOLOMB_ORDERS)
def test_golomb_logs_match_the_search(q):
    """All primitive pairs up to q = 16; above, the generators and one other pair."""
    prims = make_field(*prime_power(q)).primitive_elements()
    if q <= 16:
        pairs = list(itertools.product(prims, repeat=2))
    else:
        pairs = [(None, None), (prims[-1], prims[len(prims) // 2])]
    for alpha, beta in pairs:
        dots = construct_golomb(q, alpha, beta).dots
        assert dots == golomb_dots_by_search(q, alpha, beta), (q, alpha, beta)


# -- unfolding ------------------------------------------------------------------------


def test_unfold_welch7_hits_the_known_sequence():
    seq = unfold_to_sidon(construct_welch(7, alpha=3), (1, 1))
    assert seq.group == GroupSpec((42,))
    assert seq.as_ints() == [0, 8, 10, 11, 33, 37]
    assert verify_sidon(seq) is None


def test_lower_left_anchor_selection():
    assert lower_left_dot(construct_welch(7, alpha=3)) == (0, 1)
    with pytest.raises(ValueError):
        lower_left_dot(
            PeriodicDdc(Lattice(((2, 0), (0, 2))), Shape.rectangle(2, 2), frozenset())
        )


def test_unfold_anchor_choice_translates_the_sequence():
    pattern = construct_welch(7, alpha=3)
    base = set(unfold_to_sidon(pattern, (1, 1)).as_ints())
    for anchor in sorted(pattern.dots):
        ints = set(unfold_to_sidon(pattern, (1, 1), anchor=anchor).as_ints())
        assert 0 in ints  # the anchor itself reads as 0
        assert any({(x + c) % 42 for x in base} == ints for c in range(42))
    with pytest.raises(ValueError):
        unfold_to_sidon(pattern, (1, 1), anchor=(0, 0))  # not a dot


def test_unfold_requires_a_folding_direction():
    with pytest.raises(ValueError):
        unfold_to_sidon(construct_welch(7), (1, 0))


def test_every_unfold_direction_yields_a_sidon_sequence():
    pattern = construct_welch(5)
    tiling = pattern.tiling
    dirs = folding_directions(tiling)
    assert dirs  # 4x5 rectangle folds
    for d in dirs:
        assert verify_sidon(unfold_to_sidon(pattern, d)) is None


# -- folding --------------------------------------------------------------------------


def test_fold_welch_sequence_back_to_a_pattern():
    seq = SidonSequence.from_ints(42, [0, 8, 10, 11, 33, 37])
    pattern = fold_sidon_to_ddc(seq, Lattice(((6, 0), (0, 7))), Shape.rectangle(6, 7), (1, 1))
    assert is_doubly_periodic_ddc(pattern) is None
    assert unfold_to_sidon(pattern, (1, 1)).as_ints() == [0, 8, 10, 11, 33, 37]


def test_fold_is_exact_inverse_with_the_origin_anchor():
    seq = construct_ruzsa(7)  # does not contain 0
    shifted = SidonSequence.from_ints(42, [(x - 2) % 42 for x in seq.as_ints()])
    assert 0 in shifted.as_ints()
    pattern = fold_sidon_to_ddc(
        shifted, Lattice(((6, 0), (0, 7))), Shape.rectangle(6, 7), (1, 1)
    )
    assert (0, 0) in pattern.dots
    back = unfold_to_sidon(pattern, (1, 1), anchor=(0, 0))
    assert back == shifted


def test_fold_validates_inputs():
    lat, shape = Lattice(((6, 0), (0, 7))), Shape.rectangle(6, 7)
    with pytest.raises(ValueError):
        fold_sidon_to_ddc(construct_power_pairs(4), lat, shape, (1, 1))  # rank 3
    with pytest.raises(ValueError):
        fold_sidon_to_ddc(SidonSequence.from_ints(41, [0, 1]), lat, shape, (1, 1))
    with pytest.raises(ValueError):
        fold_sidon_to_ddc(SidonSequence.from_ints(42, [0, 1, 2]), lat, shape, (1, 1))
    with pytest.raises(ValueError):
        fold_sidon_to_ddc(SidonSequence.from_ints(42, [0, 1]), lat, shape, (1, 0))


def test_fold_bose_onto_a_nonrectangular_tiling():
    seq = construct_bose(3)  # 3 elements in Z_8
    lat = Lattice(((2, 1), (0, 4)))
    shape = Shape.rectangle(2, 4)
    tiling = Tiling(lat, shape)
    dirs = folding_directions(tiling)
    assert dirs
    for d in dirs:
        pattern = fold_sidon_to_ddc(seq, lat, shape, d)
        assert is_doubly_periodic_ddc(pattern) is None
        back = unfold_to_sidon(pattern, d)
        assert verify_sidon(back) is None
        ints, orig = set(back.as_ints()), set(seq.as_ints())
        assert any({(x + c) % 8 for x in orig} == ints for c in range(8))


def test_fold_of_empty_sequence_gives_a_dotless_pattern():
    seq = SidonSequence.from_ints(8, [])
    pattern = fold_sidon_to_ddc(seq, Lattice(((2, 1), (0, 4))), Shape.rectangle(2, 4), (1, 1))
    assert pattern.dots == frozenset()
    with pytest.raises(ValueError):
        unfold_to_sidon(pattern, (1, 1))  # nothing to anchor on


# -- exhaustive dot search ---------------------------------------------------------------


def test_max_dots_on_the_welch_tiling():
    size, witness = max_ddc_dots(Lattice(((6, 0), (0, 7))), Shape.rectangle(6, 7))
    assert size == 6
    pattern = PeriodicDdc(
        Lattice(((6, 0), (0, 7))), Shape.rectangle(6, 7), frozenset(witness)
    )
    assert is_doubly_periodic_ddc(pattern) is None


def test_max_dots_small_cases():
    assert max_ddc_dots(Lattice(((2, 0), (0, 2))), Shape.rectangle(2, 2))[0] == 1
    tromino = Shape(frozenset({(0, 0), (1, 0), (0, 1)}))
    assert max_ddc_dots(Lattice(((1, 1), (-1, 2))), tromino)[0] == 2


def test_max_dots_frozen_values():
    """The two slowest tilings the search benchmark runs, with the
    witnesses the search found before it searched canonical translates."""
    assert max_ddc_dots(Lattice(((6, 0), (0, 8)))) == (
        6, ((0, 0), (0, 1), (0, 3), (1, 0), (2, 2), (5, 5))
    )
    assert max_ddc_dots(Lattice(((4, 0), (0, 11)))) == (
        6, ((0, 0), (0, 1), (0, 3), (1, 0), (1, 4), (2, 9))
    )


def test_max_dots_respects_the_cap():
    with pytest.raises(ValueError):
        max_ddc_dots(Lattice(((7, 0), (0, 8))), Shape.rectangle(7, 8))
    with pytest.raises(ValueError, match="volume 50 exceeds the search cap 49"):
        max_ddc_dots(Lattice(((5, 0), (0, 10))))
    assert max_ddc_dots(Lattice(((7, 0), (0, 7))))[0] == 7  # at the cap, and at the bound


# -- rendering and serialisation -----------------------------------------------------------


def test_render_frozen_patterns():
    assert render_ascii(construct_welch(3)) == ".•\n•.\n.."
    assert render_ascii(construct_golomb(4)) == ".•.\n..•\n..."


def test_render_blanks_cells_outside_the_shape():
    tromino = Shape(frozenset({(0, 0), (1, 0), (0, 1)}))
    p = PeriodicDdc(Lattice(((1, 1), (-1, 2))), tromino, frozenset({(0, 0)}))
    assert render_ascii(p) == ".\n•."


def test_render_refuses_a_bounding_box_over_its_cap():
    # two cells tile with [[2, 0], [0, 1]] whenever they are an odd distance apart
    lattice = Lattice(((2, 0), (0, 1)))
    at_cap = PeriodicDdc(lattice, Shape([(0, 0), (RENDER_CELL_CAP - 1, 0)]), [(0, 0)])
    assert render_ascii(at_cap) == "•" + " " * (RENDER_CELL_CAP - 2) + "."
    over = PeriodicDdc(lattice, Shape([(0, 0), (RENDER_CELL_CAP + 1, 0)]), [(0, 0)])
    with pytest.raises(ValueError, match=f"{RENDER_CELL_CAP + 2}x1 is over the {RENDER_CELL_CAP}-cell render cap"):
        render_ascii(over)
    tall = PeriodicDdc(Lattice(((1, 0), (0, 2))), Shape([(0, 0), (0, -RENDER_CELL_CAP - 1)]), [])
    with pytest.raises(ValueError, match="render cap"):
        render_ascii(tall)


def test_pattern_json_round_trip(tmp_path, capsys):
    # the CLI's writer and reader; the tromino takes the reader's full path
    path = tmp_path / "pattern.json"
    tromino = Shape(frozenset({(0, 0), (1, 0), (0, 1)}))
    for p, rows in [
        (construct_welch(5), [[4, 0], [0, 5]]),
        (PeriodicDdc(Lattice(((1, 1), (-1, 2))), tromino, {(1, 0)}), [[1, 1], [-1, 2]]),
    ]:
        cli._emit_pattern(p)
        text = capsys.readouterr().out
        data = json.loads(text)
        assert data["lattice"] == rows
        assert sorted(map(tuple, data["dots"])) == sorted(p.dots)
        path.write_text(text)
        assert cli._read_pattern(str(path)) == p
    path.write_text('{"lattice": [[2, 0], [0, 2]], "dots": []}')
    with pytest.raises(ValueError, match="missing the 'shape' key"):
        cli._read_pattern(str(path))
