"""Distinct difference configurations and their doubly periodic form.

A dot pattern is a DDC when the difference vectors between distinct
dots are pairwise distinct.  Stamping the dots into every lattice
translate of a tiling shape extends the pattern doubly periodically;
the periodic analogue asks the differences to stay distinct after
reduction modulo the lattice, which is the property that survives
unfolding into a Sidon sequence.
"""

from __future__ import annotations

from collections.abc import Iterable

from .fields import check_order, make_field
from .folding import Direction, folded_cells, folded_positions
from .groups import (
    Collision,
    SidonSequence,
    collision_at,
    first_repeat,
    max_distinct_difference_set,
    verify_sidon,
)
from .lattices import MAX_RECTANGLE_CELLS, Lattice, Point, Shape, Tiling, fundamental_shape
from .numtheory import Record, as_ints, at_most, is_prime, prime_power


def is_ddc(dots: Iterable[Point]) -> Collision | None:
    """First repeated difference vector among distinct dots, if any.

    Shifted into the box [0, W) x [0, H) they span, the dots have
    differences in (-W, W) x (-H, H), which reduction modulo (2W - 1,
    2H - 1) keeps apart; so groups.first_repeat finds the first repeat
    in that group, in the order of the sorted dots, as vectors.
    """
    pts = sorted(set(as_ints(dots, "dots", None, 2)))
    if len(pts) < 2:
        return None
    x0, y0 = pts[0][0], min(y for _, y in pts)
    moduli = (2 * (pts[-1][0] - x0) + 1, 2 * (max(y for _, y in pts) - y0) + 1)
    repeat = first_repeat(moduli, [(x - x0, y - y0) for x, y in pts])
    return collision_at(repeat, pts, lambda a, b: (a[0] - b[0], a[1] - b[1]))


class PeriodicDdc(Record):
    """One fundamental copy of a doubly periodic dot pattern.

    The lattice and shape must tile; the dots live on shape cells, so
    there are at most as many as cells.  As with SidonSequence, the name
    states intent: whether the pattern really is a periodic DDC is
    checked separately.
    """

    __slots__ = ("lattice", "shape", "dots", "tiling")
    _fields = ("lattice", "shape", "dots")

    def __init__(self, lattice: Lattice, shape: Shape, dots: Iterable[Point]) -> None:
        tiling = Tiling(lattice, shape)  # raises unless it tiles
        size = shape.size
        dots = at_most(size, dots, f"more dots than the {size} cells of the shape")
        dots = frozenset(as_ints(dots, "dots", None, 2))
        outside = [d for d in dots if d not in shape]
        if outside:
            raise ValueError(f"dots outside the shape: {sorted(outside)}")
        self.lattice, self.shape, self.dots, self.tiling = lattice, shape, dots, tiling


def is_doubly_periodic_ddc(pattern: PeriodicDdc) -> Collision | None:
    """First difference collision modulo the lattice, if any.

    Differences are compared as cosets and reported as shape cells, so a
    collision here is exactly two segments that coincide in some pair of
    copies of the replicated pattern.  The lattice's phi is an
    isomorphism from Z^2 modulo the lattice onto Z_m1 x Z_m2, so the
    differences are distinct exactly when those of the dots' images are,
    that is when their sums are, which groups.first_repeat checks a row
    of packed sums at a time, marked one at a time in a table of |S|
    bytes until one is marked already, so at most |S| + 1 are looked up
    (pigeonhole).  Only then are the differences marked, for the witness.
    """
    dots = sorted(pattern.dots)
    lattice = pattern.lattice
    repeat = first_repeat(lattice.moduli, [lattice.phi(p) for p in dots])
    return collision_at(repeat, dots, lambda a, b: pattern.tiling.representative((a[0] - b[0], a[1] - b[1])))


def construct_welch(p: int, alpha: int | None = None) -> PeriodicDdc:
    """Dots (i, alpha^i mod p) on a (p-1)-wide, p-tall rectangle,
    replicated by the diagonal lattice [[p-1, 0], [0, p]]."""
    if as_ints(p, "p") > 1:  # the sizes before the trial division of p
        check_order(p)
        shape = Shape.rectangle(p - 1, p)
    if not is_prime(p):
        raise ValueError(f"need a prime, got {p}")
    f = make_field(p)
    dots = frozenset(enumerate(f.powers(alpha, "alpha")))
    return PeriodicDdc(
        Lattice(((p - 1, 0), (0, p))), shape, dots
    )


def construct_golomb(
    q: int, alpha: int | None = None, beta: int | None = None
) -> PeriodicDdc:
    """Dots at (i, j) with alpha^i + beta^j = 1, on a (q-1) x (q-1)
    square replicated by [[q-1, 0], [0, q-1]].

    Each 1 <= i <= q-2 has alpha^i != 1, hence the single partner
    j = log_beta(1 - alpha^i); i = 0 has none.  So q - 2 dots."""
    if as_ints(q, "q") > 2:  # the sizes before the trial division of q
        check_order(q)
        shape = Shape.rectangle(q - 1, q - 1)
    pp = prime_power(q)
    if pp is None or q < 3:
        raise ValueError(f"need a prime power q >= 3, got {q}")
    f = make_field(*pp)
    alphas = f.powers(alpha, "alpha")
    log_beta = {b: j for j, b in enumerate(f.powers(beta, "beta"))}
    dots = frozenset((i, log_beta[f.sub(1, a)]) for i, a in enumerate(alphas[1:], 1))
    return PeriodicDdc(
        Lattice(((q - 1, 0), (0, q - 1))), shape, dots
    )


def lower_left_dot(pattern: PeriodicDdc) -> Point:
    """The dot with minimal row, then minimal column."""
    if not pattern.dots:
        raise ValueError("pattern has no dots")
    return min(pattern.dots, key=lambda d: (d[1], d[0]))


def unfold_to_sidon(
    pattern: PeriodicDdc, direction: Direction, anchor: Point | None = None
) -> SidonSequence:
    """Read the dots off along the folded row as a subset of Z_{|S|}.

    The pattern is first translated so the anchor dot (lower-left by
    default) sits on the origin; each dot is then the position t whose
    row cell t*d is congruent to it, found without building the row.
    """
    if anchor is None:
        anchor = lower_left_dot(pattern)
    elif as_ints(anchor, "anchor", 2) not in pattern.dots:
        raise ValueError(f"anchor {anchor} is not a dot")
    ax, ay = anchor
    shifted = [(x - ax, y - ay) for x, y in pattern.dots]
    positions = folded_positions(pattern.tiling, direction, shifted)
    return SidonSequence.from_ints(pattern.tiling.size, positions)


def fold_sidon_to_ddc(
    seq: SidonSequence, lattice: Lattice, shape: Shape | None, direction: Direction
) -> PeriodicDdc:
    """Place a Sidon subset of Z_{|S|} onto the shape along the folded row;
    None stands for the fundamental shape, built once the group matches."""
    if seq.group.rank != 1 or seq.group.order != lattice.volume:
        raise ValueError(
            f"sequence group {seq.group.moduli} does not match shape size {lattice.volume}"
        )
    shape = fundamental_shape(lattice) if shape is None else shape
    pattern = PeriodicDdc(lattice, shape, frozenset())  # raises unless it tiles
    tiling = pattern.tiling
    if verify_sidon(seq) is not None:
        raise ValueError("sequence is not Sidon")
    # Folded dots are shape cells, and the pattern is not shared yet, so
    # it takes them as they are instead of building its tiling again.
    dots = folded_cells(tiling, direction, seq.as_ints())
    object.__setattr__(pattern, "dots", frozenset(dots))
    return pattern


DDC_SEARCH_CAP = 49
RENDER_CELL_CAP = 4 * MAX_RECTANGLE_CELLS  # so a box with a cell moved past its edge renders


def max_ddc_dots(lattice: Lattice, shape: Shape | None = None) -> tuple[int, tuple[Point, ...]]:
    """Exact maximum dot count of a doubly periodic DDC on the tiling.

    Backtracking over shape cells with differences tracked as cosets;
    anchored at the origin cell (translation moves any pattern onto it).
    The shape defaults to the fundamental one, built only once the
    volume has passed the cap.  Returns the count and the
    lexicographically smallest witness.
    """
    if lattice.volume > DDC_SEARCH_CAP:
        raise ValueError(f"volume {lattice.volume} exceeds the search cap {DDC_SEARCH_CAP}")
    shape = fundamental_shape(lattice) if shape is None else shape
    Tiling(lattice, shape)  # raises unless it tiles
    key = lattice.coset_key
    return max_distinct_difference_set(
        (0, 0), shape.points, lambda a, b: key((a[0] - b[0], a[1] - b[1]))
    )


def render_ascii(pattern: PeriodicDdc) -> str:
    """One fundamental copy, rows printed top to bottom: a bullet for a
    dot, a dot character for an empty cell, blank outside the shape; one
    character list per row, refused beyond RENDER_CELL_CAP bounding box cells."""
    x0, y0, x1, y1 = pattern.shape.bounds()
    width, height = x1 - x0 + 1, y1 - y0 + 1
    if width * height > RENDER_CELL_CAP:
        raise ValueError(f"bounding box {width}x{height} is over the {RENDER_CELL_CAP}-cell render cap")
    box = pattern.shape.size == width * height
    rows = [["." if box else " "] * width for _ in range(height)]
    if not box:
        for x, y in pattern.shape.points:
            rows[y1 - y][x - x0] = "."
    for x, y in pattern.dots:
        rows[y1 - y][x - x0] = "•"
    return "\n".join("".join(row).rstrip() for row in rows)
