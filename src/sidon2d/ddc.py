"""Distinct difference configurations and their doubly periodic form.

A dot pattern is a DDC when the difference vectors between distinct
dots are pairwise distinct.  Stamping the dots into every lattice
translate of a tiling shape extends the pattern doubly periodically;
the periodic analogue asks the differences to stay distinct after
reduction modulo the lattice, which is the property that survives
unfolding into a Sidon sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .fields import make_field
from .folding import Direction, folded_cells, folded_positions
from .groups import (
    Collision,
    SidonSequence,
    differences_distinct,
    first_difference_collision,
    max_distinct_difference_set,
    verify_sidon,
)
from .lattices import Lattice, Point, Shape, Tiling, fundamental_shape
from .numtheory import as_ints, at_most, is_prime, prime_power


def is_ddc(dots: Iterable[Point]) -> Collision | None:
    """First repeated difference vector among distinct dots, if any."""
    pts = sorted(set(as_ints(dots, "dots", None, 2)))
    return first_difference_collision(pts, lambda a, b: (a[0] - b[0], a[1] - b[1]))


@dataclass(frozen=True)
class PeriodicDdc:
    """One fundamental copy of a doubly periodic dot pattern.

    The lattice and shape must tile; the dots live on shape cells, so
    there are at most as many as cells.  As with SidonSequence, the name
    states intent: whether the pattern really is a periodic DDC is
    checked separately.
    """

    lattice: Lattice
    shape: Shape
    dots: frozenset[Point]
    tiling: Tiling = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tiling = Tiling(self.lattice, self.shape)  # raises unless it tiles
        size = self.shape.size
        dots = at_most(size, self.dots, f"more dots than the {size} cells of the shape")
        dots = frozenset(as_ints(dots, "dots", None, 2))
        outside = [d for d in dots if d not in self.shape]
        if outside:
            raise ValueError(f"dots outside the shape: {sorted(outside)}")
        object.__setattr__(self, "dots", dots)
        object.__setattr__(self, "tiling", tiling)


def is_doubly_periodic_ddc(pattern: PeriodicDdc) -> Collision | None:
    """First difference collision modulo the lattice, if any.

    Differences are compared as cosets and reported as shape cells, so a
    collision here is exactly two segments that coincide in some pair of
    copies of the replicated pattern.  The lattice's phi is an
    isomorphism from Z^2 modulo the lattice onto Z_m1 x Z_m2, so the
    differences are distinct exactly when those of the dots' images are,
    which groups.differences_distinct checks a row of differences at a
    time: a pattern with a repeat stops within about |S| + n of them
    (pigeonhole).  Only then is it scanned in order for the witness.
    """
    dots = sorted(pattern.dots)
    lattice = pattern.lattice
    if differences_distinct(lattice.moduli, [lattice.phi(p) for p in dots]):
        return None
    representative = pattern.tiling.representative
    return first_difference_collision(
        dots, lambda a, b: representative((a[0] - b[0], a[1] - b[1]))
    )


def window_ddc_violation(pattern: PeriodicDdc) -> tuple[Point, Collision] | None:
    """Scan every distinct window position for a plain-DDC violation.

    The window is the shape translated by t; the dots are those of the
    doubly periodic extension falling inside it.  Shape cells enumerate
    each window position once up to periodicity.  A pattern that passes
    the modular check always passes this one; the converse is weaker
    (a window can miss a collision that straddles copies).
    """
    representative = pattern.tiling.representative
    for t in sorted(pattern.shape.points):
        window = [
            (x + t[0], y + t[1])
            for x, y in pattern.shape.points
            if representative((x + t[0], y + t[1])) in pattern.dots
        ]
        collision = is_ddc(window)
        if collision is not None:
            return t, collision
    return None


def construct_welch(p: int, alpha: int | None = None) -> PeriodicDdc:
    """Dots (i, alpha^i mod p) on a (p-1)-wide, p-tall rectangle,
    replicated by the diagonal lattice [[p-1, 0], [0, p]]."""
    if not is_prime(as_ints(p, "p")):
        raise ValueError(f"need a prime, got {p}")
    f = make_field(p)
    alpha = f.primitive_or_generator(alpha, "alpha")
    dots = frozenset((i, f.pow(alpha, i)) for i in range(p - 1))
    return PeriodicDdc(
        Lattice(((p - 1, 0), (0, p))), Shape.rectangle(p - 1, p), dots
    )


def construct_golomb(
    q: int, alpha: int | None = None, beta: int | None = None
) -> PeriodicDdc:
    """Dots at (i, j) with alpha^i + beta^j = 1, on a (q-1) x (q-1)
    square replicated by [[q-1, 0], [0, q-1]].

    Each 1 <= i <= q-2 has alpha^i != 1, hence the single partner
    j = log_beta(1 - alpha^i); i = 0 has none.  So q - 2 dots."""
    pp = prime_power(as_ints(q, "q"))
    if pp is None or q < 3:
        raise ValueError(f"need a prime power q >= 3, got {q}")
    f = make_field(*pp)
    alpha = f.primitive_or_generator(alpha, "alpha")
    beta = f.primitive_or_generator(beta, "beta")
    dots = frozenset((i, f.log(f.sub(1, f.pow(alpha, i)), beta)) for i in range(1, q - 1))
    return PeriodicDdc(
        Lattice(((q - 1, 0), (0, q - 1))), Shape.rectangle(q - 1, q - 1), dots
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


def pattern_to_json(pattern: PeriodicDdc) -> dict:
    """The pattern as JSON: lattice rows, shape cells and dots, cells sorted."""
    return {
        "lattice": pattern.lattice.to_json(),
        "shape": pattern.shape.to_json(),
        "dots": [list(d) for d in sorted(pattern.dots)],
    }


def pattern_from_json(data: dict) -> PeriodicDdc:
    """The pattern that pattern_to_json wrote, or a ValueError."""
    try:
        lattice, shape, dots = data["lattice"], data["shape"], data["dots"]
    except KeyError as missing:
        raise ValueError(f"pattern JSON is missing the {missing} key") from None
    return PeriodicDdc(Lattice(lattice), Shape(shape), dots)
