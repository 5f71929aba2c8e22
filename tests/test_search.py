"""The bitset search engine against the set-based reference search:
the same maximum size and the same lexicographically smallest witness."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidon2d import (
    GroupSpec,
    Lattice,
    Shape,
    fundamental_shape,
    max_ddc_dots,
    max_sidon_size,
    sidon_upper_bound,
)

import search_oracle


@st.composite
def small_groups(draw):
    """A product of at most three cyclic groups, of order at most 30."""
    moduli = [draw(st.integers(1, 30))]
    while len(moduli) < 3 and draw(st.booleans()):
        moduli.append(draw(st.integers(1, 30 // math.prod(moduli))))
    return GroupSpec(tuple(moduli))


@st.composite
def small_tilings(draw):
    """An HNF lattice of volume at most 20 with its fundamental shape or,
    as often, a shifted transversal: each cell but the origin moved by a
    lattice vector."""
    a = draw(st.integers(1, 20))
    d = draw(st.integers(1, 20 // a))
    b = draw(st.integers(0, d - 1))
    lattice = Lattice(((a, b), (0, d)))
    cells = sorted(fundamental_shape(lattice).points)
    if draw(st.booleans()):
        shift = st.integers(-2, 2)
        cells = [(0, 0)] + [
            (x + k1 * a, y + k1 * b + k2 * d)
            for x, y in cells[1:]
            for k1, k2 in [(draw(shift), draw(shift))]
        ]
    return lattice, Shape(frozenset(cells))


@given(small_groups())
@example(GroupSpec((1,)))
@example(GroupSpec((2, 2)))
@example(GroupSpec((3, 3, 3)))
@example(GroupSpec((2, 2, 3)))  # the witness's second member is not the first candidate
@settings(max_examples=150, deadline=None)
def test_group_search_matches_the_reference(group):
    candidates = sorted(group.elements())
    candidates.remove(group.identity())
    expected = search_oracle.max_distinct_difference_set(
        group.identity(), candidates, group.sub, sidon_upper_bound(group.order)
    )
    assert max_sidon_size(group) == expected


@given(small_tilings())
@example((Lattice(((1, 0), (0, 1))), Shape(frozenset({(0, 0)}))))
@example((Lattice(((1, 1), (-1, 2))), Shape(frozenset({(0, 0), (1, 0), (0, 1)}))))
@example((Lattice(((7, 1), (0, 2))), fundamental_shape(Lattice(((7, 1), (0, 2))))))
@settings(max_examples=150, deadline=None)
def test_tiling_search_matches_the_reference(case):
    lattice, shape = case
    key = lattice.coset_key
    expected = search_oracle.max_distinct_difference_set(
        (0, 0),
        sorted(shape.points - {(0, 0)}),
        lambda p, q: key((p[0] - q[0], p[1] - q[1])),
        sidon_upper_bound(lattice.volume),
    )
    assert max_ddc_dots(lattice, shape) == expected
