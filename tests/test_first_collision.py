"""Every distinctness check against a plain first-collision loop.

Each oracle below is an explicit dictionary scan over the pairs in
lexicographic order, the form each check had before they shared one
row kernel; the checks must name the same first witness.
"""

from itertools import combinations, combinations_with_replacement, product
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidon2d import (
    Collision,
    GroupSpec,
    Lattice,
    PeriodicDdc,
    SidonSequence,
    construct_welch,
    fundamental_shape,
    is_ddc,
    is_doubly_periodic_ddc,
    verify_sidon,
    verify_sidon_sums,
    verify_weak_sidon,
)
from sidon2d import groups
from sidon2d.groups import first_repeat

# -- oracles ------------------------------------------------------------------


def oracle_difference_collision(seq):
    g = seq.group
    seen = {}
    for a, b in product(seq.elements, repeat=2):
        if a == b:
            continue
        d = g.sub(a, b)
        if d in seen:
            return Collision(d, seen[d], (a, b))
        seen[d] = (a, b)
    return None


def oracle_sum_collision(seq, pairs):
    g = seq.group
    seen = {}
    for a, b in pairs(seq.elements, 2):
        s = g.add(a, b)
        if s in seen:
            return Collision(s, seen[s], (a, b))
        seen[s] = (a, b)
    return None


def oracle_is_ddc(dots):
    pts = sorted({(int(x), int(y)) for x, y in dots})
    seen = {}
    for a in pts:
        for b in pts:
            if a == b:
                continue
            d = (a[0] - b[0], a[1] - b[1])
            if d in seen:
                return Collision(d, seen[d], (a, b))
            seen[d] = (a, b)
    return None


def oracle_is_doubly_periodic_ddc(pattern):
    tiling = pattern.tiling
    seen = {}
    for a in sorted(pattern.dots):
        for b in sorted(pattern.dots):
            if a == b:
                continue
            d = tiling.representative((a[0] - b[0], a[1] - b[1]))
            if d in seen:
                return Collision(d, seen[d], (a, b))
            seen[d] = (a, b)
    return None


# -- inputs -------------------------------------------------------------------


@st.composite
def sequences(draw):
    """A subset of a group of rank 1-2, often with a planted collision:
    w = x - y + z makes x - y == w - z, and w = x + y - z makes
    x + y == w + z."""
    moduli = draw(st.lists(st.integers(1, 9), min_size=1, max_size=2))
    group = GroupSpec(tuple(moduli))
    pool = list(group.elements())
    subset = draw(st.permutations(pool))[: draw(st.integers(0, min(len(pool), 8)))]
    if len(subset) >= 3 and draw(st.booleans()):
        x, y, z = draw(st.permutations(subset))[:3]
        if draw(st.booleans()):
            w = group.add(group.sub(x, y), z)
        else:
            w = group.sub(group.add(x, y), z)
        if w not in subset:
            subset.append(w)
    return SidonSequence(group, subset)


@st.composite
def patterns(draw):
    """Dots on a tiling whose triangular basis ((a, b), (0, d)) has
    1 <= a, d <= 12, often with a planted collision modulo the lattice.
    The quotient is cyclic when gcd(a, b, d) = 1 and Z_m1 x Z_m2 with
    m1 > 1 otherwise; up to 16 dots in up to 144 cells give cyclic
    quotients of at most n(n - 1) elements, where no n dots form a
    periodic DDC, and of more, and every quotient of at most 144
    elements marks its packed sums in a table."""
    a, d = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    lattice = Lattice(((a, draw(st.integers(0, d - 1))), (0, d)))
    shape = fundamental_shape(lattice)
    cells = sorted(shape.points)
    dots = draw(st.permutations(cells))[: draw(st.integers(0, min(len(cells), 16)))]
    pattern = PeriodicDdc(lattice, shape, frozenset(dots))
    if len(dots) >= 3 and draw(st.booleans()):
        x, y, z = draw(st.permutations(dots))[:3]
        w = pattern.tiling.representative((x[0] - y[0] + z[0], x[1] - y[1] + z[1]))
        pattern = PeriodicDdc(lattice, shape, pattern.dots | {w})
    return pattern


def planted_late(values, plant):
    """The values with plant(x, y, z) added for the last three of them:
    x - y = w - z for w = x - y + z, which the rows reach only after the
    rows of every value before z."""
    z, y, x = values[-3:]
    return values + [plant(x, y, z)]


def _late_sequence(modulus, count):
    # powers of 3 are Sidon while twice the largest stays below the modulus
    return SidonSequence.from_ints(modulus, planted_late([3**i for i in range(count)], lambda x, y, z: x - y + z))


def _late_dots(count, y_of):
    dots = [(3**i, y_of(i)) for i in range(count)]
    return planted_late(dots, lambda x, y, z: (x[0] - y[0] + z[0], x[1] - y[1] + z[1]))


def _late_pattern(pattern):
    """The pattern with x - y + z, reduced onto the shape, added for its
    last three dots: a periodic DDC gains exactly one new dot."""
    z, y, x = sorted(pattern.dots)[-3:]
    w = pattern.tiling.representative((x[0] - y[0] + z[0], x[1] - y[1] + z[1]))
    return PeriodicDdc(pattern.lattice, pattern.shape, pattern.dots | {w})


# -- agreement ----------------------------------------------------------------


@given(sequences())
@example(SidonSequence.from_ints(6, [0, 1, 3]))
@example(SidonSequence.from_ints(8, [0, 1, 2, 3]))
@example(SidonSequence.from_ints(1, [0]))
@example(_late_sequence(10**18, 37))  # the set
@example(_late_sequence(2**64 + 13, 40))  # lanes of two words
@example(SidonSequence.from_ints(10**18, [0, 5 * 10**17]))  # 2-torsion in the set
@example(SidonSequence(GroupSpec((1023,) + (2,) * 11), [(0,) * 12, (1,) + (0,) * 11, (0,) * 11 + (1,)]))  # bits
@settings(max_examples=300, deadline=None)
def test_sequence_scans_match_their_oracles(seq):
    assert verify_sidon(seq) == oracle_difference_collision(seq)
    assert verify_sidon_sums(seq) == oracle_sum_collision(seq, combinations_with_replacement)
    assert verify_weak_sidon(seq) == oracle_sum_collision(seq, combinations)


def _box_pattern(basis, dots):
    lattice = Lattice(basis)
    return PeriodicDdc(lattice, fundamental_shape(lattice), frozenset(dots))


@given(patterns())
@example(_box_pattern(((2, 0), (0, 2)), [(0, 0), (1, 1)]))  # Z_2 x Z_2
@example(_box_pattern(((4, 0), (0, 6)), [(0, 0), (0, 1), (1, 3), (3, 2)]))  # Z_2 x Z_12
@example(_box_pattern(((3, 1), (0, 5)), [(0, 0), (0, 1), (1, 3)]))  # Z_15
@example(_box_pattern(((12, 5), (0, 12)), [(0, 0), (0, 1), (1, 3)]))  # Z_144, lanes
@example(_late_pattern(construct_welch(31)))  # Z_930
@example(_late_pattern(_box_pattern(((2, 0), (0, 2)), [(0, 0), (0, 1), (1, 0)])))  # bits, 2-torsion
@settings(max_examples=300, deadline=None)
def test_pattern_scans_match_their_oracles(pattern):
    oracle = oracle_is_doubly_periodic_ddc(pattern)
    assert is_doubly_periodic_ddc(pattern) == oracle
    lattice = pattern.lattice
    images = [lattice.phi(p) for p in sorted(pattern.dots)]
    assert (first_repeat(lattice.moduli, images) is None) == (oracle is None)
    assert is_ddc(pattern.dots) == oracle_is_ddc(pattern.dots)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=8))
@example([(0, 0), (1, 0), (2, 0)])
@example([(0, 0), (0, 0), (1, 2)])
@example([(2, 0), (2, 1), (2, 2)])  # W = 1: the x component is Z_1
@example([(2, -1), (2, 0), (2, 2)])
@example([(-1, -1)])  # a single dot
@example([(-3, -2), (-1, -3), (-2, -1), (-3, -3)])
@example([(-3, -3), (-2, -1), (-1, 1), (-3, 0)])
@example([(0, 0), (2**64, 1), (2**65 + 1, 3), (-(2**64), 2**70)])  # spans over 2^64
@example([(0, -(2**66)), (2**64, 0), (2**65, 2**66)])
@example(_late_dots(30, lambda i: i))  # the set
@example(_late_dots(45, lambda i: 3**i))  # spans near 2^70: lanes of three words
@settings(max_examples=300, deadline=None)
def test_plain_ddc_scan_matches_its_oracle(dots):
    oracle = oracle_is_ddc(dots)
    if oracle is not None:
        assert is_ddc(dots) == oracle
        return
    # a DDC is accepted by the rows of sums alone: the kernel makes one
    # table or set for them, and a second for differences only on a repeat
    made = []

    class Table(bytearray):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    class Seen(set):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    with mock.patch.multiple(groups, bytearray=Table, set=Seen, create=True):
        assert is_ddc(dots) is None
    assert len(made) == (len(set(dots)) > 1)
