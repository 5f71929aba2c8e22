"""Group plumbing, Sidon verification, CRT utilities."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidon2d import (
    GroupSpec,
    SidonSequence,
    crt_flatten,
    sidon_upper_bound,
    verify_sidon,
    verify_sidon_sums,
    verify_weak_sidon,
)
from sidon2d import groups
from sidon2d.groups import Collision, first_repeat
from sidon2d.sidon import construct_power_pairs

from collision_oracle import first_difference_collision


def test_group_spec_basics():
    g = GroupSpec((6, 7))
    assert g.order == 42
    assert g.rank == 2
    assert g.identity() == (0, 0)
    assert g.add((5, 6), (1, 1)) == (0, 0)
    assert g.sub((0, 0), (1, 3)) == (5, 4)
    assert SidonSequence(g, [(-1, 10)]).elements == ((5, 3),)
    assert len(list(g.elements())) == 42


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        GroupSpec((6, 0))
    # order-1 factors are legal, if redundant
    assert GroupSpec((1,)).order == 1


def test_sequence_normalizes_and_rejects_duplicates():
    g = GroupSpec((6,))
    s = SidonSequence(g, [(7,), (-4,)])
    assert s.elements == ((1,), (2,))
    with pytest.raises(ValueError):
        SidonSequence(g, [(1,), (7,)])  # same element after reduction


def test_sequence_int_helpers():
    s = SidonSequence.from_ints(42, [33, 0, 8])
    assert s.group == GroupSpec((42,))
    assert s.as_ints() == [0, 8, 33]
    assert (8,) in s
    assert len(s) == 3
    multi = SidonSequence(GroupSpec((2, 3)), [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        multi.as_ints()


def test_membership_is_false_for_non_members_of_any_type():
    s = SidonSequence.from_ints(42, [33, 0, 8])
    assert (33,) in s and (0,) in s
    for other in [(9,), (8, 0), (), 8, [8], [[8]], ([8],), "8", None, {8: 0}, 8.5]:
        assert other not in s
    multi = SidonSequence(GroupSpec((2, 3)), [(0, 0), (1, 1)])
    assert (1, 1) in multi
    assert [1, 1] not in multi
    assert (1,) not in multi


def test_sequence_equality_and_hash():
    a = SidonSequence.from_ints(7, [0, 1, 3])
    b = SidonSequence.from_ints(7, [3, 1, 0])
    assert a == b
    assert hash(a) == hash(b)
    assert a != SidonSequence.from_ints(7, [0, 1, 5])
    assert a != SidonSequence(GroupSpec((7, 1)), [(0, 0), (1, 0), (3, 0)])


# -- verification ------------------------------------------------------------


def test_verify_accepts_known_sidon_set():
    s = SidonSequence.from_ints(42, [0, 8, 10, 11, 33, 37])
    assert verify_sidon(s) is None
    assert verify_sidon_sums(s) is None
    assert verify_weak_sidon(s) is None


def test_verify_reports_difference_collision():
    s = SidonSequence.from_ints(6, [0, 1, 3])
    c = verify_sidon(s)
    assert c is not None
    assert c.key == (3,)
    assert c.pair_a == ((0,), (3,))
    assert c.pair_b == ((3,), (0,))
    # the witness actually describes a collision
    g = s.group
    assert g.sub(*c.pair_a) == g.sub(*c.pair_b) == c.key
    assert c.pair_a != c.pair_b


def test_verify_reports_sum_collision():
    s = SidonSequence.from_ints(4, [0, 1, 2])
    c = verify_sidon_sums(s)
    assert c is not None
    assert c.key == (2,)
    assert c.pair_a == ((0,), (2,))
    assert c.pair_b == ((1,), (1,))
    # the repeated-element sum is exactly what the weak variant ignores
    assert verify_weak_sidon(s) is None


def test_weak_sidon_violation():
    s = SidonSequence.from_ints(8, [0, 1, 2, 3])
    c = verify_weak_sidon(s)
    assert c is not None
    assert c.key == (3,)
    assert c.pair_a == ((0,), (3,))
    assert c.pair_b == ((1,), (2,))


def test_difference_and_sum_views_agree_exhaustively():
    # distinct ordered differences and distinct pairwise sums with
    # repetition characterise the same sets
    for n in range(1, 9):
        g = GroupSpec((n,))
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                s = SidonSequence.from_ints(n, subset)
                assert (verify_sidon(s) is None) == (verify_sidon_sums(s) is None)


@st.composite
def group_subsets(draw):
    moduli = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    group = GroupSpec(tuple(moduli))
    pool = list(group.elements())
    size = draw(st.integers(0, min(len(pool), 7)))
    subset = draw(st.permutations(pool))[:size]
    return group, subset


@given(group_subsets())
@settings(max_examples=300, deadline=None)
def test_difference_and_sum_views_agree_random(case):
    group, subset = case
    s = SidonSequence(group, subset)
    diff_ok = verify_sidon(s) is None
    sums_ok = verify_sidon_sums(s) is None
    assert diff_ok == sums_ok
    if diff_ok:
        assert verify_weak_sidon(s) is None  # strict pairs are a sub-check


@st.composite
def planted_subsets(draw):
    """A subset of a group of rank 1-4, often with a planted collision:
    w = x - y + z joins x, y, z, so that x - y == w - z.

    Moduli run up to 2^70, so a packed element can be wider than one
    64-bit word, and mix small and large factors, as in (1023, 2, 2, 2);
    a cycle followed by 1-12 factors Z_2 has the shape of the power pairs,
    whose Z_2 factors are added as bits.  Groups fall on both sides of
    2^21, the largest order whose sums are marked in a table, and rank-1
    groups have at most n(n - 1) elements, where no n elements are Sidon,
    or more."""
    modulus = (
        st.integers(1, 12) | st.integers(13, 300) | st.sampled_from([1023, 2**64, 10**18]) | st.integers(1, 2**70)
    )
    small_cycle = st.lists(st.integers(1, 60), min_size=1, max_size=1)
    cycle_then_bits = st.builds(lambda m, k: [m] + [2] * k, modulus, st.integers(1, 12))
    moduli = draw(st.lists(modulus, min_size=1, max_size=4) | small_cycle | cycle_then_bits)
    group = GroupSpec(tuple(moduli))
    if group.order <= 1000:
        pool = list(group.elements())
        size = draw(st.integers(0, min(len(pool), 9)))
        subset = draw(st.permutations(pool))[:size]
    else:
        element = st.tuples(*(st.integers(0, m - 1) for m in moduli))
        subset = draw(st.lists(element, max_size=9, unique=True))
    if len(subset) >= 3 and draw(st.booleans()):
        x, y, z = draw(st.permutations(subset))[:3]
        w = group.add(group.sub(x, y), z)
        if w not in subset:
            subset.append(w)
    return group, subset


# ten pairs (i, x^i) in Z_1023 x GF(1024)^+, the group of the power pairs
# at q = 1024: for i < 10 the coefficients of x^i are the unit vector e_i
POWER_PAIRS_SHAPED = [(i,) + tuple(int(j == i) for j in range(10)) for i in range(10)]
# the power pairs at q = 16 in Z_15 x GF(16)^+, and with w = x - y + z
# planted for their first three elements x, y, z
POWER_PAIRS_16 = list(construct_power_pairs(16).elements)
PLANTED_16 = POWER_PAIRS_16 + [(1, 0, 0, 1, 1)]
# the power pairs at q = 2048, a group over the table order, with w planted
_G2048 = GroupSpec((2047,) + (2,) * 11)
PLANTED_2048 = list(construct_power_pairs(2048).elements)
PLANTED_2048.append(_G2048.add(_G2048.sub(*PLANTED_2048[:2]), PLANTED_2048[2]))


def planted_late(group, base):
    """An increasing Sidon list with w = x - y + z planted for its last
    three elements z < y < x: w falls between y and x, and the first
    repeated difference is y - x = z - w, on the row of y, third from
    last, after every earlier row."""
    z, y, x = base[-3:]
    return group, base + [group.add(group.sub(x, y), z)]


# late collisions in the set (10^18), in a lane of two words (2^64 + 13),
# and behind trailing factors Z_2 in a group over the table order
LATE = [
    planted_late(GroupSpec((10**18,)), [(3**i,) for i in range(37)]),
    planted_late(GroupSpec((2**64 + 13,)), [(3**i,) for i in range(40)]),
    planted_late(GroupSpec((2**40,) + (2,) * 20), [(3**i, *(int(j == i % 20) for j in range(20))) for i in range(25)]),
]
# groups with factors Z_2, which are added as bits when they come last:
# alone, before a trailing Z_1 (so not bits), before and after another
# cycle, behind a leading Z_2 that keeps its flagged slot, in the power
# pairs at q = 2048, and after 2^40, where the bits make a lane one word
BIT_LAYOUTS = [
    (GroupSpec((2,)), [(0,), (1,)]),
    (GroupSpec((2, 2, 2)), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (GroupSpec((2, 2, 2)), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    (GroupSpec((1, 2, 1)), [(0, 0, 0), (0, 1, 0)]),
    (GroupSpec((2, 3)), [(0, 0), (1, 1), (0, 2)]),
    (GroupSpec((2, 3)), [(0, 0), (1, 1), (0, 2), (1, 0)]),
    (GroupSpec((3, 2, 2)), [(0, 0, 0), (1, 1, 0), (2, 0, 1)]),
    (GroupSpec((3, 2, 2)), [(0, 0, 0), (1, 1, 0), (2, 0, 1), (0, 1, 1)]),
    (GroupSpec((2, 15, 2, 2)), [(0, 0, 0, 0), (1, 1, 0, 1), (0, 3, 1, 1), (1, 7, 1, 0)]),
    (GroupSpec((2, 15, 2, 2)), [(0, 0, 0, 0), (1, 1, 0, 1), (0, 3, 1, 1), (1, 2, 1, 0)]),
    (_G2048, PLANTED_2048),
    (GroupSpec((2**40,) + (2,) * 20), [(0,) * 21, (1, 1) + (0,) * 19, (2**39 + 5,) + (0,) * 19 + (1,)]),
    (GroupSpec((2**40,) + (2,) * 20), [(0,) * 21, (1, 1) + (0,) * 19, (2, 0) + (1,) * 19, (3,) + (1,) * 20]),
]


def bit_layouts(test):
    for case in reversed(BIT_LAYOUTS):
        test = example(case)(test)
    return test


@given(planted_subsets())
@example((GroupSpec((5,)), []))
@example((GroupSpec((1,)), [(0,)]))
@example((GroupSpec((1, 7, 1)), [(0, 0, 0), (0, 1, 0), (0, 3, 0)]))
@example((GroupSpec((6,)), [(0,), (1,), (3,)]))
@example((GroupSpec((18,)), [(0,), (1,), (3,)]))  # m = 2n^2
@example((GroupSpec((19,)), [(0,), (1,), (3,)]))  # m = 2n^2 + 1
@example((GroupSpec((1800,)), [(0,), (1,), (3,)]))  # m = 600n: a sparse cyclic table
@example((GroupSpec((1801,)), [(0,), (1,), (3,)]))  # m = 600n + 1
@example((GroupSpec((19,)), [(0,), (1,), (2,)]))
@example((GroupSpec((20,)), [(0,), (1,), (4,), (14,), (16,)]))  # n(n - 1) = m: too dense for Sidon
@example((GroupSpec((21,)), [(0,), (1,), (4,), (14,), (16,)]))  # a perfect difference set
@example((GroupSpec((360000,)), [(c,) for c in range(600)]))  # m = 600n at n = 600
@example((GroupSpec((2**21,)), [(c,) for c in range(1024)]))  # the largest table
@example((GroupSpec((2**21 + 1,)), [(c,) for c in range(1025)]))  # the set
@example((GroupSpec((2**21,)), [(0,), (1,), (3,)]))
@example((GroupSpec((2**21 + 1,)), [(0,), (1,), (3,)]))
@example((GroupSpec((2**11, 2**10)), [(0, 0), (1, 1), (3, 9), (7, 3)]))
@example((GroupSpec((1,) * 40 + (7,)), [(0,) * 40 + (c,) for c in (0, 1, 3)]))  # a lane of two words
@example((GroupSpec((1,) * 40 + (7,)), [(0,) * 40 + (c,) for c in (0, 1, 2)]))
@example((GroupSpec((2**70,)), [(0,), (2**70 - 1,), (2**69,)]))
@example((GroupSpec((1023,) + (2,) * 10), POWER_PAIRS_SHAPED))
@example((GroupSpec((1023,) + (2,) * 10), POWER_PAIRS_SHAPED + [(1,) + (0,) * 10, (0,) + (1,) * 10]))
@example((GroupSpec((1023, 2, 2, 2)), [(0, 0, 0, 0), (1022, 1, 0, 1), (1, 1, 1, 0), (1022, 0, 1, 1)]))
@example((GroupSpec((2, 2)), [(0, 0), (0, 1)]))  # e1 = -e1: of the sums only 0 + 0 = e1 + e1
@example((GroupSpec((4,)), [(0,), (2,)]))
@example((GroupSpec((10**18,)), [(0,), (5 * 10**17,)]))  # 2-torsion in the set
@example((GroupSpec((1023,) + (2,) * 11), [(0,) * 12, (0,) * 11 + (1,)]))  # and in the bits
@example(LATE[0])
@example(LATE[1])
@example(LATE[2])
@example((GroupSpec((7,)), [(0,), (1,), (3,)]))  # n(n - 1) = |G| - 1
@example((GroupSpec((15, 2, 2, 2, 2)), POWER_PAIRS_16))
@example((GroupSpec((15, 2, 2, 2, 2)), PLANTED_16))
@bit_layouts
@settings(max_examples=300, deadline=None)
def test_verify_sidon_equals_the_ordered_scan(case):
    group, subset = case
    s = SidonSequence(group, subset)
    scan = first_difference_collision(s.elements, group.sub)
    assert verify_sidon(s) == scan
    # the kernel's decision alone, before its pairs are named
    assert (first_repeat(group.moduli, s.elements) is None) == (scan is None)


@given(planted_subsets())
@example((GroupSpec((2, 2)), [(0, 0), (0, 1)]))  # weak Sidon, not Sidon: 0 + 0 = e1 + e1
@example((GroupSpec((10,)), [(0,), (1,), (4,), (5,)]))  # 0 + 5 = 1 + 4, in the table
@example((GroupSpec((10**18,)), [(0,), (1,), (4,), (5,)]))  # and in the set
@example((GroupSpec((1,) * 40 + (7,)), [(0,) * 40 + (c,) for c in (0, 1, 3)]))
@example((GroupSpec((15, 2, 2, 2, 2)), POWER_PAIRS_16))
@example((GroupSpec((15, 2, 2, 2, 2)), PLANTED_16))
@bit_layouts
@settings(max_examples=300, deadline=None)
def test_verify_weak_sidon_equals_the_pair_scan(case):
    group, subset = case
    s = SidonSequence(group, subset)
    scan, seen = None, {}
    for a, b in itertools.combinations(s.elements, 2):
        key = group.add(a, b)
        if key in seen:
            scan = Collision(key, seen[key], (a, b))
            break
        seen[key] = (a, b)
    assert verify_weak_sidon(s) == scan
    assert (first_repeat(group.moduli, s.elements, skip=1) is None) == (scan is None)


def test_lanes_form_one_key_per_sum(monkeypatch):
    # a Sidon set in a non-cyclic group of 992 elements: every row is
    # whole, and the rows mark n(n + 1)/2 cells of the table, one per sum
    # a + b with b at or after a, at its place in the group's elements()
    s = construct_power_pairs(32)
    marked = []

    class CountingTable(bytearray):
        def __setitem__(self, key, value):
            marked.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(groups, "bytearray", CountingTable, raising=False)
    assert first_repeat(s.group.moduli, s.elements) is None
    monkeypatch.undo()
    n = len(s)
    assert n == 31
    index = {el: i for i, el in enumerate(s.group.elements())}
    rows = [[index[s.group.add(a, b)] for b in s.elements[i:]] for i, a in enumerate(s.elements)]
    assert [len(row) for row in rows] == list(range(n, 0, -1))
    assert marked == [k for row in rows for k in row]
    assert len(marked) == n * (n + 1) // 2


def test_lanes_behind_a_flagged_z2_are_compacted_to_one_key_per_sum(monkeypatch):
    # in Z_2 x Z_15 x Z_2 x Z_2 only the last two factors are bits: the
    # leading Z_2 and Z_15 keep flagged slots, so each lane is compacted,
    # and still marks each sum at its place in the group's elements()
    group = GroupSpec((2, 15, 2, 2))
    chosen = []
    for el in group.elements():
        if verify_sidon_sums(SidonSequence(group, chosen + [el])) is None:
            chosen.append(el)
    s = SidonSequence(group, chosen)
    marked = []

    class CountingTable(bytearray):
        def __setitem__(self, key, value):
            marked.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(groups, "bytearray", CountingTable, raising=False)
    assert verify_sidon(s) is None
    monkeypatch.undo()
    index = {el: i for i, el in enumerate(group.elements())}
    assert len(s) == 8
    assert marked == [index[group.add(a, b)] for i, a in enumerate(s.elements) for b in s.elements[i:]]


def test_a_group_over_the_table_order_keeps_one_key_per_sum(monkeypatch):
    # Z_(10^18) takes no table: each row adds its n - i keys to one set,
    # and with b after a (the weak check) n - i - 1
    s = SidonSequence.from_ints(10**18, [0, 1, 3, 7, 12, 20])
    formed = []

    class CountingSet(set):
        def update(self, *rows):
            rows = [list(row) for row in rows]
            formed.append(sum(map(len, rows)))
            super().update(*rows)

    monkeypatch.setattr(groups, "set", CountingSet, raising=False)
    assert verify_sidon(s) is None
    assert formed == [6, 5, 4, 3, 2, 1]
    formed.clear()
    assert verify_weak_sidon(s) is None
    assert formed == [5, 4, 3, 2, 1]


# -- counting bound -----------------------------------------------------------


def test_sidon_upper_bound_values():
    assert [sidon_upper_bound(n) for n in (1, 2, 3, 6, 7, 42)] == [1, 1, 2, 2, 3, 6]
    assert sidon_upper_bound(57) == 8  # 8*7 = 56 <= 56, tight
    with pytest.raises(ValueError):
        sidon_upper_bound(0)


def test_sidon_upper_bound_is_sharp_definition():
    for n in range(1, 200):
        m = sidon_upper_bound(n)
        assert m * (m - 1) <= n - 1 < (m + 1) * m


# -- CRT ----------------------------------------------------------------------


def test_crt_maps_known_element():
    g = GroupSpec((6, 7))
    assert crt_flatten(SidonSequence(g, [(1, 3)])) == SidonSequence.from_ints(42, [31])


def test_crt_is_an_isomorphism():
    g = GroupSpec((6, 7))
    images = {el: crt_flatten(SidonSequence(g, [el])).as_ints()[0] for el in g.elements()}
    for el, x in images.items():
        assert 0 <= x < 42
        assert (x % 6, x % 7) == el
    # bijective: the whole group maps onto all of Z_42
    assert crt_flatten(SidonSequence(g, list(g.elements()))) == SidonSequence.from_ints(42, range(42))
    for a in [(0, 0), (1, 3), (5, 6)]:
        for b in [(2, 5), (3, 1)]:
            assert images[g.add(a, b)] == (images[a] + images[b]) % 42


def test_crt_requires_coprime_moduli():
    with pytest.raises(ValueError):
        crt_flatten(SidonSequence(GroupSpec((2, 4)), [(1, 1)]))


def test_crt_flatten_preserves_sidon():
    g = GroupSpec((6, 7))
    s = SidonSequence(g, [(0, 0), (1, 3), (4, 1)])
    flat = crt_flatten(s)
    assert flat.group == GroupSpec((42,))
    assert (verify_sidon(s) is None) == (verify_sidon(flat) is None)
    assert 31 in set(flat.as_ints())


def test_crt_flatten_of_flat_sequence_is_identity():
    s = SidonSequence.from_ints(7, [0, 1, 3])
    assert crt_flatten(s) == s
