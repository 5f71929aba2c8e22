"""The five immutable value classes: repr, equality, hashing, read-only fields.

GroupSpec, Collision, Lattice, PeriodicDdc and OptimalityReport compare
and hash by their compared fields only, print as `Name(field=value, ...)`,
are never equal to a tuple of the same values or to another class, and
refuse assignment.  Derived attributes (a lattice's `hnf`, `volume`,
`moduli`; a pattern's `tiling`) are computed once and take no part in
equality.
"""

import copy
import pickle

import pytest

from sidon2d import (
    Collision,
    GroupSpec,
    Lattice,
    OptimalityReport,
    PeriodicDdc,
    Shape,
    SidonSequence,
    check_optimality,
    construct_power_pairs,
    make_field,
)

LATTICE = Lattice(((2, 0), (0, 3)))
SHAPE = Shape.rectangle(2, 3)
PATTERN = PeriodicDdc(LATTICE, SHAPE, [(0, 1), (1, 2)])
REPORT = check_optimality(construct_power_pairs(4))

# (instance, its repr, its compared fields, an equal instance built another way,
#  an instance differing in one compared field)
CASES = [
    (
        GroupSpec((2, 3)),
        "GroupSpec(moduli=(2, 3))",
        ((2, 3),),
        GroupSpec(moduli=[2, 3]),
        GroupSpec((3, 2)),
    ),
    (
        Collision(3, (1, 0), (4, 1)),
        "Collision(key=3, pair_a=(1, 0), pair_b=(4, 1))",
        (3, (1, 0), (4, 1)),
        Collision(key=3, pair_a=(1, 0), pair_b=(4, 1)),
        Collision(3, (1, 0), (4, 2)),
    ),
    (
        LATTICE,
        "Lattice(rows=((2, 0), (0, 3)))",
        (((2, 0), (0, 3)),),
        Lattice(rows=[[2, 0], [0, 3]]),
        Lattice(((0, 3), (2, 0))),  # the same lattice, other rows: not equal
    ),
    (
        PATTERN,
        "PeriodicDdc(lattice=Lattice(rows=((2, 0), (0, 3))),"
        " shape=Shape([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]),"
        " dots=frozenset({(0, 1), (1, 2)}))",
        (LATTICE, SHAPE, frozenset({(0, 1), (1, 2)})),
        PeriodicDdc(lattice=Lattice(((2, 0), (0, 3))), shape=Shape.rectangle(2, 3), dots={(1, 2), (0, 1)}),
        PeriodicDdc(LATTICE, SHAPE, [(0, 1)]),
    ),
    (
        REPORT,
        "OptimalityReport(group_order=12, size=3, upper_bound=3,"
        " brute_force_max=3, verdict='optimal-by-bound')",
        (12, 3, 3, 3, "optimal-by-bound"),
        OptimalityReport(
            group_order=12, size=3, upper_bound=3, brute_force_max=3, verdict="optimal-by-bound"
        ),
        OptimalityReport(12, 3, 3, None, "optimal-by-bound"),
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value,text,fields,same,other", CASES, ids=IDS)
def test_repr_names_every_compared_field(value, text, fields, same, other):
    assert repr(value) == text
    assert repr(same) == text


@pytest.mark.parametrize("value,text,fields,same,other", CASES, ids=IDS)
def test_equality_is_on_the_compared_fields_of_the_same_class(value, text, fields, same, other):
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != fields and fields != value  # a tuple of the same values
    assert value.__eq__(fields) is NotImplemented
    for case in CASES:  # and every other class
        if type(case[0]) is not type(value):
            assert value != case[0]
            assert value.__eq__(case[0]) is NotImplemented


@pytest.mark.parametrize("value,text,fields,same,other", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_compared_fields(value, text, fields, same, other):
    assert hash(value) == hash(fields) == hash(same)
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("value,text,fields,same,other", CASES, ids=IDS)
def test_fields_are_read_only(value, text, fields, same, other):
    name = text[text.index("(") + 1 : text.index("=")]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before


@pytest.mark.parametrize("value,text,fields,same,other", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(value, text, fields, same, other):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and repr(twin) == text


def test_derived_attributes_are_computed_once_and_not_compared():
    lattice = Lattice(((2, 1), (0, 4)))
    assert (lattice.hnf, lattice.volume, lattice.moduli) == (((2, 1), (0, 4)), 8, (8,))
    for name in ("hnf", "volume", "moduli"):
        with pytest.raises(AttributeError):
            setattr(lattice, name, getattr(lattice, name))
    assert PATTERN.tiling is PATTERN.tiling
    assert PATTERN.tiling.size == 6
    with pytest.raises(AttributeError):
        PATTERN.tiling = PATTERN.tiling


def test_constructors_keep_their_positional_and_keyword_signatures():
    assert Collision("k", 1, 2).pair_b == 2
    with pytest.raises(TypeError):
        Collision(1, 2)
    with pytest.raises(TypeError):
        GroupSpec()
    with pytest.raises(TypeError):
        Lattice(((1, 0), (0, 1)), ((1, 0), (0, 1)))
    with pytest.raises(TypeError):
        PeriodicDdc(LATTICE, SHAPE)
    with pytest.raises(TypeError):
        OptimalityReport(12, 3, 3, 3)


def test_sequences_and_fields_follow_the_same_rules():
    """SidonSequence and Field keep their own reprs but compare, hash and
    refuse assignment like the five; make_field hands one field to every
    caller, so no caller may change it under the others."""
    seq = SidonSequence.from_ints(7, [3, 0, 1])
    assert repr(seq) == "SidonSequence((7,), [(0,), (1,), (3,)])"
    fields = (GroupSpec((7,)), ((0,), (1,), (3,)))
    assert hash(seq) == hash(fields) and seq != fields
    field = make_field(7)
    assert repr(field) == "Field(7, 1)"
    assert field == make_field(7) and hash(field) == hash((7, 1, field.modulus))
    for value, name in [(seq, "elements"), (seq, "group"), (field, "p"), (field, "exp_table")]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
