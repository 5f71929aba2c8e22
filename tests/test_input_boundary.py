"""The input boundary: outside values are exact integers or a clean error.

Every number the package reads from JSON, argv or a library argument
goes through `numtheory.as_ints`, which never converts: bools, floats,
numeric strings and wrong nesting are rejected, not truncated.  The CLI
turns that rejection into exit 1 and one `error:` line.  Two property
tests drive `cli.main` in-process: one with arbitrary and near-valid
JSON, one with near-valid option strings.
"""

import contextlib
import io
import itertools
import json
import math
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidon2d import (
    Field,
    GroupSpec,
    Lattice,
    PeriodicDdc,
    Shape,
    SidonSequence,
    Tiling,
    abelian_group_specs,
    cli,
    construct_bose,
    construct_golomb,
    construct_power_pairs,
    construct_ruzsa,
    construct_singer,
    construct_welch,
    defines_folding_gcd,
    fold,
    fundamental_shape,
    is_ddc,
    make_field,
    minimal_period,
    sidon_upper_bound,
    unfold,
    unfold_to_sidon,
)
from sidon2d.lattices import MAX_RECTANGLE_CELLS
from sidon2d.numtheory import as_ints

WELCH7 = Tiling(Lattice(((6, 0), (0, 7))), Shape.rectangle(6, 7))


def run_main(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- the reader ----------------------------------------------------------------


def test_as_ints_returns_tuples_of_the_same_ints():
    assert as_ints(5, "n") == 5
    assert as_ints([1, -2], "pair", 2) == (1, -2)
    assert as_ints(range(3), "list", None) == (0, 1, 2)
    assert as_ints([[0, 0], (1, 2)], "cells", None, 2) == ((0, 0), (1, 2))
    assert as_ints(frozenset({(0, 1)}), "cells", None, 2) == ((0, 1),)
    assert as_ints([], "cells", None, 2) == ()
    assert as_ints([[1], [2, 3]], "rows", None, None) == ((1,), (2, 3))


@pytest.mark.parametrize(
    "value,lengths,message",
    [
        (True, (), "expected an integer, got True"),
        (1.0, (), "expected an integer, got 1.0"),
        ("6", (), "expected an integer, got '6'"),
        ((1.9, 1), (2,), "expected a pair of integers, got (1.9, 1)"),
        ([1, 2, 3], (2,), "expected a pair of integers"),
        (5, (2,), "expected a pair of integers, got 5"),
        ("11", (2,), "expected a pair of integers"),
        ([0, None], (None,), "expected a list of integers"),
        ([1, 2], (3,), "expected a list of 3 integers"),
        ([[0, 0], [1.5, True]], (None, 2), "expected a pair of integers, got [1.5, True]"),
        ([[0, 0], 5], (None, 2), "expected a pair of integers, got 5"),
        (5, (None, 2), "expected a list of pairs of integers, got 5"),
        ([[2, 0], [0, 2.5]], (2, 2), "expected a pair of integers, got [0, 2.5]"),
        ([[2, 0]], (2, 2), "expected a pair of pairs of integers"),
        ((1, True), (2,), "expected a pair of integers, got (1, True)"),
        ((1, 2, 3), (2,), "expected a pair of integers, got (1, 2, 3)"),
        ((0, "1"), (None,), "expected a list of integers, got (0, '1')"),
        ((0, 1), (), "expected an integer, got (0, 1)"),
    ],
)
def test_as_ints_rejects_and_names_the_bad_level(value, lengths, message):
    with pytest.raises(ValueError, match="^malformed thing: ") as caught:
        as_ints(value, "thing", *lengths)
    assert message in str(caught.value)


# -- every library entry point ----------------------------------------------------


BAD_NUMBERS = [1.0, 1.7, True, False, "1", None]


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
def test_library_inputs_reject_non_integers(bad):
    cases = [
        lambda: Lattice(((2, 0), (0, bad))),
        lambda: Shape(frozenset({(0, 0), (bad, 1)})),
        lambda: PeriodicDdc(Lattice(((2, 0), (0, 1))), Shape.rectangle(2, 1), [(0, 0), (bad, 0)]),
        lambda: GroupSpec((bad, 3)),
        lambda: GroupSpec((5,)).normalize((bad,)),
        lambda: SidonSequence(GroupSpec((7,)), [(0,), (bad,)]),
        lambda: SidonSequence.from_ints(7, [0, bad]),
        lambda: SidonSequence.from_ints(bad, [0]),
        lambda: Field(3).add(1, bad),
        lambda: Field(bad, 2),
        lambda: Field(3, bad),
        lambda: make_field(bad, 3),
        lambda: (make_field(7, 1), make_field(7, bad)),  # (7, True) must miss (7, 1)
        lambda: Field(7).pow(3, bad),
        lambda: construct_welch(bad),
        lambda: construct_golomb(bad),
        lambda: construct_ruzsa(bad),
        lambda: construct_power_pairs(bad),
        lambda: construct_bose(bad),
        lambda: construct_singer(bad),
        lambda: Shape.rectangle(bad, 4),
        lambda: Shape.rectangle(4, bad),
        lambda: sidon_upper_bound(bad),
        lambda: abelian_group_specs(bad),
        lambda: is_ddc([(0, 0), (bad, 2)]),
        lambda: minimal_period(WELCH7.lattice, WELCH7.shape, [(bad, 0)]),
        lambda: unfold({c: c for c in WELCH7.shape.points}, WELCH7, (bad, 1)),
        lambda: defines_folding_gcd(WELCH7.lattice, 42, (1, bad)),
        lambda: fold(list(range(42)), WELCH7, (bad, 1)),
        lambda: unfold_to_sidon(construct_welch(7, 3), (1, 1), anchor=(0, bad)),
    ]
    for case in cases:
        with pytest.raises(ValueError, match="malformed"):
            case()


def test_valid_values_are_reduced_not_rejected():
    assert GroupSpec((6,)).normalize((-1,)) == (5,)
    assert SidonSequence.from_ints(6, [7, 3]).as_ints() == [1, 3]
    assert Lattice([[2, 1], [0, 4]]).rows == ((2, 1), (0, 4))
    assert fundamental_shape(Lattice([[2, 1], [0, 4]])).size == 8


CAP = MAX_RECTANGLE_CELLS


def test_a_shape_over_the_cell_cap_is_refused_before_a_cell_is_read():
    # items that are not even cells: only the count is looked at
    with pytest.raises(ValueError, match=f"^shape is over the {CAP}-cell cap$"):
        Shape([None] * (CAP + 1))
    # an endless iterable is read up to one item past the cap
    with pytest.raises(ValueError, match=f"^shape is over the {CAP}-cell cap$"):
        Shape((0, 0) for _ in itertools.count())
    assert Shape([[0, y] for y in range(CAP)]).size == CAP


def test_a_pattern_refuses_more_dots_than_cells_before_reading_them():
    lattice, shape = Lattice(((2, 0), (0, 1))), Shape.rectangle(2, 1)
    for dots in ([None] * 3, ((0, 0) for _ in itertools.count())):
        with pytest.raises(ValueError, match="^more dots than the 2 cells of the shape$"):
            PeriodicDdc(lattice, shape, dots)
    assert PeriodicDdc(lattice, shape, [(0, 0), (1, 0)]).dots == {(0, 0), (1, 0)}


@pytest.mark.parametrize(
    "cells",
    [
        [[0, True]],
        [[0, 0], [0, True]],
        [[0, 0], [0, 1.0]],
        [[0.0, 0], [0, 1]],
        [[0, 0, 0]],
        [[0, 0], [0, 1, 1]],
        [[0, 0], [0, 1], "ab"],
        [[0, 0], None],
        [[0, 1], [0, 0]],  # a permuted box
        [[0, 0], [0, 0]],  # a duplicated box
        [[0, 0], [0, 1], [0, 0], [1, 1]],  # the ys of a 2 x 2 box, not its xs
        [[0, 0], [1, 0], [0, 1], [1, 1]],  # a y-major box
        [[-1, 0], [0, 0], [-1, 1], [0, 1]],
        [[1, 0], [1, 1]],  # a box without the origin
    ],
    ids=repr,
)
def test_box_detection_never_reinterprets_a_cell_list(cells):
    """Anything but a box's own x-major list is read cell by cell, and
    fails or succeeds as it would with the box test taken away."""
    try:
        expected = frozenset(as_ints(cells, "shape", None, 2))
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            Shape(cells)
        return
    if (0, 0) not in expected:
        with pytest.raises(ValueError, match="must contain the origin"):
            Shape(cells)
        return
    shape = Shape(cells)
    assert shape.points == expected
    assert shape._points is not None  # not taken for a box


def test_a_cli_shape_over_the_cell_cap_is_one_error_line():
    over = "[" + "0, " * CAP + "0]"
    pattern = '{"lattice": [[1, 0], [0, 1]], "shape": ' + over + ', "dots": []}'
    for argv, stdin in [
        (["unfold", "--direction", "1,1"], pattern),
        (["verify", "--kind", "periodic-ddc"], pattern),
        (["directions"], pattern),
        (["render"], pattern),
        (["directions", "--lattice", "1,0;0,1", "--shape", over], ""),
    ]:
        assert run_main(argv, stdin) == (1, "", f"error: shape is over the {CAP}-cell cap\n")


def test_a_cli_pattern_with_more_dots_than_cells_is_one_error_line():
    stdin = '{"lattice": [[2, 0], [0, 1]], "shape": [[0, 0], [1, 0]], "dots": [0, 0, 0]}'
    for argv in (["unfold", "--direction", "1,1"], ["verify", "--kind", "periodic-ddc"], ["render"]):
        assert run_main(argv, stdin) == (1, "", "error: more dots than the 2 cells of the shape\n")


# -- the command line --------------------------------------------------------------


REPROS = [
    (
        ["search", "--max-ddc", "--lattice", "2,1;0,4",
         "--shape", "[[0,0],[0,1],[0,2],[0,3],[1.7,0],[1,1],[1,2],[true,3]]"],
        "",
    ),
    (
        ["verify", "--kind", "periodic-ddc"],
        '{"lattice":[[2,0],[0,2.5]],"shape":[[0,0],[0,1],[1,0],[1,1]],"dots":[[0,0],[1,0]]}',
    ),
    (["verify", "--kind", "sidon"], '{"moduli":[2.9,3],"elements":[[0,0],[1,1]]}'),
    (["verify", "--kind", "ddc"], '{"dots":[[0,0],[1.5,true]]}'),
    (["verify", "--kind", "sidon"], '{"modulus":"6","elements":[0,1,3]}'),
    (["verify", "--kind", "sidon"], '{"modulus":6,"elements":[0,1.9,true]}'),
    (["unfold", "--direction", "1,1"], '{"lattice":[[2,0],[0,3]],"shape":[[0,0],[0,1],'
     '[0,2],[1,0],[1,1],[1,2]],"dots":[[0,1.0],[1,2]]}'),
    # argv integers are ASCII digits with an optional '-', nothing int() also reads
    (["search", "--max-sidon", "1_0"], ""),
    (["search", "--max-sidon", "\uff17"], ""),  # fullwidth 7
    (["search", "--max-sidon", " 7"], ""),
    (["search", "--max-sidon", "+7"], ""),
    (["construct", "--family", "bose", "--q", "1_3"], ""),
    (["construct", "--family", "welch", "--p", "\uff17"], ""),
    (["construct", "--family", "ruzsa", "--p", "7", "--alpha", "+3"], ""),
    (["construct", "--family", "golomb", "--q", "7", "--beta", "3 "], ""),
    (["search", "--max-ddc", "--lattice", "1_0,0;0,1"], ""),
    (["directions", "--lattice", "2,0;0,3", "--shape", "2x\u0663"], ""),  # Arabic-Indic 3
    (["unfold", "--direction", "1,+1"], '{"lattice":[[2,0],[0,3]],"shape":[[0,0],[0,1],'
     '[0,2],[1,0],[1,1],[1,2]],"dots":[[0,1],[1,2]]}'),
    # a size option the family does not take is refused, not dropped
    (["construct", "--family", "bose", "--q", "3", "--p", "5"], ""),
    (["construct", "--family", "welch", "--p", "5", "--q", "9"], ""),
]


@pytest.mark.parametrize("argv,stdin", REPROS)
def test_reinterpreted_inputs_are_clean_errors(argv, stdin):
    code, out, err = run_main(argv, stdin)
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed")
    assert len(err.splitlines()) == 1


SEQUENCES = [
    {"modulus": 7, "elements": [0, 1, 3]},
    {"modulus": 6, "elements": [0, 1, 3]},  # not Sidon: exit 2
    {"moduli": [2, 3], "elements": [[0, 0], [1, 1]]},
]
PATTERNS = [
    {
        "lattice": [[2, 0], [0, 3]],
        "shape": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
        "dots": [[0, 1], [1, 2]],
    },
    {
        "lattice": [[3, 0], [0, 3]],
        "shape": [[x, y] for x in range(3) for y in range(3)],
        "dots": [[1, 2], [2, 1]],
    },
]
# each command with the valid inputs its near-valid inputs start from
COMMANDS = [
    (["verify", "--kind", "sidon"], SEQUENCES),
    (["verify", "--kind", "weak-sidon"], SEQUENCES),
    (["verify", "--kind", "ddc"], [{"dots": [[0, 0], [1, 0], [0, 2]]}, {"dots": [[0, 0], [1, 0], [2, 0]]}]),
    (["verify", "--kind", "periodic-ddc"], PATTERNS),
    (["unfold", "--direction", "1,1"], PATTERNS),
    (["directions"], PATTERNS),
    (["render"], PATTERNS),
]
KEYS = ["modulus", "moduli", "elements", "lattice", "shape", "dots"]

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["1", "2.5", "-3", "x", ""])
)
json_values = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=4),
    max_leaves=16,
)


def paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def replaced(obj, path, new):
    if not path:
        return new
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = replaced(obj[path[0]], path[1:], new)
    return copy


@st.composite
def command_inputs(draw):
    """A command with arbitrary JSON, or with one of its valid inputs
    with up to two values swapped out, often for another small integer
    so that some inputs stay valid."""
    argv, templates = draw(st.sampled_from(COMMANDS))
    if draw(st.integers(0, 3)) == 0:
        return argv, draw(st.dictionaries(st.sampled_from(KEYS), json_values, max_size=4) | json_values)
    data = draw(st.sampled_from(templates))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(paths(data))[1:]))
        data = replaced(data, path, draw(st.integers(-3, 8) | json_values))
    return argv, data


def assert_clean_exit(argv, code, out, err):
    """Exit 1 with one `error:` line and nothing on stdout, or exit 0/2
    with one JSON line (an ascii grid for `render`) and nothing on stderr."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
    elif argv[0] == "render":
        assert code == 0 and out.endswith("\n")
    else:
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 1
        json.loads(lines[0])


@settings(max_examples=400, deadline=None)
@given(command_inputs())
def test_any_json_input_exits_cleanly(case):
    argv, data = case
    assert_clean_exit(argv, *run_main(argv, json.dumps(data)))


# -- argv ------------------------------------------------------------------------------

# Text that stands in for a number or a separator.  None of it holds a
# digit, and a separator never becomes empty (that could merge two
# numbers into a larger one), so no value outgrows its bound below.
JUNK = st.sampled_from(["", " ", "-", "a", ".5", "true", "[", "]", "x", ",", ";", "lower-left"])


@st.composite
def joined(draw, numbers, separators):
    """The numbers joined by the separators, at times with one piece junk."""
    pieces = [str(numbers[0])]
    for sep, n in zip(separators, numbers[1:]):
        pieces += [sep, str(n)]
    if draw(st.integers(0, 3)) == 3:
        i = draw(st.integers(0, len(pieces) - 1))
        pieces[i] = draw(JUNK.filter(bool) if i % 2 else JUNK)
    return "".join(pieces)


def pairs(low, high):
    return st.lists(st.integers(low, high), min_size=2, max_size=2)


@st.composite
def argv_inputs(draw):
    """A command with near-valid option strings, cheap whatever they hold:
    lattice entries in [-3, 3], so volumes <= 18; rectangles at most
    40 x 40; group orders <= 24.  Each value goes in as `--option=value`
    or as two tokens."""

    def option(name, value):
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    entries = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    volume = abs(entries[0] * entries[3] - entries[1] * entries[2])
    lattice = option("--lattice", draw(joined(entries, ",;,")))
    cells = json.dumps(draw(st.lists(pairs(-3, 3), max_size=6)))
    rectangle = draw(joined(draw(pairs(-1, 40)), "x"))
    shape = draw(st.sampled_from([[], option("--shape", cells), option("--shape", rectangle)]))
    direction = option("--direction", draw(joined(draw(pairs(-6, 6)), ",")))
    anchor = option("--anchor", draw(st.just("lower-left") | joined(draw(pairs(-1, 3)), ",")))
    moduli = draw(
        st.lists(st.integers(-1, 24), min_size=1, max_size=3).filter(lambda m: math.prod(m) <= 24)
    )
    sequence = {
        "modulus": draw(st.sampled_from([volume, 1, 7])),
        "elements": draw(st.lists(st.integers(0, max(volume - 1, 0)), unique=True, max_size=4)),
    }
    return draw(
        st.sampled_from(
            [
                (["directions", *lattice, *shape], ""),
                (["fold", *lattice, *shape, *direction], json.dumps(sequence)),
                (["unfold", *direction, *anchor], json.dumps(PATTERNS[0])),
                (["search", *option("--max-sidon", draw(joined(moduli, "," * (len(moduli) - 1))))], ""),
                (["search", "--max-ddc", *lattice, *shape], ""),
            ]
        )
    )


@settings(max_examples=400, deadline=None)
@given(argv_inputs())
def test_any_option_string_exits_cleanly(case):
    argv, stdin = case
    assert_clean_exit(argv, *run_main(argv, stdin))
