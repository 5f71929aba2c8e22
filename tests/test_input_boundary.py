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
from hypothesis import example, given, settings
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
    fundamental_shape,
    is_ddc,
    make_field,
    minimal_period,
    sidon_upper_bound,
    unfold_to_sidon,
)
from sidon2d.folding import folded_cells, folded_positions
from sidon2d.lattices import MAX_RECTANGLE_CELLS
from sidon2d.numtheory import as_ints

from byte_stdin import byte_stdin

WELCH7 = Tiling(Lattice(((6, 0), (0, 7))), Shape.rectangle(6, 7))


def run_main(argv: list[str], stdin: str | bytes = "", encoding: str = "utf-8") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", byte_stdin(stdin, encoding)):
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
        lambda: folded_positions(WELCH7, (bad, 1), [(0, 0)]),
        lambda: defines_folding_gcd(WELCH7.lattice, 42, (1, bad)),
        lambda: folded_cells(WELCH7, (bad, 1), range(42)),
        lambda: unfold_to_sidon(construct_welch(7, 3), (1, 1), anchor=(0, bad)),
    ]
    for case in cases:
        with pytest.raises(ValueError, match="malformed"):
            case()


def test_valid_values_are_reduced_not_rejected():
    assert SidonSequence(GroupSpec((6,)), [(-1,)]).elements == ((5,),)
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
    """A cell list, a box's or not, is read cell by cell, and fails or
    succeeds as as_ints reads it."""
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
    assert shape._points is not None  # kept as its cells


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
    # a pattern in the layout the CLI writes, with a number json.loads refuses
    (["verify", "--kind", "periodic-ddc"],
     '{"lattice": [[\uff12, 0], [0, 1]], "shape": [[0, 0], [1, 0]], "dots": []}'),
    (["unfold", "--direction", "1,1"],
     '{"lattice": [[2, 0], [0, 1]], "shape": [[0, 0], [01, 0]], "dots": []}'),
]


@pytest.mark.parametrize("argv,stdin", REPROS)
def test_reinterpreted_inputs_are_clean_errors(argv, stdin):
    code, out, err = run_main(argv, stdin)
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--kind", "sidon"],
        ["verify", "--kind", "weak-sidon"],
        ["fold", "--lattice", "7,0;0,1", "--direction", "1,0"],
    ],
)
def test_a_sequence_with_both_a_modulus_and_moduli_is_refused(argv):
    # one of the two keys would be dropped, whichever the reader took
    stdin = '{"modulus": 7, "moduli": [3], "elements": [1, 2]}'
    message = "error: sequence JSON has both a 'modulus' and a 'moduli' key\n"
    assert run_main(argv, stdin) == (1, "", message)


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


# -- the pattern reader ----------------------------------------------------------------
#
# `_read_pattern` reads the text the CLI writes for a box pattern without
# a JSON object per shape cell, and leaves any other text to its full
# path, which decodes the whole text with json.loads.  Whatever the text,
# the command must end as it does when every text takes that full path.

PATTERN_COMMANDS = [
    ["verify", "--kind", "periodic-ddc"],
    ["unfold", "--direction", "1,1"],
    ["directions"],
    ["render"],
]


def full_path():
    """_read_pattern forced onto its full path."""
    return mock.patch.object(cli, "_box_pattern", lambda raw, decode: None)


def run_both(argv, stdin, encoding="utf-8"):
    """run_main with the reader as it is, and forced onto the full path."""
    fast = run_main(argv, stdin, encoding)
    with full_path():
        return fast, run_main(argv, stdin, encoding)


def cli_output(argv, stdin=""):
    code, out, err = run_main(argv, stdin)
    assert (code, err) == (0, ""), err
    return out


BOSE5 = cli_output(["construct", "--family", "bose", "--q", "5"])
MOVED_BOX = json.dumps([[x, y] for x in range(-1, 2) for y in range(-3, 5)])
CANONICAL = [
    cli_output(["construct", "--family", "welch", "--p", "7"]),
    cli_output(["construct", "--family", "golomb", "--q", "8"]),
    cli_output(["fold", "--lattice", "8,2;0,3", "--direction", "1,0"], BOSE5),
    # a box that is not anchored at the origin
    cli_output(["fold", "--lattice", "3,0;0,8", "--shape", MOVED_BOX, "--direction", "1,1"], BOSE5),
]
DOTS_KEY = '"dots": '
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def number_tokens(text):
    """The numbers of the lattice, the first shape cell and the last one."""
    numbers = list(re.finditer("-?[0-9]+", text))
    shape_end = text.index("]], " + DOTS_KEY)
    return numbers[:6] + [m for m in numbers if m.end() <= shape_end][-2:]


def edit_whitespace(draw, text):
    spots = [m.end() for m in re.finditer(r"[\[\]{},:]", text)]
    at = draw(st.sampled_from(spots))
    return text[:at] + draw(st.sampled_from([" ", "  ", "\n", "\t", "\r\n"])) + text[at:]


def edit_number(draw, text):
    token = draw(st.sampled_from(number_tokens(text)))
    digits = token.group()
    new = draw(st.sampled_from(["0" + digits, "-0", digits.translate(FULLWIDTH), digits + ".0"]))
    return text[: token.start()] + new + text[token.end():]


def edit_cell(draw, text):
    start, end = text.index('"shape": '), text.index(DOTS_KEY)
    cells = list(re.finditer(r"\[(-?[0-9]+), (-?[0-9]+)\]", text[start:end]))
    cell = draw(st.sampled_from(cells[1:-1]))
    x, y = int(cell.group(1)), int(cell.group(2)) + draw(st.sampled_from([-1, 1]))
    return text[: start + cell.start()] + f"[{x}, {y}]" + text[start + cell.end():]


def edit_dots(draw, text):
    dots = draw(st.sampled_from(["[[NaN, 0]]", "NaN", "[[0.5, 1]]", "[[true, 0]]", "[[0, 0], [1, 1.0]]",
                                 "[" * 100_000 + "]" * 100_000]))
    return text[: text.index(DOTS_KEY) + len(DOTS_KEY)] + dots + "}\n"


def edit_keys(draw, text):
    data = json.loads(text)
    order = draw(st.permutations(list(data)))
    return json.dumps({key: data[key] for key in order}, indent=draw(st.sampled_from([None, 1])))


EDITS = [
    lambda draw, text: text,
    edit_whitespace,
    edit_keys,
    lambda draw, text: text.replace(DOTS_KEY, '"shape": [[0, 0]], ' + DOTS_KEY),
    lambda draw, text: text.rstrip()[:-1] + ', "shape": [[0, 0]]}',
    lambda draw, text: text.replace('"shape"', '"sh\\u0061pe"'),
    edit_number,
    edit_cell,
    edit_dots,
    lambda draw, text: text[: draw(st.integers(0, len(text) - 2))],
    # garbage, or whitespace that JSON does not allow
    lambda draw, text: text + draw(st.sampled_from(["x", "}", ",", " 1", "{}", "\0", "\f", "\u00a0"])),
]


@st.composite
def pattern_texts(draw):
    text = draw(st.sampled_from(CANONICAL))
    return draw(st.sampled_from(PATTERN_COMMANDS)), draw(st.sampled_from(EDITS))(draw, text)


def byte_edit(old, new, argv=PATTERN_COMMANDS[0]):
    """The Welch p = 7 text as bytes, with its first `old` made `new`."""
    data = CANONICAL[0].encode()
    assert old in data
    return argv, data.replace(old, new, 1)


# edits that only a reader of bytes can get wrong
BYTE_EDITS = [
    byte_edit(b'"dots": [[0', b'"dots": [[\xff0'),  # not UTF-8, in the dots
    byte_edit(b"[1, 3], [1, 4]", b"[1, 3], [1, \xff4]", PATTERN_COMMANDS[1]),  # and in the shape
    byte_edit(b"[1, 3], [1, 4]", b"[1, 3],\r[1, 4]", PATTERN_COMMANDS[2]),
    byte_edit(b"[1, 3], [1, 4]", b"[1, 3],\r\n[1, 4]", PATTERN_COMMANDS[3]),
    byte_edit(b"]]}\n", b"]]}\r"),  # a lone CR after the dots
    byte_edit(b"{", b"\xef\xbb\xbf{", PATTERN_COMMANDS[1]),  # a UTF-8 BOM
    byte_edit(b'"dots": [[0, 1]', '"dots": [[0, １]'.encode(), PATTERN_COMMANDS[3]),  # a fullwidth digit
]


@settings(max_examples=300, deadline=None)
@given(pattern_texts())
@example(BYTE_EDITS[0])
@example(BYTE_EDITS[1])
@example(BYTE_EDITS[2])
@example(BYTE_EDITS[3])
@example(BYTE_EDITS[4])
@example(BYTE_EDITS[5])
@example(BYTE_EDITS[6])
def test_the_pattern_reader_ends_every_command_as_the_full_path_does(case):
    argv, stdin = case
    fast, full = run_both(argv, stdin)
    assert fast == full
    assert_clean_exit(argv, *fast)


def test_the_pattern_reader_ends_a_command_on_an_input_file_as_the_full_path_does(tmp_path):
    path = tmp_path / "pattern.json"
    for data in [CANONICAL[1].encode()] + [data for _, data in BYTE_EDITS]:
        path.write_bytes(data)
        for argv in PATTERN_COMMANDS:
            fast, full = run_both(argv + ["--input", str(path)], "")
            assert fast == full
            assert_clean_exit(argv, *fast)
    path.write_bytes(CANONICAL[1].encode())
    for argv in PATTERN_COMMANDS:
        assert run_main(argv + ["--input", str(path)]) == run_main(argv, CANONICAL[1])


@pytest.mark.parametrize(
    "encoding, dots",
    [
        ("utf-16-le", "[[0, 1]]}".encode("utf-16-le")),  # dots that are JSON only in the stream's encoding
        ("utf-8-sig", b"\xef\xbb\xbf[[0, 1]]}"),  # a byte order mark, dropped only where a stream starts
        ("cp037", "[[0, 1]]}".encode("cp037")),
    ],
    ids=["utf-16-le", "utf-8-sig", "cp037"],
)
def test_the_pattern_reader_decodes_the_dots_as_part_of_the_whole_stream(encoding, dots):
    data = CANONICAL[0].encode()
    data = data[: data.index(DOTS_KEY.encode()) + len(DOTS_KEY)] + dots
    for argv in PATTERN_COMMANDS:
        fast, full = run_both(argv, data, encoding)
        assert fast == full
        assert_clean_exit(argv, *fast)


def box_text(x0, y0, x1, y1):
    return json.dumps([[x, y] for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)])


@pytest.mark.parametrize(
    "stdin",
    [
        # first and last cells spanning a box far over the cap
        '{"lattice": [[1, 0], [0, 1]], "shape": [[0, 0], [1000000000, 1000000000]], "dots": []}',
        # the text of a box, then more cells
        '{"lattice": [[1, 0], [0, 2]], "shape": [[0, 0], [0, 1]], [0, 1]], "dots": []}',
        # a box without the origin
        '{"lattice": [[2, 0], [0, 3]], "shape": ' + box_text(1, 1, 2, 3) + ', "dots": []}',
        # faults in the lattice, the shape and the dots at once: the first is named
        '{"lattice": [[2, 0], [4, 0]], "shape": ' + box_text(1, 1, 2, 3) + ', "dots": [[9, 9]]}',
        '{"lattice": [[2, 0], [0, 3]], "shape": ' + box_text(0, 0, 2, 3) + ', "dots": [[9, 9]]}',
        '{"lattice": [[2, 0], [0, 3]], "shape": ' + box_text(0, 0, 1, 2) + ', "dots": [[9, 9]]}',
        # an integer of more digits than int() reads from text
        '{"lattice": [[1' + "0" * 5000 + ', 0], [0, 1]], "shape": [[0, 0]], "dots": []}',
    ],
    ids=["far-over-cap", "cells-after-the-box", "no-origin", "singular-lattice", "no-tiling", "dot-outside", "long-int"],
)
def test_the_pattern_reader_refuses_as_the_full_path_does(stdin):
    for argv in PATTERN_COMMANDS:
        fast, full = run_both(argv, stdin)
        assert fast == full
        assert fast[0] == 1


def test_the_pattern_reader_leaves_a_box_over_the_cap_to_the_full_path():
    # as the CLI would write it, were it allowed to
    stdin = '{"lattice": [[1, 0], [0, 1]], "shape": ' + box_text(0, 0, 0, CAP) + ', "dots": []}'
    fast, full = run_both(["verify", "--kind", "periodic-ddc"], stdin)
    assert fast == full == (1, "", f"error: shape is over the {CAP}-cell cap\n")


def test_the_written_layout_never_reaches_the_full_path():
    for text in CANONICAL:
        for argv in PATTERN_COMMANDS:
            expected = run_main(argv, text)
            with mock.patch.object(cli, "_parse_json", side_effect=AssertionError("full path taken")):
                assert run_main(argv, text) == expected


def test_the_written_layout_is_read_without_writing_its_shape_text(tmp_path):
    # the shape is compared with the input a column at a time, so the
    # reader holds no second copy of its text
    path = tmp_path / "pattern.json"
    for text in CANONICAL:
        path.write_text(text)
        with mock.patch.object(cli, "_shape_pieces", side_effect=AssertionError("shape text written")):
            pattern = cli._read_pattern(str(path))
        assert pattern.shape._box is not None  # read as a box
        with full_path():
            assert pattern == cli._read_pattern(str(path))
