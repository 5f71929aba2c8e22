"""Command line interface.

Data flows through stdout as JSON so subcommands compose in pipelines;
diagnostics go to stderr.  Exit codes: 0 success, 1 usage or input
error, 2 verified property violation (the witness is printed as JSON).
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys

from .ddc import (
    PeriodicDdc,
    construct_golomb,
    construct_welch,
    fold_sidon_to_ddc,
    is_ddc,
    is_doubly_periodic_ddc,
    max_ddc_dots,
    render_ascii,
    unfold_to_sidon,
)
from .folding import folding_directions
from .groups import (
    GroupSpec,
    SidonSequence,
    verify_sidon,
    verify_weak_sidon,
)
from .lattices import MAX_RECTANGLE_CELLS, Lattice, Shape, Tiling, fundamental_shape
from .sidon import (
    check_optimality,
    construct_bose,
    construct_power_pairs,
    construct_ruzsa,
    construct_singer,
    max_sidon_size,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator
    from typing import NoReturn

SEQUENCE_FAMILIES = ("bose", "singer", "ruzsa", "power-pairs")
PATTERN_FAMILIES = ("welch", "golomb")
INT_OPTIONS = ("p", "q", "alpha", "beta")  # construct's integer options
# verify kind -> (witness kind, JSON field naming the repeated key)
WITNESSES = {
    "sidon": ("difference-collision", "difference"),
    "weak-sidon": ("sum-collision", "total"),
    "ddc": ("segment-collision", "difference"),
    "periodic-ddc": ("segment-collision", "difference"),
}
# A pair of ints as _emit_pattern writes it.  They follow JSON's grammar
# in ASCII digits, so none of them reads differently from json.loads.
# The byte patterns are compiled on first use, not by every command's import.
_CELL = rb"\[(-?(?:0|[1-9][0-9]*)), (-?(?:0|[1-9][0-9]*))\]"
# the text _emit_pattern writes, up to the first shape cell
_PATTERN_HEAD = rb'\{"lattice": \[' + _CELL + b", " + _CELL + rb'\], "shape": (\[)' + _CELL
_SHAPE_END = b']], "dots": '
_DECODE = json.JSONDecoder().raw_decode


def _parse_int(text: str, what: str) -> int:
    """ASCII digits with an optional '-': int() alone also reads '1_0', '７', ' 7' and '+7'."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"malformed {what}: expected an integer, got {text!r}")
    return int(text)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; their count is checked where they are used."""
    try:
        return tuple(_parse_int(part, what) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed {what}: expected comma-separated integers, got {text!r}")


def _parse_lattice(text: str) -> Lattice:
    return Lattice([_parse_ints(row, "lattice row") for row in text.split(";")])


def _parse_shape(text: str | None, lattice: Lattice) -> Shape:
    if text is None:
        return fundamental_shape(lattice)
    if "x" in text and not text.lstrip().startswith("["):
        w, _, h = text.partition("x")
        try:
            width, height = _parse_int(w, "shape"), _parse_int(h, "shape")
        except ValueError:
            raise ValueError(f"malformed shape: expected 'WxH' or a JSON point list, got {text!r}")
        if width > 0 < height and width * height != lattice.volume:
            # the tiling's own verdict, reached without building W*H cells
            raise ValueError(
                f"shape of size {width * height} does not tile with lattice {lattice.rows}"
                f" (volume {lattice.volume})"
            )
        return Shape.rectangle(width, height)
    try:
        return Shape(json.loads(text))
    except (json.JSONDecodeError, RecursionError):
        raise ValueError(f"malformed shape: expected 'WxH' or a JSON point list, got {text!r}")


def _read_input(path: str | None, read=lambda stream: stream.read()):
    """read(stream) of stdin, or of the file at path: its text by default."""
    if path is None or path == "-":
        return read(sys.stdin)
    with open(path) as fh:
        return read(fh)


def _read_bytes(stream) -> tuple[bytes, Callable[[bytes], str]]:
    """The stream's bytes and its decoding: encoding, errors, universal newlines."""
    return stream.buffer.read(), lambda raw: io.TextIOWrapper(io.BytesIO(raw), stream.encoding, stream.errors).read()


def _read_json(path: str | None) -> dict:
    return _parse_json(_read_input(path))


def _parse_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed JSON input: {exc}")
    if not isinstance(data, dict):
        raise ValueError("JSON input must be an object")
    return data


def _read_sequence(path: str | None) -> SidonSequence:
    """The sequence as _emit_sequence writes it, or a ValueError."""
    data = _read_json(path)
    if "modulus" in data and "moduli" in data:
        raise ValueError("sequence JSON has both a 'modulus' and a 'moduli' key")
    try:
        if "modulus" in data:
            return SidonSequence.from_ints(data["modulus"], data["elements"])
        if "moduli" in data:
            return SidonSequence(GroupSpec(data["moduli"]), data["elements"])
    except KeyError as missing:
        raise ValueError(f"sequence JSON is missing the {missing} key") from None
    raise ValueError("sequence JSON needs a 'modulus' or 'moduli' key")


def _read_pattern(path: str | None) -> PeriodicDdc:
    """The pattern as _emit_pattern writes it, or a ValueError, from the
    input's bytes read once: in place, with no JSON object per shape cell,
    for a box; else decoded, the bytes dropped before json.loads."""
    raw, decode = _read_input(path, _read_bytes)
    pattern = _box_pattern(raw, decode)
    if pattern is None:
        text = decode(raw)
        del raw  # neither is held while the next is built
        data = _parse_json(text)
        del text
        try:
            lattice, shape, dots = data["lattice"], data["shape"], data["dots"]
        except KeyError as missing:
            raise ValueError(f"pattern JSON is missing the {missing} key") from None
        pattern = PeriodicDdc(Lattice(lattice), Shape(shape), dots)
    return pattern


def _box_pattern(raw: bytes, decode: Callable[[bytes], str]) -> PeriodicDdc | None:
    """The pattern when the bytes are exactly `{"lattice": [[a, b], [c, d]],
    "shape": S, "dots": D}` and JSON whitespace, S being _box_columns of the
    box from its first to its last cell, within the cell cap, and D any
    JSON that json.loads reads; else None, for the full path to read.  S
    is compared in place and only D decoded, and the pattern is built as
    the full path builds it, so that it raises the same first error."""
    head = re.match(_PATTERN_HEAD, raw)
    if head is None:
        return None
    start = head.start(5)
    cut = raw.find(_SHAPE_END, head.end() - 1)  # the shape ends at cut + 2
    last = None if cut < 0 else re.compile(_CELL).fullmatch(raw, raw.rfind(b"[", start, cut), cut + 1)
    if last is None:
        return None
    try:  # int() refuses ints of over 4300 digits, as json.loads does
        a, b, c, d, x0, y0 = map(int, head.group(1, 2, 3, 4, 6, 7))
        x1, y1 = map(int, last.groups())
    except ValueError:
        return None
    width, height = x1 - x0 + 1, y1 - y0 + 1
    if not (width > 0 < height and width * height <= MAX_RECTANGLE_CELLS):
        return None
    at = start  # compared a column at a time, so no copy of S is made
    for column in map(str.encode, _box_columns(x0, y0, x1, y1)):
        if not raw.startswith(column, at):
            return None
        at += len(column)
    if at != cut + 2:  # the columns end where the shape does
        return None
    try:  # from the shape's end, left to the full path where the decoding reads it as other text
        tail = decode(raw[cut:])  # a byte the decoding refuses is a ValueError too
        dots, end = _DECODE(tail, len(_SHAPE_END))
    except (ValueError, RecursionError):
        return None
    if not tail.startswith(_SHAPE_END.decode()) or tail[end:].rstrip(" \t\n\r") != "}":
        return None
    return PeriodicDdc(Lattice([[a, b], [c, d]]), Shape._of_box((x0, y0, x1, y1)), dots)


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _shape_pieces(shape: Shape) -> Iterable[str]:
    """json.dumps of the cells in sorted order, in pieces; a full box is sorted
    already when listed x-major, so it is written with no list per cell."""
    x0, y0, x1, y1 = shape.bounds()
    if shape.size != (x1 - x0 + 1) * (y1 - y0 + 1):
        return [json.dumps(sorted(shape.points))]
    return _box_columns(x0, y0, x1, y1)


def _box_columns(x0: int, y0: int, x1: int, y1: int) -> Iterator[str]:
    """The text of the box [x0, x1] x [y0, y1], one column of cells at a
    time, each after the "[" or ", " before it; the last ends the list."""
    ys = [str(y) for y in range(y0, y1 + 1)]
    for x in range(x0, x1 + 1):
        yield ("[" if x == x0 else ", ") + f"[{x}, " + f"], [{x}, ".join(ys) + ("]]" if x == x1 else "]")


def _emit_pattern(pattern: PeriodicDdc) -> None:
    """The pattern as one JSON object of lattice rows, shape cells and dots,
    cells sorted, written a _shape_pieces piece at a time after all that can raise."""
    lattice = json.dumps(pattern.lattice.rows)
    dots = json.dumps(sorted(pattern.dots))
    shape = _shape_pieces(pattern.shape)
    sys.stdout.write(f'{{"lattice": {lattice}, "shape": ')
    sys.stdout.writelines(shape)
    sys.stdout.write(f', "dots": {dots}}}\n')


def _emit_sequence(seq: SidonSequence, report: bool = False) -> None:
    """A modulus and ints for one cyclic factor, else the moduli and the
    element tuples; with the report, as {"sequence": ..., "optimality": ...}."""
    if seq.group.rank == 1:
        data = {"modulus": seq.group.moduli[0], "elements": seq.as_ints()}
    else:
        data = {"moduli": seq.group.moduli, "elements": seq.elements}
    _emit({"sequence": data, "optimality": check_optimality(seq).to_json()} if report else data)


def _element_json(element: tuple[int, ...], rank: int):
    return element[0] if rank == 1 else element


# -- subcommands -------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> int:
    # family -> (constructor, size option, primitive-element options), built
    # per call so that it reads the names this module holds at the time
    constructor, size, options = {
        "bose": (construct_bose, "q", ()),
        "singer": (construct_singer, "q", ()),
        "ruzsa": (construct_ruzsa, "p", ("alpha",)),
        "power-pairs": (construct_power_pairs, "q", ("alpha",)),
        "welch": (construct_welch, "p", ("alpha",)),
        "golomb": (construct_golomb, "q", ("alpha", "beta")),
    }[args.family]
    given = {o: _parse_int(getattr(args, o), f"--{o}") for o in INT_OPTIONS if getattr(args, o) is not None}
    if size not in given:
        raise ValueError(f"--family {args.family} requires --{size}")
    other = "q" if size == "p" else "p"
    if other in given:
        raise ValueError(f"malformed options: --family {args.family} takes --{size}, not --{other}")
    if "beta" in given and "beta" not in options:
        raise ValueError("--beta only applies to --family golomb")
    if "alpha" in given and "alpha" not in options:
        raise ValueError(f"--family {args.family} does not take --alpha")
    pattern = args.family in PATTERN_FAMILIES
    if pattern and args.report:
        raise ValueError("--report only applies to sequence families")
    if not pattern and args.format == "ascii":
        raise ValueError("only pattern families render as ascii")
    built = constructor(given[size], *(given.get(o) for o in options))
    if args.format == "ascii":
        print(render_ascii(built))
    elif pattern:
        _emit_pattern(built)
    else:
        _emit_sequence(built, args.report)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rank = 2  # DDC witnesses are points
    if args.kind == "periodic-ddc":
        collision = is_doubly_periodic_ddc(_read_pattern(args.input))
    elif args.kind == "ddc":
        data = _read_json(args.input)
        if "dots" not in data:
            raise ValueError("ddc JSON needs a 'dots' key")
        collision = is_ddc(data["dots"])
    else:
        seq = _read_sequence(args.input)
        rank = seq.group.rank
        collision = (verify_sidon if args.kind == "sidon" else verify_weak_sidon)(seq)
    if collision is None:
        _emit({"ok": True})
        return 0
    kind, key = WITNESSES[args.kind]
    _emit(
        {
            "ok": False,
            "kind": kind,
            key: _element_json(collision.key, rank),
            "pair_a": [_element_json(e, rank) for e in collision.pair_a],
            "pair_b": [_element_json(e, rank) for e in collision.pair_b],
        }
    )
    return 2


def _cmd_fold(args: argparse.Namespace) -> int:
    seq = _read_sequence(args.input)
    lattice = _parse_lattice(args.lattice)
    # the default shape is left to the fold, which checks the sequence first
    shape = None if args.shape is None else _parse_shape(args.shape, lattice)
    direction = _parse_ints(args.direction, "direction")
    _emit_pattern(fold_sidon_to_ddc(seq, lattice, shape, direction))
    return 0


def _cmd_unfold(args: argparse.Namespace) -> int:
    pattern = _read_pattern(args.input)
    direction = _parse_ints(args.direction, "direction")
    anchor = None if args.anchor == "lower-left" else _parse_ints(args.anchor, "anchor")
    seq = unfold_to_sidon(pattern, direction, anchor)
    _emit_sequence(seq)
    return 0


def _cmd_directions(args: argparse.Namespace) -> int:
    if args.lattice is not None:
        lattice = _parse_lattice(args.lattice)
        tiling = Tiling(lattice, _parse_shape(args.shape, lattice))
    else:
        tiling = _read_pattern(args.input).tiling
    dirs = folding_directions(tiling)
    sys.stdout.write(f'{{"count": {len(dirs)}, "directions": [')  # json.dumps, a slice at a time
    sys.stdout.writelines(", " * (i > 0) + json.dumps(dirs[i:i + 4096])[1:-1] for i in range(0, len(dirs), 4096))
    sys.stdout.write("]}\n")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.max_sidon is not None:
        group = GroupSpec(_parse_ints(args.max_sidon, "group moduli"))
        size, witness = max_sidon_size(group)
        _emit(
            {
                "max": size,
                "witness": [_element_json(e, group.rank) for e in witness],
            }
        )
        return 0
    if args.lattice is None:
        raise ValueError("--max-ddc requires --lattice")
    lattice = _parse_lattice(args.lattice)
    # the default shape is left to the search, which checks its cap first
    shape = None if args.shape is None else _parse_shape(args.shape, lattice)
    size, witness = max_ddc_dots(lattice, shape)
    _emit({"max": size, "witness": witness})
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    pattern = _read_pattern(args.input)
    print(render_ascii(pattern))
    return 0


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """A usage error, in a subcommand too, as one `error:` line and exit 1."""
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sidon2d",
        description="Construct, verify, and interconvert Sidon sequences and"
        " doubly periodic distinct difference configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named construction")
    p.add_argument("--family", required=True, choices=SEQUENCE_FAMILIES + PATTERN_FAMILIES)
    p.add_argument("--p", help="prime parameter (welch, ruzsa)")
    p.add_argument("--q", help="prime power parameter (golomb, bose, singer, power-pairs)")
    p.add_argument("--alpha", help="primitive element, as an integer code")
    p.add_argument("--beta", help="second primitive element (golomb)")
    p.add_argument("--report", action="store_true", help="wrap the sequence with an optimality report")
    p.add_argument("--format", choices=("json", "ascii"), default="json")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a property of a JSON input")
    p.add_argument("--kind", required=True, choices=tuple(WITNESSES))
    p.add_argument("--input", help="input file (default: stdin)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fold", help="fold a sequence onto a tiled shape")
    p.add_argument("--lattice", required=True, help="basis rows, e.g. '6,0;0,7'")
    p.add_argument("--shape", help="'WxH' or JSON point list (default: fundamental)")
    p.add_argument("--direction", required=True, help="step vector, e.g. '1,1'")
    p.add_argument("--input", help="sequence JSON file (default: stdin)")
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("unfold", help="unfold a pattern into a sequence")
    p.add_argument("--direction", required=True, help="step vector, e.g. '1,1'")
    p.add_argument("--anchor", default="lower-left", help="'lower-left' or 'x,y' (a dot)")
    p.add_argument("--input", help="pattern JSON file (default: stdin)")
    p.set_defaults(func=_cmd_unfold)

    p = sub.add_parser("directions", help="list folding directions of a tiling")
    p.add_argument("--lattice", help="basis rows; omit to read a pattern JSON")
    p.add_argument("--shape", help="'WxH' or JSON point list (default: fundamental)")
    p.add_argument("--input", help="pattern JSON file (default: stdin)")
    p.set_defaults(func=_cmd_directions)

    p = sub.add_parser("search", help="run an exhaustive oracle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-sidon", help="group moduli, e.g. '7' or '6,7'")
    group.add_argument("--max-ddc", action="store_true")
    p.add_argument("--lattice", help="basis rows (with --max-ddc)")
    p.add_argument("--shape", help="'WxH' or JSON point list (default: fundamental)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("render", help="print a pattern as an ascii grid")
    p.add_argument("--input", help="pattern JSON file (default: stdin)")
    p.set_defaults(func=_cmd_render)

    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """`--option -1,1;1,1` as `--option=-1,1;1,1`.  argparse reads a token
    that starts with '-' as an option unless it is a plain negative number;
    every sidon2d option is `-h` or starts with `--`, so any other such
    token after an option can only be its value."""
    out: list[str] = []
    for token in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-(?!-|h$)", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
