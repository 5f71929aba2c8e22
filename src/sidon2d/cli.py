"""Command line interface.

Data flows through stdout as JSON so subcommands compose in pipelines;
diagnostics go to stderr.  Exit codes: 0 success, 1 usage or input
error, 2 verified property violation (the witness is printed as JSON).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict

from .ddc import (
    PeriodicDdc,
    construct_golomb,
    construct_welch,
    fold_sidon_to_ddc,
    is_ddc,
    is_doubly_periodic_ddc,
    max_ddc_dots,
    pattern_from_json,
    render_ascii,
    unfold_to_sidon,
)
from .folding import folding_directions
from .groups import (
    GroupSpec,
    sequence_from_json,
    sequence_to_json,
    verify_sidon,
    verify_weak_sidon,
)
from .lattices import Lattice, Shape, Tiling, fundamental_shape
from .sidon import (
    check_optimality,
    construct_bose,
    construct_power_pairs,
    construct_ruzsa,
    construct_singer,
    max_sidon_size,
)

SEQUENCE_FAMILIES = ("bose", "singer", "ruzsa", "power-pairs")
PATTERN_FAMILIES = ("welch", "golomb")
# verify kind -> (witness kind, JSON field naming the repeated key)
WITNESSES = {
    "sidon": ("difference-collision", "difference"),
    "weak-sidon": ("sum-collision", "total"),
    "ddc": ("segment-collision", "difference"),
    "periodic-ddc": ("segment-collision", "difference"),
}


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; their count is checked where they are used."""
    try:
        return tuple(int(part) for part in text.split(","))
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
            width, height = int(w), int(h)
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


def _read_json(path: str | None) -> dict:
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed JSON input: {exc}")
    if not isinstance(data, dict):
        raise ValueError("JSON input must be an object")
    return data


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _shape_json(shape: Shape) -> str:
    """json.dumps(shape.to_json()), a box written one column of cells at
    a time as text, with no list object per cell."""
    x0, y0, x1, y1 = shape.bounds()
    if shape.size != (x1 - x0 + 1) * (y1 - y0 + 1):
        return json.dumps(shape.to_json())
    ys = [str(y) for y in range(y0, y1 + 1)]
    columns = (f"[{x}, " + f"], [{x}, ".join(ys) + "]" for x in range(x0, x1 + 1))
    return "[" + ", ".join(columns) + "]"


def _emit_pattern(pattern: PeriodicDdc) -> None:
    """_emit(pattern_to_json(pattern)), the shape spliced in by _shape_json."""
    lattice = json.dumps(pattern.lattice.to_json())
    dots = json.dumps([list(d) for d in sorted(pattern.dots)])
    print(f'{{"lattice": {lattice}, "shape": {_shape_json(pattern.shape)}, "dots": {dots}}}')


def _element_json(element: tuple[int, ...], rank: int):
    return element[0] if rank == 1 else list(element)


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
    if getattr(args, size) is None:
        raise ValueError(f"--family {args.family} requires --{size}")
    if args.beta is not None and "beta" not in options:
        raise ValueError("--beta only applies to --family golomb")
    if args.alpha is not None and "alpha" not in options:
        raise ValueError(f"--family {args.family} does not take --alpha")
    pattern = args.family in PATTERN_FAMILIES
    if pattern and args.report:
        raise ValueError("--report only applies to sequence families")
    if not pattern and args.format == "ascii":
        raise ValueError("only pattern families render as ascii")
    built = constructor(getattr(args, size), *(getattr(args, o) for o in options))
    if args.format == "ascii":
        print(render_ascii(built))
    elif pattern:
        _emit_pattern(built)
    elif args.report:
        _emit({"sequence": sequence_to_json(built), "optimality": asdict(check_optimality(built))})
    else:
        _emit(sequence_to_json(built))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    data = _read_json(args.input)
    rank = 2  # DDC witnesses are points
    if args.kind in ("sidon", "weak-sidon"):
        seq = sequence_from_json(data)
        rank = seq.group.rank
        collision = (verify_sidon if args.kind == "sidon" else verify_weak_sidon)(seq)
    elif args.kind == "ddc":
        if "dots" not in data:
            raise ValueError("ddc JSON needs a 'dots' key")
        collision = is_ddc(data["dots"])
    else:
        collision = is_doubly_periodic_ddc(pattern_from_json(data))
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
    seq = sequence_from_json(_read_json(args.input))
    lattice = _parse_lattice(args.lattice)
    # the default shape is left to the fold, which checks the sequence first
    shape = None if args.shape is None else _parse_shape(args.shape, lattice)
    direction = _parse_ints(args.direction, "direction")
    _emit_pattern(fold_sidon_to_ddc(seq, lattice, shape, direction))
    return 0


def _cmd_unfold(args: argparse.Namespace) -> int:
    pattern = pattern_from_json(_read_json(args.input))
    direction = _parse_ints(args.direction, "direction")
    anchor = None if args.anchor == "lower-left" else _parse_ints(args.anchor, "anchor")
    seq = unfold_to_sidon(pattern, direction, anchor)
    _emit(sequence_to_json(seq))
    return 0


def _cmd_directions(args: argparse.Namespace) -> int:
    if args.lattice is not None:
        lattice = _parse_lattice(args.lattice)
        tiling = Tiling(lattice, _parse_shape(args.shape, lattice))
    else:
        tiling = pattern_from_json(_read_json(args.input)).tiling
    dirs = folding_directions(tiling)
    _emit({"count": len(dirs), "directions": [list(d) for d in dirs]})
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
    _emit({"max": size, "witness": [list(d) for d in witness]})
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    pattern = pattern_from_json(_read_json(args.input))
    print(render_ascii(pattern))
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidon2d",
        description="Construct, verify, and interconvert Sidon sequences and"
        " doubly periodic distinct difference configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named construction")
    p.add_argument("--family", required=True, choices=SEQUENCE_FAMILIES + PATTERN_FAMILIES)
    p.add_argument("--p", type=int, help="prime parameter (welch, ruzsa)")
    p.add_argument("--q", type=int, help="prime power parameter (golomb, bose, singer, power-pairs)")
    p.add_argument("--alpha", type=int, help="primitive element, as an integer code")
    p.add_argument("--beta", type=int, help="second primitive element (golomb)")
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
