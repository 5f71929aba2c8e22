"""Traced stand-in for `python -m sidon2d`, used by the benchmark's traced run.

    python3 perfbench/driver.py ARGS...     # same ARGS, stdin and stdout as the CLI
    python3 perfbench/driver.py --probe     # per-call cost of Field.add and Field.pow

The driver runs the real `sidon2d.cli.main`, after replacing each public
function and class the CLI module imported from the other modules, and
its `json`, with wrappers that record a span per call.  So the calls, their
order and the output are the CLI's own; the benchmark checks that the
stdout matches the untraced command's byte for byte.  A span is named
`<module>.<function>`; the CLI's own work is `cli.import` (importing
`sidon2d.cli`), `cli.main`, `cli.json_loads` and `cli.json_dumps`.  For
`construct`, the driver first calls the cached `make_field` for the
family's field, so the table build is its own span ahead of `construct_*`.

Spans are kept in memory as [name, start, end, parent index] and written,
with the counters, as one JSON line on stderr after the command ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
import types


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """`fn` with each call recorded as a span; `count` is an optional
        (counter name, f(args, result)) pair added to after each call."""

        def call(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                self.counts[count[0]] = self.counts.get(count[0], 0) + count[1](args, result)
            return result

        return call

    def dump(self) -> str:
        return json.dumps({"spans": self.spans, "counts": self.counts})


class _SpannedClass:
    """A class whose constructor calls are spans; attributes pass through."""

    def __init__(self, cls, call) -> None:
        self._cls = cls
        self._call = call

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._cls, attr)


COUNTERS = {
    "fields.make_field": ("fields.order_built", lambda args, field: field.order),
    "groups.verify_sidon": ("groups.pairs_compared", lambda args, _: len(args[0]) * (len(args[0]) - 1)),
    "lattices.fundamental_shape": ("lattices.cells", lambda args, shape: shape.size),
    "lattices.Tiling": ("lattices.cells", lambda args, tiling: tiling.size),
}
FIELD_DEGREE = {"bose": 2, "singer": 3}  # the construction works in GF(q^degree)


def instrument(tracer: Tracer, cli) -> None:
    """Replace, in the CLI module, every function and class it imported from
    the other sidon2d modules, and its `json`, with span-recording wrappers."""
    for attr, obj in list(vars(cli).items()):
        module = getattr(obj, "__module__", "") or ""
        if not callable(obj) or not module.startswith("sidon2d.") or module == cli.__name__:
            continue
        name = f"{module.rsplit('.', 1)[1]}.{attr}"
        call = tracer.wrap(name, obj, COUNTERS.get(name))
        setattr(cli, attr, _SpannedClass(obj, call) if isinstance(obj, type) else call)
    cli.json = types.SimpleNamespace(
        loads=tracer.wrap("cli.json_loads", json.loads),
        dumps=tracer.wrap("cli.json_dumps", json.dumps),
        JSONDecodeError=json.JSONDecodeError,
    )


def prebuild_field(tracer: Tracer, argv: list[str]) -> None:
    """Build the field a `construct` call will use, as its own span."""
    if not argv or argv[0] != "construct" or "--family" not in argv:
        return
    from sidon2d.fields import make_field
    from sidon2d.numtheory import prime_power

    family = argv[argv.index("--family") + 1]
    flag = "--p" if "--p" in argv else "--q"
    pp = prime_power(int(argv[argv.index(flag) + 1]))
    if pp is None:
        return
    p, k = pp
    tracer.wrap("fields.make_field", make_field, COUNTERS["fields.make_field"])(
        p, k * FIELD_DEGREE.get(family, 1)
    )


def run(argv: list[str]) -> int:
    tracer = Tracer()
    cli = tracer.wrap("cli.import", importlib.import_module)("sidon2d.cli")
    instrument(tracer, cli)
    prebuild_field(tracer, argv)
    code = tracer.wrap("cli.main", cli.main)(argv)
    sys.stdout.flush()
    print(tracer.dump(), file=sys.stderr)
    return code


def probe(repeats: int = 3) -> dict[str, float]:
    """Nanoseconds per call of Field.add over all pairs, and Field.pow over
    all (element, exponent < order - 1) pairs, of GF(2^8) and GF(3^5);
    the median of `repeats` sweeps."""
    from sidon2d.fields import make_field

    fields = [make_field(2, 8), make_field(3, 5)]
    out = {}
    for name in ("add", "pow"):
        sweeps = []
        for _ in range(repeats):
            calls = 0
            start = time.perf_counter()
            for f in fields:
                op = getattr(f, name)
                others = range(f.order) if name == "add" else range(f.order - 1)
                for a in range(f.order):
                    for b in others:
                        op(a, b)
                calls += f.order * len(others)
            sweeps.append((time.perf_counter() - start) / calls * 1e9)
        out[f"fields.{name}_ns"] = statistics.median(sweeps)
    return out


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps(probe()))
        sys.exit(0)
    sys.exit(run(sys.argv[1:]))
