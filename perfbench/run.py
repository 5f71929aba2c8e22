"""End-to-end benchmark of the sidon2d command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every op is one user task: a single `python -m sidon2d` command, or a
short script of commands where each later one reads an earlier one's
stdout.  Each command runs as a cold child process, one at a time: a
closed loop with a single client, so at most one child runs at once.  A
fresh interpreter per command means the `make_field` cache never hides a
table build, and interpreter start-up counts, as it does for a user.

A run sets up (cold `--help` calls), builds the workload's ops from the
seed, then makes passes over the ops in a seeded order while the next
pass would end at most half a pass past `--seconds`.  Every command's
exit code and stdout is checked; for commands whose output was frozen
in `digests.json` the stdout must also be byte-identical.

With `--trace 1` the run alternates untraced passes with traced ones,
in which every command runs through `driver.py`; it reports the
per-layer metrics instead of the end-to-end ones.

Without `--workload` it runs each workload in turn.  The last line of a
workload's output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit code 1 means the program
could not be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
CLI = (sys.executable, "-m", "sidon2d")
DRIVER = (sys.executable, str(HERE / "driver.py"))
# Children use (and the first one writes) the bytecode cache, as an
# installed CLI does, whatever the caller's environment says.
ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
ENV["PYTHONPATH"] = str(SRC)
DEFAULT_SEED = 0
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 60.0

# --- child processes ------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    code: int | None  # None when killed at the timeout
    stdout: str
    stderr: str
    rss_mb: float


class Launcher:
    """Runs children one at a time through `launch.py`, a helper process
    started while this one is still small (see there for why), and
    returns each child's wall time, exit code, output and peak RSS.
    The children's stdio are files in a private directory under this one.
    The launcher leads its own process group, so that leaving early kills
    it together with the child it is running."""

    def __init__(self) -> None:
        self._dir = tempfile.TemporaryDirectory(prefix=".work-", dir=HERE)
        self._files = {name: Path(self._dir.name) / name for name in ("stdin", "stdout", "stderr")}
        self._proc = subprocess.Popen(
            (sys.executable, "-S", str(HERE / "launch.py")),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=ENV,
            cwd=ROOT,
            start_new_session=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()  # an idle launcher exits at end of input
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self._proc.pid, signal.SIGKILL)
            self._proc.wait()
        self._dir.cleanup()

    def run(self, argv: tuple[str, ...], stdin: str = "", timeout: float = CHILD_TIMEOUT_S) -> Child:
        self._files["stdin"].write_text(stdin)
        request = {name: str(path) for name, path in self._files.items()}
        request.update(argv=argv, timeout=timeout)
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        reply = json.loads(reply)
        return Child(
            wall_s=reply["wall_s"],
            code=reply["code"],
            stdout=self._files["stdout"].read_text(),
            stderr=self._files["stderr"].read_text(),
            rss_mb=reply["rss_mb"],
        )


# --- ops ------------------------------------------------------------------------

Check = Callable[[dict, list[dict]], bool]


@dataclass(frozen=True)
class Cmd:
    """One CLI call; `src` is the index of the earlier command of the same
    op whose stdout becomes this one's stdin."""

    args: tuple[str, ...]
    check: Check
    src: int | None = None


@dataclass(frozen=True)
class Op:
    cmds: tuple[Cmd, ...]

    def labels(self) -> list[str]:
        out: list[str] = []
        for cmd in self.cmds:
            label = " ".join(cmd.args)
            out.append(label if cmd.src is None else f"{label} < {out[cmd.src]}")
        return out


def _cmd(text: str, check: Check, src: int | None = None) -> Cmd:
    return Cmd(tuple(text.split()), check, src)


def _ok(out: dict, _: list[dict]) -> bool:
    return out == {"ok": True}


def _sequence(modulus: int, size: int) -> Check:
    return lambda out, _: out.get("modulus") == modulus and len(set(out["elements"])) == size


def _pattern(rows: list[list[int]], dots: int) -> Check:
    return lambda out, _: out["lattice"] == rows and len(out["dots"]) == dots


def _maximum(expected: int) -> Check:
    return lambda out, _: out["max"] == expected and len(out["witness"]) == expected


def _directions(expected: int) -> Check:
    return lambda out, _: out["count"] == expected == len(out["directions"])


def _optimal_by_bound(size: int) -> Check:
    def check(out: dict, _: list[dict]) -> bool:
        report = out["optimality"]
        return (
            len(out["sequence"]["elements"]) == size
            and report["size"] == report["upper_bound"] == report["brute_force_max"] == size
            and report["verdict"] == "optimal-by-bound"
        )

    return check


def _is_translate(a: list, b: list, moduli: tuple[int, ...]) -> bool:
    """Whether point set b is point set a shifted, modulo a diagonal lattice."""
    pa = {tuple(p) if isinstance(p, list) else (p,) for p in a}
    pb = {tuple(p) if isinstance(p, list) else (p,) for p in b}
    if len(pa) != len(pb):
        return False
    ref = min(pb)
    return any(
        {tuple((x + r - s) % m for x, r, s, m in zip(p, ref, shift, moduli)) for p in pa} == pb
        for shift in pa
    )


def _diagonal(out: dict) -> tuple[int, int]:
    (a, b), (c, d) = out["lattice"]
    if b or c:
        raise ValueError("expected a diagonal lattice")
    return a, d


def _refolds(out: dict, inputs: list[dict]) -> bool:
    """fold(unfold(P)) is P up to the shift that puts the anchor on the origin."""
    pattern = inputs[0]
    return (
        out["lattice"] == pattern["lattice"]
        and out["shape"] == pattern["shape"]
        and _is_translate(pattern["dots"], out["dots"], _diagonal(pattern))
    )


def _unfolds_back(out: dict, inputs: list[dict]) -> bool:
    """unfold(fold(S)) is S up to the shift that puts the anchor on zero."""
    seq = inputs[0]
    return out["modulus"] == seq["modulus"] and _is_translate(
        seq["elements"], out["elements"], (seq["modulus"],)
    )


def _contains_zero(modulus: int, size: int) -> Check:
    base = _sequence(modulus, size)
    return lambda out, inputs: base(out, inputs) and 0 in out["elements"]


# The benchmark imports the program only to draw inputs (main puts the
# checkout's `src` on the path); everything it measures runs in children.


def _primitive(rng: random.Random, p: int, k: int = 1) -> int:
    from sidon2d import make_field

    return rng.choice(make_field(p, k).primitive_elements())


def _direction(rng: random.Random, rows: tuple[tuple[int, int], tuple[int, int]]) -> str:
    """A folding direction in [0, 16)^2, drawn among those the closed-form
    criterion accepts for the lattice's fundamental tiling."""
    from sidon2d import Lattice, defines_folding_gcd

    lattice = Lattice(rows)
    folds = [
        (a, b)
        for a in range(16)
        for b in range(16)
        if (a, b) != (0, 0) and defines_folding_gcd(lattice, lattice.volume, (a, b))
    ]
    return "%d,%d" % rng.choice(folds)


def sequences(rng: random.Random) -> list[Op]:
    def built(family: str, arg: str, modulus: int, size: int) -> Op:
        return Op(
            (
                _cmd(f"construct --family {family} {arg}", _sequence(modulus, size)),
                _cmd("verify --kind sidon", _ok, 0),
            )
        )

    power_pairs = Op(
        (
            _cmd(
                f"construct --family power-pairs --q 1024 --alpha {_primitive(rng, 2, 10)}",
                lambda out, _: out["moduli"] == [1023] + [2] * 10 and len(out["elements"]) == 1023,
            ),
            _cmd("verify --kind sidon", _ok, 0),
        )
    )
    return [
        built("bose", "--q 256", 256 * 256 - 1, 256),
        built("bose", "--q 243", 243 * 243 - 1, 243),
        built("singer", "--q 32", 32 * 32 + 32 + 1, 33),
        built("singer", "--q 27", 27 * 27 + 27 + 1, 28),
        power_pairs,
        built("ruzsa", f"--p 1021 --alpha {_primitive(rng, 1021)}", 1021 * 1020, 1020),
    ]


def patterns(rng: random.Random) -> list[Op]:
    def golomb(q: int, p: int, k: int) -> Cmd:
        alpha, beta = _primitive(rng, p, k), _primitive(rng, p, k)
        return _cmd(
            f"construct --family golomb --q {q} --alpha {alpha} --beta {beta}",
            _pattern([[q - 1, 0], [0, q - 1]], q - 2),
        )

    welch_dir = _direction(rng, ((330, 0), (0, 331)))
    bose_dir = _direction(rng, ((63, 0), (0, 65)))
    return [
        Op((golomb(256, 2, 8), _cmd("verify --kind periodic-ddc", _ok, 0))),
        Op((golomb(243, 3, 5),)),
        Op(
            (
                _cmd(
                    f"construct --family welch --p 331 --alpha {_primitive(rng, 331)}",
                    _pattern([[330, 0], [0, 331]], 330),
                ),
                _cmd("verify --kind periodic-ddc", _ok, 0),
                _cmd(f"unfold --direction {welch_dir}", _contains_zero(330 * 331, 330), 0),
                _cmd(f"fold --lattice 330,0;0,331 --direction {welch_dir}", _refolds, 2),
            )
        ),
        Op((_cmd("directions --lattice 30,0;0,31", _directions(240)),)),  # phi(930)
        Op((_cmd("directions --lattice 7,3;0,120", _directions(192)),)),  # phi(840)
        Op(
            (
                _cmd("construct --family bose --q 64", _sequence(4095, 64)),
                _cmd(
                    f"fold --lattice 63,0;0,65 --direction {bose_dir}",
                    _pattern([[63, 0], [0, 65]], 64),
                    0,
                ),
                _cmd(f"unfold --direction {bose_dir}", _unfolds_back, 1),
            )
        ),
    ]


def search(rng: random.Random) -> list[Op]:
    # maxima from the acceptance suite
    maxima = {
        "--max-sidon 7,7": 7,
        "--max-sidon 2,4,6": 5,
        "--max-sidon 57": 8,
        "--max-sidon 48": 7,
        "--max-ddc --lattice 6,0;0,8": 6,
        "--max-ddc --lattice 4,0;0,11": 6,
        "--max-ddc --lattice 6,1;0,8": 7,
    }
    ops = [Op((_cmd(f"search {args}", _maximum(m)),)) for args, m in maxima.items()]
    reports = [
        ("bose --q 5", 5),
        (f"power-pairs --q 5 --alpha {_primitive(rng, 5)}", 4),
        ("singer --q 4", 5),
    ]
    ops += [
        Op((_cmd(f"construct --family {args} --report", _optimal_by_bound(size)),))
        for args, size in reports
    ]
    return ops


WORKLOADS = {"sequences": sequences, "patterns": patterns, "search": search}

# --- passes ---------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float = 0.0  # sum of op latencies
    op_s: list[float] = field(default_factory=list)  # in workload order
    rss_mb: float = 0.0
    failed: int = 0
    outputs: dict[str, str] = field(default_factory=dict)  # label -> stdout
    layers: list[dict] = field(default_factory=list)  # per traced command


def run_pass(
    launcher: Launcher,
    ops: list[Op],
    order: list[int],
    frozen: dict[str, list],
    traced: bool = False,
    expected: dict[str, str] | None = None,
) -> Pass:
    """Run every op once, in the given order.  An op fails, and its later
    commands are skipped, when a command times out, exits non-zero, prints
    output that fails its check, or differs from its frozen digest (or,
    when traced, from the untraced output in `expected`)."""
    result = Pass(op_s=[0.0] * len(ops))
    for i in order:
        op = ops[i]
        outs: list[str] = []
        parsed: list[dict] = []
        for cmd, label in zip(op.cmds, op.labels()):
            stdin = "" if cmd.src is None else outs[cmd.src]
            child = launcher.run((DRIVER if traced else CLI) + cmd.args, stdin)
            result.op_s[i] += child.wall_s
            result.rss_mb = max(result.rss_mb, child.rss_mb)
            ok, out = _judge(cmd, label, child, parsed, frozen, expected)
            if traced:
                result.layers.append(_layers(child, len(stdin)))
            if not ok:
                print(f"FAILED: {label} (exit {child.code}) {child.stderr[-300:]}", file=sys.stderr)
                result.failed += 1
                break
            outs.append(child.stdout)
            parsed.append(out)
            result.outputs[label] = child.stdout
        result.wall_s += result.op_s[i]
    return result


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _judge(
    cmd: Cmd, label: str, child: Child, parsed: list[dict], frozen: dict, expected: dict | None
) -> tuple[bool, dict]:
    if child.code != 0:
        return False, {}
    if label in frozen and frozen[label] != [0, _digest(child.stdout)]:
        return False, {}
    if expected is not None and expected.get(label) != child.stdout:
        return False, {}
    try:
        out = json.loads(child.stdout)
        return bool(cmd.check(out, parsed)), out
    except (ValueError, KeyError, TypeError, IndexError):
        return False, {}


# --- traced layers --------------------------------------------------------------

LAYERS = ("fields", "groups", "sidon", "lattices", "folding", "ddc", "cli")
FUNCTION_SPANS = (
    "fields.make_field",
    "groups.verify_sidon",
    "sidon.max_sidon_size",
    "sidon.check_optimality",
    "folding.folding_directions",
    "ddc.pattern_from_json",
    "ddc.unfold_to_sidon",
    "ddc.fold_sidon_to_ddc",
    "ddc.max_ddc_dots",
    "cli.import",
)
COUNTS = ("fields.order_built", "groups.pairs_compared", "lattices.cells")


def _layers(child: Child, bytes_in: int) -> dict[str, float]:
    """Per-layer self time, per-function time and counts of one traced
    command, from the span record on the last line of the driver's stderr
    (none when the driver failed).  A span's self time is its duration
    minus its children's."""
    try:
        record = json.loads(child.stderr.strip().splitlines()[-1])
        spans = record["spans"]
    except (ValueError, IndexError, KeyError):
        record, spans = {"counts": {}}, []
    # spans are [name, start, end, parent index or -1]
    self_s = [end - start for _, start, end, _ in spans]
    top_s = 0.0
    for name, start, end, parent in spans:
        if parent < 0:
            top_s += end - start
        else:
            self_s[parent] -= end - start
    row = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    row.update({f"{name}_s": 0.0 for name in FUNCTION_SPANS})
    for (name, start, end, _), own in zip(spans, self_s):
        row[name.split(".")[0] + ".self_s"] += own
        if name in FUNCTION_SPANS:
            row[f"{name}_s"] += end - start
    row.update({name: float(record["counts"].get(name, 0)) for name in COUNTS})
    row["cli.bytes_in"] = float(bytes_in)
    row["cli.bytes_out"] = float(len(child.stdout.encode()))
    row["cli.unattributed_s"] = child.wall_s - top_s
    row["trace.pass_s"] = child.wall_s
    return row


# --- metrics --------------------------------------------------------------------


def setup_s(launcher: Launcher, runs: int) -> float:
    """Median wall time of a cold `python -m sidon2d --help`; the first
    call, which writes the bytecode cache, is not counted."""
    times = []
    for _ in range(runs + 1):
        child = launcher.run(CLI + ("--help",))
        if child.code != 0:
            raise SystemExit(f"sidon2d --help failed: {child.stderr}")
        times.append(child.wall_s)
    return statistics.median(times[1:])


def end_to_end(passes: list[Pass], setup: float) -> dict[str, tuple[float, str]]:
    per_op = [statistics.median(times) for times in zip(*(p.op_s for p in passes))]
    return {
        "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
        "op_geomean_s": (math.exp(statistics.fmean(math.log(t) for t in per_op)), "s"),
        "op_max_s": (max(per_op), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "setup_s": (setup, "s"),
    }


PER_LAYER_UNITS = {name: "count" for name in COUNTS} | {"cli.bytes_in": "B", "cli.bytes_out": "B"}


def per_layer(traced: list[Pass], untraced: list[Pass], probe: dict) -> dict[str, tuple[float, str]]:
    """Means over traced passes, so that the layer self times plus
    `cli.unattributed_s` add up to the traced pass time exactly."""
    sums = [{k: math.fsum(row[k] for row in p.layers) for k in p.layers[0]} for p in traced]
    out = {k: (statistics.fmean(s[k] for s in sums), PER_LAYER_UNITS.get(k, "s")) for k in sums[0]}
    out["fields.add_ns"] = (probe["fields.add_ns"], "ns")
    out["fields.pow_ns"] = (probe["fields.pow_ns"], "ns")
    ratio = statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced)
    out["trace.overhead_ratio"] = (ratio, "1")
    return out


def environment(seed: int, load_before: float) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "load1_before": load_before,
        "load1_after": os.getloadavg()[0],
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    """The checked-out commit when there is a git directory, else a digest
    of the program's source files."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


# --- main -----------------------------------------------------------------------


def run_workload(
    launcher: Launcher, name: str, seed: int, seconds: float, trace: bool, frozen: dict
) -> dict:
    """Set up, make passes for about `seconds`, print the metrics, and
    return the result object."""
    load_before = os.getloadavg()[0]
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng)
    setup = setup_s(launcher, 1 if trace else SETUP_RUNS)

    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        lap = time.perf_counter()
        untraced.append(run_pass(launcher, ops, order, frozen))
        if trace:
            traced.append(run_pass(launcher, ops, order, frozen, True, untraced[-1].outputs))
        lap = time.perf_counter() - lap
        if time.perf_counter() - start + lap / 2 > seconds:
            break

    attempted = len(ops) * len(untraced + traced)
    failed = sum(p.failed for p in untraced + traced)
    if trace:
        probe = json.loads(launcher.run(DRIVER + ("--probe",)).stdout)
        metrics = per_layer(traced, untraced, probe)
    else:
        metrics = end_to_end(untraced, setup)

    for metric, (value, unit) in metrics.items():
        print(f"{name:10s} {metric:28s} {value:14.6f} {unit}")
    print(f"{name:10s} {'fail_ratio':28s} {failed / attempted:14.6f} 1 ({failed}/{attempted} ops)")
    if trace:
        parts = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) + metrics["cli.unattributed_s"][0]
        print(f"{name:10s} layer self times + cli.unattributed_s = {parts:.6f} s,"
              f" traced pass = {metrics['trace.pass_s'][0]:.6f} s")
    env = environment(seed, load_before)
    print(json.dumps({"env": env, "workload": name, "passes": len(untraced)}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the launcher is stopped
    if not (SRC / "sidon2d" / "cli.py").is_file():
        print(f"error: no sidon2d sources under {SRC}", file=sys.stderr)
        return 1
    with Launcher() as launcher:
        frozen = json.loads(DIGESTS.read_text())
        sys.path.insert(0, str(SRC))
        for name in [args.workload] if args.workload else list(WORKLOADS):
            result = run_workload(launcher, name, args.seed, args.seconds, bool(args.trace), frozen)
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
