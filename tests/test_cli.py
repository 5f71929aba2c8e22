"""End-to-end command line checks, run through subprocess, and
in-process where a test counts or forbids library calls."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sidon2d
from sidon2d import Shape, Tiling, cli, construct_welch, pattern_to_json

CLI = [sys.executable, "-m", "sidon2d"]
# The children run the package these tests import, whether it is
# installed or only on pytest's path.
PACKAGE_ROOT = str(Path(sidon2d.__file__).resolve().parents[1])
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, env=ENV
    )


def out_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout)


# -- construct --------------------------------------------------------------


def test_construct_sequence_family():
    proc = run_cli("construct", "--family", "bose", "--q", "3")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert out_json(proc) == {"modulus": 8, "elements": [1, 6, 7]}


def test_construct_pattern_family():
    proc = run_cli("construct", "--family", "welch", "--p", "3")
    assert proc.returncode == 0
    assert out_json(proc) == {
        "lattice": [[2, 0], [0, 3]],
        "shape": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
        "dots": [[0, 1], [1, 2]],
    }


def test_construct_multi_rank_sequence():
    proc = run_cli("construct", "--family", "power-pairs", "--q", "4")
    assert out_json(proc) == {
        "moduli": [3, 2, 2],
        "elements": [[0, 1, 0], [1, 0, 1], [2, 1, 1]],
    }


def test_construct_with_optimality_report():
    proc = run_cli("construct", "--family", "bose", "--q", "3", "--report")
    data = out_json(proc)
    assert data["sequence"] == {"modulus": 8, "elements": [1, 6, 7]}
    assert data["optimality"]["verdict"] == "optimal-by-bound"
    assert data["optimality"]["brute_force_max"] == 3


def test_construct_ascii_rendering():
    proc = run_cli("construct", "--family", "golomb", "--q", "4", "--format", "ascii")
    assert proc.returncode == 0
    assert proc.stdout == ".•.\n..•\n...\n"


@pytest.mark.parametrize(
    "args,kind",
    [
        (("--family", "bose", "--q", "4"), "sidon"),
        (("--family", "singer", "--q", "3"), "sidon"),
        (("--family", "ruzsa", "--p", "5"), "sidon"),
        (("--family", "power-pairs", "--q", "5"), "sidon"),
        (("--family", "welch", "--p", "5"), "periodic-ddc"),
        (("--family", "golomb", "--q", "5"), "periodic-ddc"),
    ],
)
def test_every_family_passes_its_own_verification(args, kind):
    built = run_cli("construct", *args)
    assert built.returncode == 0
    checked = run_cli("verify", "--kind", kind, stdin=built.stdout)
    assert checked.returncode == 0
    assert out_json(checked) == {"ok": True}


def test_construct_parameter_validation():
    proc = run_cli("construct", "--family", "welch", "--q", "7")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "--family welch requires --p" in proc.stderr
    proc = run_cli("construct", "--family", "bose", "--q", "3", "--alpha", "2")
    assert proc.returncode == 1
    assert "does not take --alpha" in proc.stderr
    proc = run_cli("construct", "--family", "bose", "--q", "3", "--format", "ascii")
    assert proc.returncode == 1
    assert "only pattern families" in proc.stderr
    # one error per call, the first of: size option, --beta, --alpha, --report
    for argv, message in [
        (["--family", "ruzsa", "--p", "7", "--beta", "3"], "--beta only applies to --family golomb"),
        (["--family", "welch", "--p", "7", "--report"], "--report only applies to sequence families"),
        (["--family", "bose"], "--family bose requires --q"),
        (["--family", "bose", "--beta", "2"], "--family bose requires --q"),
        (["--family", "singer", "--q", "3", "--alpha", "2", "--beta", "2"], "--beta only applies"),
        (["--family", "welch", "--p", "7", "--beta", "3", "--report"], "--beta only applies"),
    ]:
        proc = run_cli("construct", *argv)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"error: {message}")
        assert len(proc.stderr.splitlines()) == 1


# -- verify -------------------------------------------------------------------


def test_verify_reports_difference_collision_with_exit_2():
    proc = run_cli("verify", "--kind", "sidon", stdin='{"modulus": 6, "elements": [0, 1, 3]}')
    assert proc.returncode == 2
    assert out_json(proc) == {
        "ok": False,
        "kind": "difference-collision",
        "difference": 3,
        "pair_a": [0, 3],
        "pair_b": [3, 0],
    }


def test_verify_weak_sidon_both_ways():
    ok = run_cli("verify", "--kind", "weak-sidon", stdin='{"modulus": 8, "elements": [0, 1, 2]}')
    assert ok.returncode == 0
    bad = run_cli("verify", "--kind", "weak-sidon", stdin='{"modulus": 8, "elements": [0, 1, 2, 3]}')
    assert bad.returncode == 2
    assert out_json(bad) == {
        "ok": False,
        "kind": "sum-collision",
        "total": 3,
        "pair_a": [0, 3],
        "pair_b": [1, 2],
    }


def test_verify_plain_ddc_kind():
    bad = run_cli("verify", "--kind", "ddc", stdin='{"dots": [[0,0],[1,0],[2,0]]}')
    assert bad.returncode == 2
    assert bad.stdout == (
        '{"ok": false, "kind": "segment-collision", "difference": [-1, 0],'
        ' "pair_a": [[0, 0], [1, 0]], "pair_b": [[1, 0], [2, 0]]}\n'
    )
    ok = run_cli("verify", "--kind", "ddc", stdin='{"dots": [[0,0],[1,2]]}')
    assert ok.returncode == 0
    missing = run_cli("verify", "--kind", "ddc", stdin='{"modulus": 6, "elements": [0]}')
    assert missing.returncode == 1
    assert "dots" in missing.stderr


def test_verify_periodic_ddc_collision():
    pattern = '{"lattice": [[2,0],[0,2]], "shape": [[0,0],[0,1],[1,0],[1,1]], "dots": [[0,0],[1,1]]}'
    proc = run_cli("verify", "--kind", "periodic-ddc", stdin=pattern)
    assert proc.returncode == 2
    assert proc.stdout == (
        '{"ok": false, "kind": "segment-collision", "difference": [1, 1],'
        ' "pair_a": [[0, 0], [1, 1]], "pair_b": [[1, 1], [0, 0]]}\n'
    )


def test_verify_reads_input_file(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text('{"modulus": 42, "elements": [0, 8, 10, 11, 33, 37]}')
    proc = run_cli("verify", "--kind", "sidon", "--input", str(path))
    assert proc.returncode == 0
    assert out_json(proc) == {"ok": True}


# -- fold / unfold / directions ---------------------------------------------------


def test_unfold_pipeline_reproduces_the_known_sequence():
    built = run_cli("construct", "--family", "welch", "--p", "7", "--alpha", "3")
    unfolded = run_cli("unfold", "--direction", "1,1", stdin=built.stdout)
    assert unfolded.returncode == 0
    assert out_json(unfolded) == {"modulus": 42, "elements": [0, 8, 10, 11, 33, 37]}


def test_unfold_with_explicit_anchor():
    built = run_cli("construct", "--family", "welch", "--p", "7", "--alpha", "3")
    unfolded = run_cli("unfold", "--direction", "1,1", "--anchor", "0,1", stdin=built.stdout)
    assert out_json(unfolded) == {"modulus": 42, "elements": [0, 8, 10, 11, 33, 37]}
    not_a_dot = run_cli("unfold", "--direction", "1,1", "--anchor", "0,0", stdin=built.stdout)
    assert not_a_dot.returncode == 1
    assert "anchor" in not_a_dot.stderr


def test_fold_then_unfold_round_trip():
    seq = '{"modulus": 8, "elements": [1, 6, 7]}'
    folded = run_cli("fold", "--lattice", "2,1;0,4", "--direction", "1,1", stdin=seq)
    assert folded.returncode == 0
    assert out_json(folded)["dots"] == [[0, 3], [1, 0], [1, 1]]
    unfolded = run_cli("unfold", "--direction", "1,1", stdin=folded.stdout)
    assert unfolded.returncode == 0
    back = run_cli("verify", "--kind", "sidon", stdin=unfolded.stdout)
    assert back.returncode == 0
    assert out_json(unfolded)["modulus"] == 8


def test_fold_accepts_both_shape_spellings():
    seq = '{"modulus": 8, "elements": [1, 6, 7]}'
    default = run_cli("fold", "--lattice", "2,1;0,4", "--direction", "1,1", stdin=seq)
    explicit = run_cli("fold", "--lattice", "2,1;0,4", "--shape", "2x4", "--direction", "1,1", stdin=seq)
    assert default.stdout == explicit.stdout
    tromino = run_cli(
        "fold", "--lattice", "1,1;-1,2", "--shape", "[[0,0],[1,0],[0,1]]",
        "--direction", "0,1", stdin='{"modulus": 3, "elements": [0, 1]}',
    )
    assert tromino.returncode == 0
    assert out_json(tromino)["dots"] == [[0, 0], [0, 1]]


def test_fold_rejects_non_folding_direction():
    proc = run_cli(
        "fold", "--lattice", "6,0;0,7", "--direction", "1,0",
        stdin='{"modulus": 42, "elements": [0, 1]}',
    )
    assert proc.returncode == 1
    assert "does not define a folding" in proc.stderr


def test_fold_builds_one_tiling(monkeypatch, capsys):
    built = []
    real_init = Tiling.__init__

    def counted_init(self, lattice, shape):
        built.append(lattice.rows)
        real_init(self, lattice, shape)

    monkeypatch.setattr(Tiling, "__init__", counted_init)
    sequence = '{"modulus": 42, "elements": [0, 8, 10, 11, 33, 37]}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(sequence))
    assert cli.main(["fold", "--lattice", "6,0;0,7", "--direction", "1,1"]) == 0
    dots = json.loads(capsys.readouterr().out)["dots"]
    assert dots == [[0, 0], [1, 2], [2, 1], [3, 5], [4, 3], [5, 4]]  # t at (t mod 6, t mod 7)
    assert built == [((6, 0), (0, 7))]


def test_the_welch_chain_never_builds_box_cells(monkeypatch, capsys):
    # construct, verify, unfold and fold the Welch p = 331 pattern in
    # process, its JSON going from one command to the next: a box shape
    # answers from its bounds, so none of its 109,230 cells is built
    real_points = Shape.points

    def guarded(shape):
        if shape._box is not None:
            raise AssertionError("the cells of a box shape were built")
        return real_points.fget(shape)

    monkeypatch.setattr(Shape, "points", property(guarded))

    def run(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        return out

    welch = run(["construct", "--family", "welch", "--p", "331"])
    assert run(["verify", "--kind", "periodic-ddc"], welch) == '{"ok": true}\n'
    sequence = run(["unfold", "--direction", "1,1"], welch)
    assert len(json.loads(sequence)["elements"]) == 330
    folded = run(["fold", "--lattice", "330,0;0,331", "--direction", "1,1"], sequence)
    assert run(["verify", "--kind", "periodic-ddc"], folded) == '{"ok": true}\n'
    assert json.loads(folded)["shape"] == json.loads(welch)["shape"]
    assert run(["unfold", "--direction", "1,1"], folded) == sequence


def test_pattern_output_is_the_json_of_the_pattern(capsys, monkeypatch):
    # a box written as text and any other shape through json.dumps
    sequence = json.dumps(sidon2d.sequence_to_json(sidon2d.construct_bose(5)))
    moved = [[-1, 1] if cell == [7, 0] else cell for cell in Shape.rectangle(8, 3).to_json()]
    for shape in [None, "8x3", json.dumps(moved)]:
        argv = ["fold", "--lattice", "8,2;0,3", "--direction", "1,0"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(sequence))
        assert cli.main(argv + ([] if shape is None else ["--shape", shape])) == 0
        out = capsys.readouterr().out
        pattern = sidon2d.pattern_from_json(json.loads(out))
        assert out == json.dumps(pattern_to_json(pattern)) + "\n"


def test_directions_of_the_welch_lattice():
    proc = run_cli("directions", "--lattice", "6,0;0,7")
    assert out_json(proc) == {
        "count": 12,
        "directions": [
            [1, 1], [1, 2], [1, 3], [1, 4], [1, 5], [1, 6],
            [5, 1], [5, 2], [5, 3], [5, 4], [5, 5], [5, 6],
        ],
    }


def test_directions_from_a_pattern_on_stdin():
    built = run_cli("construct", "--family", "golomb", "--q", "4")
    proc = run_cli("directions", stdin=built.stdout)
    assert out_json(proc) == {"count": 0, "directions": []}  # 3x3 square


# -- search and render ---------------------------------------------------------------


def test_search_max_sidon():
    proc = run_cli("search", "--max-sidon", "7")
    assert out_json(proc) == {"max": 3, "witness": [0, 1, 3]}
    multi = run_cli("search", "--max-sidon", "2,2")
    assert out_json(multi) == {"max": 1, "witness": [[0, 0]]}


def test_search_max_ddc():
    proc = run_cli("search", "--max-ddc", "--lattice", "2,1;0,4")
    assert out_json(proc) == {"max": 3, "witness": [[0, 0], [0, 1], [1, 0]]}


def test_render_matches_construct_ascii(tmp_path):
    built = run_cli("construct", "--family", "welch", "--p", "3")
    rendered = run_cli("render", stdin=built.stdout)
    assert rendered.stdout == ".•\n•.\n..\n"
    path = tmp_path / "pattern.json"
    path.write_text(built.stdout)
    from_file = run_cli("render", "--input", str(path))
    assert from_file.stdout == rendered.stdout


# -- harness behaviour ----------------------------------------------------------------


def test_exit_codes_for_usage_errors():
    assert run_cli().returncode == 1
    assert run_cli("nonsense").returncode == 1
    assert run_cli("construct").returncode == 1  # missing --family


def test_malformed_json_is_a_clean_error():
    proc = run_cli("verify", "--kind", "sidon", stdin="not json")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("text", ["[[0,0],[1,0]", "[" * 100_000], ids=["unclosed", "deep"])
def test_malformed_json_shape_names_the_option(text):
    proc = run_cli("directions", "--lattice", "2,0;0,1", "--shape", text)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: malformed shape: expected 'WxH' or a JSON point list, got {text!r}"
    ]


def test_deeply_nested_json_input_is_a_clean_error():
    proc = run_cli("verify", "--kind", "sidon", stdin="[" * 100_000)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: malformed JSON input:")


@pytest.mark.parametrize(
    "kind,text",
    [
        ("sidon", '{"modulus":6,"elements":5}'),
        ("sidon", '{"modulus":6,"elements":[[1,2]]}'),
        ("periodic-ddc", '{"lattice":[[2,0],[0,2]],"shape":5,"dots":[]}'),
        ("periodic-ddc", '{"lattice":[2,0],"shape":[[0,0]],"dots":[]}'),
        ("ddc", '{"dots":5}'),
    ],
)
def test_wrongly_nested_json_is_a_clean_error(kind, text):
    proc = run_cli("verify", "--kind", kind, stdin=text)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: malformed")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("shape", ["5", "[1,2]"])
@pytest.mark.parametrize(
    "command",
    [
        ["directions", "--lattice", "2,1;0,4"],
        ["search", "--max-ddc", "--lattice", "2,1;0,4"],
        ["fold", "--lattice", "2,1;0,4", "--direction", "1,1"],
    ],
)
def test_wrongly_nested_shape_is_a_clean_error(command, shape):
    proc = run_cli(*command, "--shape", shape, stdin='{"modulus": 8, "elements": [1, 6, 7]}')
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: malformed shape")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["directions"],
        ["fold", "--direction", "1,1"],
        ["search", "--max-ddc"],
    ],
)
def test_a_rectangle_of_the_wrong_size_is_refused_before_it_is_built(command, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the rectangle was built")

    monkeypatch.setattr(Shape, "rectangle", refuse)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"modulus": 2, "elements": [0]}'))
    assert cli.main([*command, "--lattice", "2,0;0,1", "--shape", "1000x1000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: shape of size 1000000 does not tile with lattice ((2, 0), (0, 1)) (volume 2)\n"
    )


def test_a_mismatched_fold_builds_no_cell(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the rectangle was built")

    monkeypatch.setattr(Shape, "rectangle", refuse)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"modulus": 20, "elements": [0, 1, 3]}'))
    assert cli.main(["fold", "--lattice", "1000,0;0,1001", "--direction", "1,1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: sequence group (20,) does not match shape size 1001000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["directions", "--lattice", "1024,0;0,1025"],
        ["directions", "--lattice", "1,0;0,1048577", "--shape", "1048577x1"],
        ["fold", "--lattice", "1024,0;0,1025", "--direction", "1,1"],
    ],
)
def test_a_rectangle_over_the_cell_cap_is_refused_fast(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"modulus": 1049600, "elements": [0]}'))
    start = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: rectangle ") and err.endswith(" is over the 1048576-cell cap\n")
    assert len(err.splitlines()) == 1


WELCH7_JSON = json.dumps(pattern_to_json(construct_welch(7, 3)))
Z42_SIDON = '{"modulus": 42, "elements": [0, 8, 10, 11, 33, 37]}'


@pytest.mark.parametrize(
    "argv, stdin, code",
    [
        (["directions", "--lattice", "-1,1;1,1"], "", 0),
        (["fold", "--lattice", "6,0;0,7", "--direction", "-1,1"], Z42_SIDON, 0),
        (["unfold", "--direction", "1,1", "--anchor", "-1,0"], WELCH7_JSON, 1),
        (["directions", "--lattice", "2,0;0,3", "--shape", "-2x3"], "", 1),
        (["directions", "--lattice", "2,0;0,3", "--shape", "-x3"], "", 1),
        (["search", "--max-sidon", "-7,3"], "", 1),
    ],
    ids=["lattice", "direction", "anchor", "shape", "shape-no-digit", "max-sidon"],
)
def test_a_value_with_a_leading_dash_reads_the_same_in_both_spellings(
    argv, stdin, code, monkeypatch, capsys
):
    runs = []
    for spelling in (argv, argv[:-2] + [f"{argv[-2]}={argv[-1]}"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        runs.append((cli.main(spelling), *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    assert len(runs[0][2].splitlines()) == code  # one error line on exit 1


@pytest.mark.parametrize("shape", ["0x2", "-1x-2", "-2x3"])
def test_rectangle_sides_are_checked_before_the_size(shape):
    proc = run_cli("directions", "--lattice", "2,0;0,1", f"--shape={shape}")
    assert proc.returncode == 1
    assert proc.stderr == f"error: rectangle sides must be positive, got {shape}\n"


def test_missing_input_file_is_a_clean_error():
    proc = run_cli("verify", "--kind", "sidon", "--input", "/nonexistent.json")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_seed_flag_is_rejected():
    proc = run_cli("--seed", "9", "search", "--max-sidon", "7")
    assert proc.returncode == 1
    assert proc.stdout == ""
