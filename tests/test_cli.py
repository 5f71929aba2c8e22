"""End-to-end command line checks, run through subprocess, and
in-process where a test counts or forbids library calls."""

import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sidon2d
from sidon2d import GroupSpec, Lattice, Shape, SidonSequence, Tiling, cli, construct_welch, fold_sidon_to_ddc

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


def pattern_json(pattern) -> str:
    """The text the CLI writes for a pattern, built here from its parts."""
    return json.dumps(
        {"lattice": pattern.lattice.rows, "shape": sorted(pattern.shape.points), "dots": sorted(pattern.dots)}
    )


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
    # a sparse modulus: a table over the group would need 10^18 bytes
    proc = run_cli("verify", "--kind", "sidon", stdin='{"modulus": 1000000000000000000, "elements": [0, 1, 2]}')
    assert proc.returncode == 2
    assert proc.stdout == (
        '{"ok": false, "kind": "difference-collision", "difference": 999999999999999999,'
        ' "pair_a": [0, 1], "pair_b": [1, 2]}\n'
    )
    proc = run_cli("verify", "--kind", "sidon", stdin='{"modulus": 1000000000000000000, "elements": [0, 1, 3]}')
    assert (proc.returncode, proc.stdout) == (0, '{"ok": true}\n')


def test_verify_sidon_of_a_large_set_stops_at_its_first_short_row():
    """50,000 consecutive elements repeat a difference on the second row.
    Z_m with m = n(n - 1) cannot hold n Sidon elements at all.  Both
    groups are over 2^21 elements, so the sums of the first two rows go
    to a set, and nothing of the size of the group is built; the child
    runs under a 256 MB address-space limit where the platform has one."""
    try:
        import resource
    except ImportError:  # no rlimits: the output is still checked
        limit = None
    else:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    n = 50_000
    for m in (n * (n - 1), 2 * n * n):
        proc = subprocess.run(
            CLI + ["verify", "--kind", "sidon"],
            input=json.dumps({"modulus": m, "elements": list(range(n))}),
            capture_output=True, text=True, env=ENV, preexec_fn=limit,
        )
        assert proc.returncode == 2, proc.stderr
        assert out_json(proc) == {
            "ok": False,
            "kind": "difference-collision",
            "difference": m - 1,
            "pair_a": [0, 1],
            "pair_b": [1, 2],
        }


def test_verify_of_a_late_collision_names_it_in_bounded_memory():
    """2,000 random elements below 10^17 in Z_(10^18), plus
    s_-1 + s_-2 - s_-3, so that the one repeat comes late.  Both checks
    name it under a 256 MB address-space limit, where the platform has
    one: the witness comes from rows of packed keys, not from a dict
    entry per pair."""
    try:
        import resource
    except ImportError:  # no rlimits: the output is still checked
        limit = None
    else:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    rng = random.Random(0)
    elements = [rng.randrange(10**17) for _ in range(2000)]
    elements.append(elements[-1] + elements[-2] - elements[-3])
    text = json.dumps({"modulus": 10**18, "elements": elements})
    witnesses = {
        "sidon": {
            "kind": "difference-collision",
            "difference": 950343004973425042,
            "pair_a": [25828282799409154, 75485277825984112],
            "pair_b": [53221457703888788, 102878452730463746],
        },
        "weak-sidon": {
            "kind": "sum-collision",
            "total": 128706735529872900,
            "pair_a": [25828282799409154, 102878452730463746],
            "pair_b": [53221457703888788, 75485277825984112],
        },
    }
    for kind, witness in witnesses.items():
        proc = subprocess.run(
            CLI + ["verify", "--kind", kind], input=text, capture_output=True, text=True, env=ENV, preexec_fn=limit
        )
        assert (proc.returncode, proc.stderr) == (2, "")
        assert out_json(proc) == {"ok": False, **witness}


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


# -- the sequence format -------------------------------------------------------


def emitted_and_read_back(seq, tmp_path, capsys):
    cli._emit_sequence(seq)
    text = capsys.readouterr().out
    path = tmp_path / "sequence.json"
    path.write_text(text)
    return text, cli._read_sequence(str(path))


def test_sequence_json_rank_one(tmp_path, capsys):
    s = SidonSequence.from_ints(42, [0, 8, 10])
    text, read = emitted_and_read_back(s, tmp_path, capsys)
    assert text == '{"modulus": 42, "elements": [0, 8, 10]}\n'
    assert read == s


def test_sequence_json_multi_rank(tmp_path, capsys):
    s = SidonSequence(GroupSpec((6, 7)), [(0, 0), (1, 3)])
    text, read = emitted_and_read_back(s, tmp_path, capsys)
    assert text == '{"moduli": [6, 7], "elements": [[0, 0], [1, 3]]}\n'
    assert read == s


def test_sequence_json_rejects_garbage(tmp_path):
    path = tmp_path / "sequence.json"
    path.write_text('{"elements": [0, 1]}')
    with pytest.raises(ValueError, match="^sequence JSON needs a 'modulus' or 'moduli' key$"):
        cli._read_sequence(str(path))
    path.write_text('{"modulus": 7}')
    with pytest.raises(ValueError, match="^sequence JSON is missing the 'elements' key$"):
        cli._read_sequence(str(path))


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


def test_the_line_families_at_their_largest_fields_build_in_bounded_memory():
    """Bose q = 1024 lives in GF(2^20) and Singer q = 101 in GF(101^3),
    each of about 2^20 elements.  With the exp table at 4 bytes an entry,
    no log table and the line's logs read off by marking, both fit under
    a 64 MB address-space limit where the platform has one; two lists of
    Python ints, one entry per element, took about 90 MB."""
    try:
        import resource
    except ImportError:  # no rlimits: the output is still checked
        limit = None
    else:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))

    for family, q in (("bose", "1024"), ("singer", "101")):
        argv = ["construct", "--family", family, "--q", q]
        proc = subprocess.run(CLI + argv, capture_output=True, text=True, env=ENV, preexec_fn=limit)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli(*argv).stdout


def test_a_pattern_at_the_cell_cap_is_read_in_bounded_memory():
    """The Bose q = 1024 sequence folded onto 1023,0;0,1025 is a box
    pattern of 2^20 - 1 cells in 12 MB of JSON.  Read as the CLI wrote
    it, its shape costs no object per cell, so checking and unfolding it
    fit under a 128 MB address-space limit where the platform has one;
    a list per cell alone would take about 100 MB."""
    try:
        import resource
    except ImportError:  # no rlimits: the output is still checked
        limit = None
    else:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    sequence = run_cli("construct", "--family", "bose", "--q", "1024").stdout
    pattern = run_cli("fold", "--lattice", "1023,0;0,1025", "--direction", "1,1", stdin=sequence).stdout
    outputs = []
    for argv in (["verify", "--kind", "periodic-ddc"], ["unfold", "--direction", "1,1"]):
        proc = subprocess.run(
            CLI + argv, input=pattern, capture_output=True, text=True, env=ENV, preexec_fn=limit
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(out_json(proc))
    assert outputs[0] == {"ok": True}
    # unfolding puts the lower-left dot at 0: the sequence comes back translated
    m, elements = 1023 * 1025, json.loads(sequence)["elements"]
    assert outputs[1]["modulus"] == m
    assert any(sorted((e - s) % m for e in elements) == outputs[1]["elements"] for s in elements)


def test_a_shifted_box_at_the_cell_cap_is_checked_in_bounded_memory():
    """The same box pattern moved by (-1, -1), so that its box is a
    translate of the fundamental rectangle [0, 1023) x [0, 1025), not the
    rectangle itself.  Each point reduces into it by the closed form, so
    the check builds no cell and no table of the 2^20 - 1 cells, and it
    fits under the same 128 MB address-space limit."""
    try:
        import resource
    except ImportError:  # no rlimits: the output is still checked
        limit = None
    else:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    sequence = run_cli("construct", "--family", "bose", "--q", "1024").stdout
    pattern = run_cli("fold", "--lattice", "1023,0;0,1025", "--direction", "1,1", stdin=sequence).stdout
    dots = json.loads(pattern[pattern.index('"dots": ') + 8 : pattern.rindex("}")])
    shifted = json.dumps([[x - 1, y - 1] for x, y in dots])
    del pattern
    box = cli._shape_json(Shape._of_box((-1, -1, 1021, 1023)))
    text = f'{{"lattice": [[1023, 0], [0, 1025]], "shape": {box}, "dots": {shifted}}}'
    proc = subprocess.run(
        CLI + ["verify", "--kind", "periodic-ddc"], input=text, capture_output=True, text=True, env=ENV,
        preexec_fn=limit,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", '{"ok": true}\n')


def test_a_box_with_one_cell_moved_at_the_cell_cap_is_read_in_bounded_memory():
    """The same box pattern with its last shape cell (1022, 1024) moved to
    (-1, 1024), a cell of the same coset: still a transversal, but no box,
    so the shape is read as JSON and every cell is reduced.  The tiling
    keeps one list slot per cell, no key -> cell table, so checking,
    unfolding and listing directions each fit under a 384 MB
    address-space limit (about 300 MB at peak, 2-vCPU Xeon); a table of
    the 2^20 - 1 keys took some 440 MB."""
    try:
        import resource
    except ImportError:  # no rlimits: the output is still checked
        limit = None
    else:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (384 << 20, 384 << 20))

    sequence = run_cli("construct", "--family", "bose", "--q", "1024").stdout
    pattern = run_cli("fold", "--lattice", "1023,0;0,1025", "--direction", "1,1", stdin=sequence).stdout
    dots = json.loads(pattern[pattern.index('"dots": ') + 8 : pattern.rindex("}")])
    assert pattern.count("[1022, 1024]]") == 1 and [1022, 1024] not in dots
    moved = pattern.replace("[1022, 1024]]", "[-1, 1024]]", 1)
    del pattern
    outputs = []
    for argv in (["verify", "--kind", "periodic-ddc"], ["unfold", "--direction", "1,1"], ["directions"]):
        proc = subprocess.run(CLI + argv, input=moved, capture_output=True, text=True, env=ENV, preexec_fn=limit)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(out_json(proc))
    assert outputs[0] == {"ok": True}
    m, elements = 1023 * 1025, json.loads(sequence)["elements"]
    assert outputs[1]["modulus"] == m
    assert any(sorted((e - s) % m for e in elements) == outputs[1]["elements"] for s in elements)
    assert outputs[2]["count"] == 480_000  # phi(1023 * 1025)


def test_pattern_output_is_the_json_of_the_pattern(capsys, monkeypatch):
    # a box written as text and any other shape through json.dumps
    bose5 = sidon2d.construct_bose(5)
    sequence = '{"modulus": 24, "elements": [1, 10, 14, 15, 17]}'
    moved = [[-1, 1] if cell == (7, 0) else list(cell) for cell in sorted(Shape.rectangle(8, 3).points)]
    for option, shape in [(None, None), ("8x3", Shape.rectangle(8, 3)), (json.dumps(moved), Shape(moved))]:
        argv = ["fold", "--lattice", "8,2;0,3", "--direction", "1,0"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(sequence))
        assert cli.main(argv + ([] if option is None else ["--shape", option])) == 0
        out = capsys.readouterr().out
        pattern = fold_sidon_to_ddc(bose5, Lattice(((8, 2), (0, 3))), shape, (1, 0))
        assert out == pattern_json(pattern) + "\n"


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


def test_a_shape_of_far_apart_cells_is_not_rendered(monkeypatch, capsys):
    # two cells 10^9 apart tile with a lattice of volume 2, and verify
    # accepts the pattern; its bounding box is over the render cap
    stdin = '{"lattice": [[2, 0], [0, 1]], "shape": [[0, 0], [1000000001, 0]], "dots": [[0, 0]]}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(["verify", "--kind", "periodic-ddc"]) == 0
    assert capsys.readouterr() == ('{"ok": true}\n', "")
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    start = time.perf_counter()
    assert cli.main(["render"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", "error: bounding box 1000000002x1 is over the 4194304-cell render cap\n"
    )


# -- harness behaviour ----------------------------------------------------------------


def test_exit_codes_for_usage_errors():
    """Exit 1 and one `error:` line, no usage block: argparse's own errors
    read like every other input error."""
    for argv in (
        [],
        ["nonsense"],
        ["construct"],  # missing --family
        ["construct", "--q", "abc"],
        ["construct", "--family", "nope", "--q", "3"],
        ["verify", "--kind", "sidon", "--extra"],
        ["search", "--max-sidon", "7", "--max-ddc"],
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == "", argv
        assert proc.stderr.startswith("error: "), argv
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


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


P19 = "1000000000000000003"  # prime, and trial division of it takes minutes


@pytest.mark.parametrize(
    "family, size, value, message",
    [
        ("welch", "--p", P19, f"field order {P19} exceeds limit 1048576"),
        ("ruzsa", "--p", P19, f"field order {P19} exceeds limit 1048576"),
        ("bose", "--q", P19, f"field order {int(P19) ** 2} exceeds limit 1048576"),
        ("singer", "--q", P19, f"field order {int(P19) ** 3} exceeds limit 1048576"),
        ("golomb", "--q", P19, f"field order {P19} exceeds limit 1048576"),
        ("power-pairs", "--q", P19, f"field order {P19} exceeds limit 1048576"),
        # GF(1000003) and GF(2^20) are within the order limit, but take seconds to build
        ("welch", "--p", "1000003", "rectangle 1000002x1000003 is over the 1048576-cell cap"),
        ("golomb", "--q", "1048576", "rectangle 1048575x1048575 is over the 1048576-cell cap"),
    ],
)
def test_a_construction_over_its_cap_is_refused_before_any_prime_test(family, size, value, message, capsys):
    """Each family compares the sizes it would build with their caps
    before it tests its parameter for primality or builds a field."""
    start = time.perf_counter()
    assert cli.main(["construct", "--family", family, size, value]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: {message}\n")


WELCH7_JSON = pattern_json(construct_welch(7, 3))
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
