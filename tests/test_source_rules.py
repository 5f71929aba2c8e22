"""Design rules for the package source, checked on its syntax trees.

- No `assert` statements: `python -O` strips them, so every invariant
  the code relies on at runtime is an explicit check that raises.
- No module imports a private name (one starting with `_`) from another
  sidon2d module: anything shared between modules gets a public name.
- No `int(...)` call outside `numtheory.py`, home of `as_ints`, and
  `cli.py`, which parses argv strings: `int()` truncates floats and
  accepts bools and numeric strings, so outside values are read by
  `as_ints` alone.
- `first_collision`, the dict scan over keyed pairs, is called only by
  `groups.verify_sidon_sums`, the gate's check of the sums, and by
  `SidonSequence.__init__`, for duplicate elements.  Every other
  distinctness check, over sequences and patterns alike, goes through
  the one row kernel `groups.first_repeat`, so no function grows a pair
  walk of its own.
- The names `__init__.py` imports are exactly `__all__` (less
  `__version__`), so removing an export means removing it from both.
- Every exported name has a docstring of its own.
- Every exported name has a user outside the tests: a package module
  other than `__init__.py`, the benchmark scripts in `perfbench/`, or
  the acceptance gates name it.  API that only its own tests call is
  removed, or moved into a test oracle module.  The same holds for
  every public method and property of a package class.
- No module imports `dataclasses`, and importing the CLI loads none of
  `dataclasses`, `inspect` or `typing`: each cold command pays for what
  it imports, and those three cost about as much as the package itself.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sidon2d

SOURCES = sorted(Path(sidon2d.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
INT_READERS = {"numtheory.py", "cli.py"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def calls_to(tree: Path | ast.AST, name: str) -> list[int]:
    """Lines that call `name(...)` or `<anything>.name(...)`."""
    return [
        node.lineno
        for node in ast.walk(parse(tree) if isinstance(tree, Path) else tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) == name
    ]


def callers_of(path: Path, name: str) -> set[str]:
    """The top-level functions and `Class.method`s whose code calls
    `name`; `<body>` names a statement outside any def."""
    callers = set()
    for node in parse(path).body:
        for member in node.body if isinstance(node, ast.ClassDef) else [node]:
            if calls_to(member, name):
                label = getattr(member, "name", "<body>")
                callers.add(label if member is node else f"{node.name}.{label}")
    return callers


def test_the_package_sources_are_found():
    assert {p.name for p in SOURCES} >= {"groups.py", "ddc.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    private = [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "sidon2d")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names: {private}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in INT_READERS], ids=lambda p: p.name
)
def test_no_int_conversions_outside_the_boundary(path):
    lines = calls_to(path, "int")
    assert lines == [], f"{path.name} calls int() on lines {lines}; read values with as_ints"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_collision_scans_outside_groups(path):
    allowed = {"verify_sidon_sums", "SidonSequence.__init__"} if path.name == "groups.py" else set()
    callers = callers_of(path, "first_collision")
    assert callers == allowed, f"{path.name} calls first_collision in {sorted(callers)}; use groups.first_repeat"


def test_the_package_exports_exactly_what_it_imports():
    init = parse(Path(sidon2d.__file__))
    imported = [
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    exported = [name for name in sidon2d.__all__ if name != "__version__"]
    assert sorted(imported) == sorted(exported)
    namespace: dict = {}
    exec("from sidon2d import *", namespace)
    assert set(sidon2d.__all__) <= set(namespace)


@pytest.mark.parametrize("name", [n for n in sidon2d.__all__ if n != "__version__"])
def test_every_export_has_a_docstring(name):
    assert (getattr(sidon2d, name).__doc__ or "").strip(), f"{name} has no docstring"


def names_used(path: Path) -> set[str]:
    """Every name the file reads, reads an attribute of, or imports from a module."""
    used = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def names_used_outside_the_tests() -> set[str]:
    users = [p for p in SOURCES if p.name != "__init__.py"]
    users += sorted((REPO / "perfbench").glob("*.py")) + [REPO / "tests" / "test_acceptance.py"]
    assert len(users) > len(SOURCES)  # the benchmark scripts were found
    return set().union(*map(names_used, users))


def test_every_export_has_a_user_outside_the_tests():
    used = names_used_outside_the_tests()
    unused = [name for name in sidon2d.__all__ if name != "__version__" and name not in used]
    assert unused == [], f"exported, but only the tests use: {unused}"


def test_every_public_method_has_a_user_outside_the_tests():
    used = names_used_outside_the_tests()
    methods = [
        f"{cls.name}.{node.name}"
        for path in SOURCES
        for cls in parse(path).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert len(methods) > 20  # the classes were found
    unused = [name for name in methods if name.split(".")[1] not in used]
    assert unused == [], f"public, but only the tests call: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    lines = [
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert lines == [], f"{path.name} imports dataclasses on lines {lines}"


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    # -S: no site hooks, which may import typing before the package does
    script = (
        "import sidon2d.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    package_root = str(Path(sidon2d.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"
