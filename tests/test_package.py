"""Package surface: lazily resolved names and the modules each command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import picturehang

# Modules a command may load only when it needs them.  No command loads
# dataclasses or inspect, which cost more to import than the package does.
WATCHED = (
    "picturehang.circuits",
    "picturehang.compiler",
    "picturehang.gadgets",
    "picturehang.sortnet",
    "picturehang.puzzles",
    "picturehang.render",
    "picturehang.formula",
    "picturehang.verifier",
    "picturehang.spectator",
    "picturehang.constructions",
    "dataclasses",
    "inspect",
)
# The watched modules each command loads; light commands load none.
LOADS = {
    "render": ["picturehang.render"],
    "solve": ["picturehang.spectator"],
    "construct": ["picturehang.constructions"],
    "compile": [
        "picturehang.circuits",
        "picturehang.compiler",
        "picturehang.formula",
        "picturehang.verifier",
        "picturehang.constructions",
    ],
    "verify": ["picturehang.circuits", "picturehang.verifier"],
    "puzzles": ["picturehang.circuits", "picturehang.puzzles"],
}

# Runs each command in-process, then reports which watched modules got loaded.
SCOPE_SCRIPT = """
import contextlib, io, json, sys
from picturehang.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {watched!r} if m in sys.modules]]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "--word", "{word}", "--n", "3"],
        ["render", "--word", "{word}", "--format", "vector"],
        ["table", "--word", "{word}", "--n", "3"],
        ["solve", "min-fell", "--word", "{word}", "--n", "3"],
        ["construct", "one-of", "--n", "4"],
        ["compile", "--formula", "r1 & (r2 | r3)"],
        ["verify", "--word", "{word}", "--spec", "{spec}"],
        ["puzzles"],
    ],
)
def test_light_commands_load_no_heavy_module(argv, tmp_path):
    word = tmp_path / "w.txt"
    word.write_text("x1 x2 x3 X1 X2 X3")
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 3, "threshold_k": 2}')
    script = SCOPE_SCRIPT.format(watched=WATCHED)
    args = [a.format(word=word, spec=spec) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        check=True,
    )
    assert json.loads(proc.stdout) == [0, LOADS.get(argv[0], [])]


@pytest.mark.parametrize("argv", [["--formula", "r1 & $"], ["--spec", "{spec}"]])
def test_a_compile_target_that_fails_to_parse_loads_no_compiler(argv, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 3, "threshold_k": 4}')
    script = SCOPE_SCRIPT.format(watched=WATCHED)
    proc = subprocess.run(
        [sys.executable, "-c", script, "compile", *(a.format(spec=spec) for a in argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        check=True,
    )
    syntax = ["picturehang.formula"] if argv[0] == "--formula" else []  # a spec file needs none
    assert json.loads(proc.stdout) == [2, ["picturehang.circuits", *syntax]]
    assert proc.stderr.startswith("error: ")


def test_a_k_of_n_with_k_out_of_range_loads_no_compiler():
    script = SCOPE_SCRIPT.format(watched=WATCHED)
    proc = subprocess.run(
        [sys.executable, "-c", script, "construct", "k-of", "--k", "6", "--n", "5"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        check=True,
    )
    code, loaded = json.loads(proc.stdout)
    assert code == 2 and "picturehang.compiler" not in loaded, loaded
    assert proc.stderr.startswith("error: ")


def test_words_alone_loads_no_other_package_module():
    script = "import sys, picturehang.words; print(*sorted(m for m in sys.modules if 'picturehang' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        check=True,
    )
    assert proc.stdout.split() == ["picturehang", "picturehang.words"]


# Imports each module of the package, then looks up each public name, each first in a
# fresh package: an import cycle shows only when a module of it is imported first.
FIRST_SCRIPT = """
import importlib, sys
def first(module):
    for name in [m for m in sys.modules if m.split(".")[0] == "picturehang"]:
        del sys.modules[name]
    return importlib.import_module(module)
for module in {modules!r}:
    first(module)
for name in first("picturehang").__all__:
    getattr(first("picturehang"), name)
"""


def test_each_module_and_public_name_loads_first_in_a_fresh_package():
    modules = [f"picturehang.{p.stem}" for p in sorted(Path(picturehang.__file__).parent.glob("*.py"))]
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_SCRIPT.format(modules=modules)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert "picturehang.words" in modules


def test_every_public_name_is_its_home_modules_object():
    for name in picturehang.__all__:
        home = importlib.import_module(f"picturehang.{picturehang._HOME[name]}")
        assert getattr(picturehang, name) is getattr(home, name), name
    assert picturehang.compiler.DEFAULT_LETTER_BUDGET is picturehang.DEFAULT_LETTER_BUDGET
    assert set(picturehang.__all__) <= set(dir(picturehang))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from picturehang import *", namespace)
    assert set(picturehang.__all__) <= set(namespace)
    assert namespace["Word"] is picturehang.words.Word


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        picturehang.no_such_name
    assert not hasattr(picturehang, "_private")
