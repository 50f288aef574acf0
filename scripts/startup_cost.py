"""Start-up cost of each kind of CLI command: the package code it compiles, and its wall time.

Runs a fixed list of ``picturehang`` commands, one of each kind that
perfbench's cli-mix workload runs, as subprocesses under
``PYTHONDONTWRITEBYTECODE=1``, so that each compiles the package modules it
imports from source, as it does on a host that keeps no bytecode cache.
Each round runs every command once, each just after the reference command
cli-mix scales start-up by (``python -c "import argparse, dataclasses,
json, typing"``), which shares the interpreter's start-up and none of the
package's code.

For each command it prints the package modules it loads (found by running
it once in-process in a fresh interpreter), the AST nodes of their source,
which is what compiling them costs, and the median wall time of
``--repeat`` runs beside the median of the reference runs made next to it
and their difference.  A first table gives each module's AST nodes.

    python scripts/startup_cost.py --repeat 20
    python scripts/startup_cost.py --src path/to/other/checkout/src

The commands read small files written to a temporary directory: a 3-nail
word and its 1-of-3 spec, and a seeded 1,000-letter word for ``render``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REFERENCE = ["-c", "import argparse, dataclasses, json, typing"]
COMMANDS = [  # (kind, argv, expected exit code); {dir} is the directory of the input files
    ("table", ["table", "--word", "{dir}/w.txt", "--n", "3"], 0),
    ("render text", ["render", "--word", "{dir}/r.txt", "--n", "5"], 0),
    ("render vector", ["render", "--word", "{dir}/r.txt", "--n", "5", "--format", "vector"], 0),
    ("verify", ["verify", "--word", "{dir}/w.txt", "--spec", "{dir}/s.json"], 0),
    ("puzzles", ["puzzles"], 0),
    ("puzzle-id", ["puzzles", "--id", "3", "--json"], 0),
    ("solve min-fell", ["solve", "min-fell", "--word", "{dir}/w.txt", "--n", "3", "--json"], 0),
    ("construct one-of", ["construct", "one-of", "--n", "5"], 0),
    ("compile", ["compile", "--formula", "(r1 | r2) & r3", "--n", "3"], 0),
    ("bad formula", ["compile", "--formula", "r1 $ r2"], 2),
]
# Runs one command in-process, then prints its exit code and the package modules loaded.
LOADED = """
import contextlib, io, json, sys
from picturehang.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "picturehang")]))
"""


def module_nodes(src: Path) -> dict[str, int]:
    """AST nodes of each module of the package under ``src``, by dotted name."""
    nodes = {}
    for path in sorted((src / "picturehang").glob("*.py")):
        name = "picturehang" if path.stem == "__init__" else f"picturehang.{path.stem}"
        nodes[name] = sum(1 for _ in ast.walk(ast.parse(path.read_text())))
    return nodes


def write_inputs(folder: Path) -> None:
    (folder / "w.txt").write_text("x1 x2 X1 X2 x3 x2 x1 X2 X1 X3\n")  # [[x1, x2], x3]: 1-of-3
    (folder / "s.json").write_text(json.dumps({"n": 3, "threshold_k": 1}))
    rng = random.Random(1)
    letters = [rng.choice("xX") + str(rng.randint(1, 5)) for _ in range(1000)]
    (folder / "r.txt").write_text(" ".join(letters) + "\n")


def wall(argv: list[str], env: dict, folder: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, cwd=folder, capture_output=True, check=False)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeat", type=int, default=20, help="timed runs of each command")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args()
    src = args.src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    nodes = module_nodes(src)
    print(f"{'module':<28} {'nodes':>6}")
    for name, count in nodes.items():
        print(f"{name:<28} {count:>6}")
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        write_inputs(folder)
        commands = [(kind, [a.format(dir=tmp) for a in argv], code) for kind, argv, code in COMMANDS]
        loads = {}
        for kind, argv, code in commands:
            proc = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env, cwd=folder,
                                  capture_output=True, text=True, check=True)
            got, loads[kind] = json.loads(proc.stdout)
            if got != code:
                raise SystemExit(f"{kind}: exit code {got}, expected {code}")
        times = {kind: ([], []) for kind, _, _ in commands}
        for _ in range(args.repeat):
            for kind, argv, _ in commands:
                times[kind][1].append(wall(REFERENCE, env, folder))
                times[kind][0].append(wall(["-m", "picturehang.cli", *argv], env, folder))
    print()
    print(f"{'command':<18} {'nodes':>6} {'ms':>7} {'ref ms':>7} {'diff':>6}  modules")
    for kind, _, _ in commands:
        ms, ref = (1000 * statistics.median(t) for t in times[kind])
        names = " ".join(m.removeprefix("picturehang.") for m in loads[kind] if m != "picturehang")
        total = sum(nodes[m] for m in loads[kind])
        print(f"{kind:<18} {total:>6} {ms:>7.1f} {ref:>7.1f} {ms - ref:>6.1f}  {names}")


if __name__ == "__main__":
    main()
