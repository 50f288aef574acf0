"""The benchmark's three workloads.

Each workload makes its inputs from the seed, runs one operation at a time
(a closed loop with one client), and checks every distinct outcome against
``oracle`` outside the timed region.  ``run`` is the timed operation;
``run_traced`` makes the same calls split into one span per layer, called
from here rather than from inside the package.

Outcome statuses: ``ok``; a documented defect of the package (``refused``
over the letter budget, ``anchor-misfire`` of the gadgets' anchor nails,
``deep-nesting-traceback`` in the CLI); or ``wrong``, an answer that no
documented defect explains.  Only ``ok`` counts toward the ok ratio, and
any ``wrong`` makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import oracle

BUDGET_LETTERS = 10**7  # letters charged to a refused or mismatching spec
OK = "ok"
WRONG = "wrong"


@dataclass(frozen=True)
class Op:
    key: str
    args: tuple


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _fixture_table(fx) -> list[bool]:
    """Reference table of a golden fixture, from its spec body alone."""
    spec = fx.spec
    if spec.threshold_k is not None:
        return oracle.threshold_table(spec.n, spec.threshold_k)
    return oracle.subsets_table(spec.n, spec.subsets)


def _table_status(table: list[bool], ref: list[bool]) -> str:
    bad = [m for m, (got, want) in enumerate(zip(table, ref)) if got != want]
    if not bad:
        return OK
    return "anchor-misfire" if all(m & oracle.ANCHORS for m in bad) else WRONG


# --- compile-verify ---------------------------------------------------------


class CompileVerify:
    """Every k-of-n threshold for 2 <= n <= 6, compiled and verified by default.

    Verification (the per-subset fall table) does most of the work.  The
    grid keeps the (3,4) anchor mismatch and the over-budget refusals for
    n = 5 and 6 in view.
    """

    name = "compile-verify"
    GRID = [(k, n) for n in range(2, 7) for k in range(1, n + 1)]

    def __init__(self, ph, seed: int, root: Path, work: Path) -> None:
        self.ph = ph
        self.rng = random.Random(seed)
        self.ops = [Op(f"{k}-of-{n}", (k, n)) for k, n in self.GRID]

    def pass_ops(self) -> list[Op]:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        k, n = op.args
        try:
            report = self.ph.sortnet.build_k_of_n(k, n)
        except self.ph.compiler.BudgetExceededError:
            return ("refused",)
        return ("built", report.word.letters, report.verified, report.mismatch_mask)

    def check(self, op: Op, out) -> tuple[str, int | None]:
        k, n = op.args
        if out[0] == "refused":
            return "refused", BUDGET_LETTERS
        _, letters, verified, mismatch_mask = out
        ref = oracle.threshold_table(n, k)
        table = oracle.word_table(letters, n)
        status = _table_status(table, ref)
        first_bad = next((m for m in range(1 << n) if table[m] != ref[m]), None)
        if verified is True and first_bad is not None:
            status = WRONG  # the package called a mismatching word verified
        if verified is False and (first_bad is None or mismatch_mask != first_bad):
            status = WRONG
        return status, len(letters) if status == OK else BUDGET_LETTERS

    def run_traced(self, op: Op, tr) -> None:
        ph = self.ph
        k, n = op.args
        with tr.span("sortnet.threshold_circuit"):
            circuit = ph.sortnet.threshold_circuit(k, n)
        tr.count("circuits.gate_count", circuit.gate_count)
        # threshold_circuit pads n inputs to the next power of two.
        width = 1 if n == 1 else 1 << (n - 1).bit_length()
        tr.count("sortnet.comparators", ph.sortnet.batcher_network(width).size)
        spec = ph.circuits.PuzzleSpec.from_threshold(n, k)
        with tr.span("circuits.to_circuit"):
            spec.to_circuit()
        with tr.span("circuits.spec_table"):
            spec.table()
        try:
            with tr.span("compiler.build"):
                report = ph.compiler.compile_circuit(spec, verify=False)
        except ph.compiler.BudgetExceededError:
            tr.count("compiler.refused")
            return
        tr.count("compiler.as_built_letters", report.as_constructed_length)
        tr.count("compiler.reduced_letters", report.reduced_length)
        with tr.span("words.fall_table"):
            ph.words.fall_table(report.word, n)
        tr.count("words.fall_table_letter_steps", (1 << n) * len(report.word.letters))


# --- spectator-setcover ------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    m: int
    sets: tuple[tuple[int, ...], ...]
    table: tuple[bool, ...]

    @property
    def n(self) -> int:
        return len(self.sets)


class SpectatorSetcover:
    """Seeded Set Cover instances encoded as hanging words, plus the fixtures.

    Spectator search does nearly all of the work; the compiler's AND gadget
    only builds the encoding and nothing is verified, so a change to
    verification should leave this workload flat.  An operation is one
    solver on one word (the encoding included), so each instance gives
    three.  Shapes are stratified so that seeds change the instances but
    not the mix of sizes: every m in 8..12 with every n in 6..8, each
    element in exactly r = 2 or 3 sets, and the optimum fixed per r at a
    value every shape draws often.
    """

    name = "spectator-setcover"
    SHAPES = [(m, n, r) for m in range(8, 13) for n in range(6, 9) for r in (2, 3)]
    PER_SHAPE = 3
    OPTIMUM = {2: 3, 3: 2}  # drawn by at least one instance in nine of every shape
    SOLVERS = ("min_fell", "max_survive", "greedy")

    def __init__(self, ph, seed: int, root: Path, work: Path) -> None:
        self.ph = ph
        rng = random.Random(seed)
        items: list[tuple[str, object]] = []
        for m, n, r in self.SHAPES:
            for j in range(self.PER_SHAPE):
                while True:
                    sets: list[set[int]] = [set() for _ in range(n)]
                    for e in range(1, m + 1):
                        for s in rng.sample(range(n), r):
                            sets[s].add(e)
                    table = oracle.cover_table(m, sets)
                    if oracle.extremes(table, n)[0] == self.OPTIMUM[r]:
                        break
                inst = Instance(m, tuple(tuple(sorted(s)) for s in sets), tuple(table))
                items.append((f"cover-m{m}-n{n}-r{r}-{j}", inst))
        items += [(f"fixture-{fx.id}", fx) for fx in ph.puzzles.load_fixtures()]
        self.ops = [Op(f"{key}-{solver}", (item, solver))
                    for key, item in items for solver in self.SOLVERS]

    def pass_ops(self) -> list[Op]:
        return self.ops

    def _word(self, item):
        if isinstance(item, Instance):
            return self.ph.spectator.set_cover_to_hanging(item.m, item.sets)[0]
        return item.word

    def _solve(self, solver: str, word, n: int):
        sp = self.ph.spectator
        if solver == "min_fell":
            return sp.min_fell_exact(word, n)
        if solver == "max_survive":
            return sp.max_survive_exact(word, n)
        return sp.greedy_min_fell(word, n)

    def run(self, op: Op):
        item, solver = op.args
        word = self._word(item)
        return self._solve(solver, word, item.n).mask, len(word.letters)

    def check(self, op: Op, out) -> tuple[str, int | None]:
        item, solver = op.args
        mask, letters = out
        n = item.n
        table = list(item.table) if isinstance(item, Instance) else _fixture_table(item)
        fell, hang = oracle.extremes(table, n)
        size = _popcount(mask)
        if solver == "max_survive":
            if table[mask] or size > hang:
                return WRONG, letters
            if size == hang:
                return OK, letters
            # Every hanging subset of the optimal size must have fallen.
            suspects = [m for m in range(1 << n) if _popcount(m) == hang and not table[m]]
        else:
            if table[mask] and (solver == "greedy" or size == fell):
                return OK, letters
            if table[mask]:
                return WRONG, letters  # a felling subset larger than the optimum
            suspects = [mask]
        # Extra falls on subsets holding an anchor nail are the gadgets'
        # documented defect; anything else is a wrong answer.
        word = self._word(item).letters
        explained = all(m & oracle.ANCHORS and oracle.falls(word, m) for m in suspects)
        return ("anchor-misfire" if explained else WRONG), letters

    def run_traced(self, op: Op, tr) -> None:
        item, solver = op.args
        if isinstance(item, Instance):
            with tr.span("spectator.encode"):
                word = self._word(item)
        else:
            word = item.word
        with tr.span(f"spectator.{solver}"):
            answer = self._solve(solver, word, item.n)
        if solver == "greedy":
            table = list(item.table) if isinstance(item, Instance) else _fixture_table(item)
            tr.count("spectator.greedy_over_opt_sum", answer.size / oracle.extremes(table, item.n)[0])
            tr.count("spectator.greedy_solved")


# --- cli-mix -----------------------------------------------------------------

DEEP_NESTING = 3000
# Conjunctions, and ORs true at {1,2} with disjoint terms: the families the
# package README documents as exact.  Fixed, so that their letter counts
# (which depend on where the anchor nails sit) do not vary with the seed.
FORMULAS = [
    (("and", 1, 2), 2),
    (("and", ("and", 1, 3), 4), 4),
    (("and", ("and", 2, 3), ("and", 4, 5)), 5),
    (("or", 1, ("and", 3, 4)), 4),
    (("or", 2, ("and", 3, 5)), 5),
    (("or", ("and", 1, 2), 3), 3),
]
RENDER_SHAPES = [(1_000, 3), (3_000, 8), (10_000, 5), (30_000, 4), (100_000, 6)]


def _cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "picturehang.cli", *args]


class CliMix:
    """One ``picturehang`` subprocess at a time over a seeded mix of light commands.

    Exercises start-up, parsing, formatting, file I/O and rendering while
    the heavy kernels stay idle.  The mix has a fixed composition, malformed
    inputs that must exit 2 among it; the seed picks fixtures, words, class
    partitions, bad tokens and the order.  The compiled formulas are fixed
    members of the families the README documents as exact, so the seed
    cannot change how many commands fail; the anchor defect is measured by
    compile-verify and spectator-setcover.
    """

    name = "cli-mix"
    RSS_OF_CHILDREN = True  # the program's memory is the CLI subprocess's
    # Start-up (interpreter, site, stdlib imports) is most of a command, and
    # its speed drifts with the host in ways the in-process probe does not
    # follow.  This command shares that start-up and none of the package's
    # code, so the run scales the start-up part of each command by its time.
    REFERENCE = ("-c", "import argparse, dataclasses, json, typing")

    def __init__(self, ph, seed: int, root: Path, work: Path) -> None:
        self.ph = ph
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        rng = random.Random(seed)
        work.mkdir(parents=True, exist_ok=True)
        fixtures = ph.puzzles.load_fixtures()
        self.fixtures = {fx.id: fx for fx in fixtures}
        for fx in fixtures:
            (work / f"fx{fx.id}.txt").write_text(oracle.format_tokens(fx.word.letters) + "\n")
            body = ({"threshold_k": fx.spec.threshold_k} if fx.spec.threshold_k is not None
                    else {"subsets": sorted(sorted(s) for s in fx.spec.subsets)})
            (work / f"fx{fx.id}.json").write_text(json.dumps({"n": fx.n, **body}))
        ops: list[tuple[str, list[str], tuple, dict]] = []

        def add(kind: str, argv: list[str], expect: tuple, layers: dict | None = None) -> None:
            ops.append((kind, argv, expect, layers or {}))

        add("puzzles", ["puzzles"], ("puzzles", False), {"puzzles": True})
        add("puzzles", ["puzzles", "--json"], ("puzzles", True), {"puzzles": True})
        for as_json in (False, True):
            fid = rng.randint(1, 11)
            add("puzzle-id", ["puzzles", "--id", str(fid)] + ["--json"] * as_json,
                ("puzzle-id", fid, as_json), {"puzzles": True})
        for n in (3, 5, 8):
            add("one-of", ["construct", "one-of", "--n", str(n)],
                ("word", n, tuple(oracle.threshold_table(n, 1)), False))
        for n in (4, 6, 8):
            nails = list(range(1, n + 1))
            rng.shuffle(nails)
            classes = [sorted(nails[i:i + 2]) for i in range(0, n, 2)]
            add("classes", ["construct", "classes", "--classes",
                            "/".join(",".join(map(str, c)) for c in classes)],
                ("word", n, tuple(oracle.subsets_table(n, classes)), False))
        for formula, n in FORMULAS:
            text = oracle.formula_text(formula)
            add("compile", ["compile", "--formula", text, "--n", str(n)],
                ("word", n, tuple(oracle.formula_table(formula, n)), True),
                {"formula": (text, n)})
        for kind in ("verify", "table", "min-fell", "max-survive") * 2:
            fx = self.fixtures[rng.randint(1, 11)]
            word_file = str(work / f"fx{fx.id}.txt")
            if kind == "verify":
                argv = ["verify", "--word", word_file, "--spec", str(work / f"fx{fx.id}.json")]
            elif kind == "table":
                argv = ["table", "--word", word_file, "--n", str(fx.n)]
            else:
                argv = ["solve", kind, "--word", word_file, "--n", str(fx.n), "--json"]
            add(kind, argv, (kind, fx.n, tuple(_fixture_table(fx))), {"word_file": word_file})
        for length, n in RENDER_SHAPES:
            letters = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length)]
            path = work / f"render{length}.txt"
            path.write_text(oracle.format_tokens(letters) + "\n")
            for fmt in ("text", "vector"):
                add("render", ["render", "--word", str(path), "--n", str(n), "--format", fmt],
                    ("render", fmt, tuple(letters), n),
                    {"word_file": str(path), "render": (fmt, n)})
        for j in range(2):
            letters = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(12)]
            tokens = oracle.format_tokens(letters).split()
            tokens[rng.randrange(len(tokens))] = rng.choice(("y2", "x", "X0", "x1x"))
            path = work / f"bad{j}.txt"
            path.write_text(" ".join(tokens) + "\n")
            argv = (["table", "--word", str(path), "--n", "4"] if j == 0
                    else ["render", "--word", str(path)])
            add("bad-token", argv, ("usage",), {"word_file": str(path)})
        for j in range(2):
            text = f"r1 {rng.choice('$!~^')} r2"
            add("bad-char", ["compile", "--formula", text], ("usage",), {"formula": (text, None)})
        n = rng.randint(2, 5)
        add("k-over-n", ["construct", "k-of", "--k", str(n + 1), "--n", str(n)], ("usage",))
        spec_path = work / "k_over_n.json"
        spec_path.write_text(json.dumps({"n": n, "threshold_k": n + 2}))
        add("k-over-n", ["compile", "--spec", str(spec_path)], ("usage",))
        deep = "(" * DEEP_NESTING + f"r{rng.randint(1, 3)}" + ")" * DEEP_NESTING
        add("deep-formula", ["compile", "--formula", deep], ("usage",), {"formula": (deep, None)})

        rng.shuffle(ops)
        self.ops = [Op(f"{i:02d}-{kind}", (argv, expect, layers))
                    for i, (kind, argv, expect, layers) in enumerate(ops)]

    def pass_ops(self) -> list[Op]:
        return self.ops

    def reference(self) -> None:
        subprocess.run([sys.executable, *self.REFERENCE], capture_output=True,
                       cwd=self.root, env=self.env, timeout=120)

    def run(self, op: Op):
        argv = op.args[0]
        proc = subprocess.run(_cli_argv(*argv), capture_output=True, text=True,
                              cwd=self.root, env=self.env, timeout=120)
        return (proc.returncode, proc.stdout, proc.stderr)

    def check(self, op: Op, out) -> tuple[str, int | None]:
        code, stdout, stderr = out
        expect = op.args[1]
        kind = expect[0]
        if kind == "usage":
            if code == 2 and "Traceback" not in stderr and stderr.startswith(("error:", "usage:")):
                return OK, None
            if op.key.endswith("deep-formula") and "RecursionError" in stderr:
                return "deep-nesting-traceback", None
            return WRONG, None
        if code != 0 and kind != "word":
            return WRONG, None
        try:
            return self._check_output(expect, code, stdout, stderr)
        except (ValueError, KeyError, IndexError, TypeError):
            return WRONG, None

    def _check_output(self, expect, code, stdout, stderr) -> tuple[str, int | None]:
        kind = expect[0]
        lines = stdout.splitlines()
        if kind == "word":
            _, n, ref, reported = expect
            letters = oracle.parse_tokens(lines[0] if lines else "")
            status = _table_status(oracle.word_table(letters, n), list(ref))
            if reported:  # compile prints its report on stderr, last line JSON
                report = json.loads(stderr.splitlines()[0])
                if (report["verified"] is True) != (status == OK) or code != (0 if status == OK else 1):
                    status = WRONG
            elif code != 0:
                status = WRONG
            return status, len(letters)
        if kind == "puzzles":
            rows = [json.loads(line) for line in lines] if expect[1] else lines
            ids = [row["id"] if expect[1] else int(row.split()[0]) for row in rows]
            if ids != list(range(1, 12)):
                return WRONG, None
            for fid, row in zip(ids, rows):
                size = len(self.fixtures[fid].word.letters)
                got = row["letters"] if expect[1] else int(row.split()[2])
                if got != size:
                    return WRONG, None
            return OK, None
        if kind == "puzzle-id":
            fx = self.fixtures[expect[1]]
            if expect[2]:
                data = json.loads(stdout)
                text, n = data["word"], data["spec"]["n"]
            else:
                text, n = lines[0], json.loads(lines[1])["n"]
            ok = oracle.parse_tokens(text) == list(fx.word.letters) and n == fx.n
            return (OK if ok else WRONG), None
        if kind == "verify":
            return (OK if stdout.startswith("verified") else WRONG), None
        if kind == "table":
            _, n, ref = expect
            got = [None] * (1 << n)
            for line in lines:
                subset, verdict = line.rsplit(" ", 1)
                got[oracle.subset_mask(subset)] = verdict == "falls"
            return (OK if len(lines) == 1 << n and got == list(ref) else WRONG), None
        if kind in ("min-fell", "max-survive"):
            _, n, ref = expect
            data = json.loads(stdout)
            mask = sum(1 << (i - 1) for i in data["members"])
            fell, hang = oracle.extremes(list(ref), n)
            if kind == "min-fell":
                ok = ref[mask] and data["size"] == _popcount(mask) == fell
            else:
                ok = not ref[mask] and data["size"] == _popcount(mask) == hang
            return (OK if ok else WRONG), None
        if kind == "render":
            return (OK if _render_ok(expect[1], list(expect[2]), expect[3], stdout) else WRONG), None
        return WRONG, None

    def run_traced(self, op: Op, tr) -> None:
        ph = self.ph
        argv, _, layers = op.args
        with tr.span("cli.subprocess"):
            subprocess.run(_cli_argv(*argv), capture_output=True, text=True,
                           cwd=self.root, env=self.env, timeout=120)
        sink = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                ph.cli.main(argv)
            except RecursionError:
                pass
        word = None
        if "word_file" in layers:
            text = Path(layers["word_file"]).read_text()
            try:
                with tr.span("words.parse_word"):
                    word = ph.words.parse_word(text)
            except ValueError:
                word = None
            if word is not None:
                with tr.span("words.format_word"):
                    ph.words.format_word(word)
        if "render" in layers and word is not None:
            fmt, n = layers["render"]
            with tr.span("render.to_diagram"):
                diagram = ph.render.to_diagram(word, n, fmt)
            tr.count("render.bytes_out", len(diagram.encode()))
        if "formula" in layers:
            text, n = layers["formula"]
            try:
                with tr.span("circuits.parse_formula"):
                    ph.circuits.parse_formula(text, n)
            except (ValueError, RecursionError):
                pass
        if layers.get("puzzles"):
            with tr.span("puzzles.load_fixtures"):
                ph.puzzles.load_fixtures()


def _render_ok(fmt: str, letters: list[int], n: int, out: str) -> bool:
    """Structure of a diagram: one row per letter in order, legend counts per nail."""
    wraps = [0] * (n + 1)
    for x in letters:
        wraps[abs(x)] += 1
    legend = [f"legend: {len(letters)} letters"] + [
        f"  nail {i}: {wraps[i]} wraps" for i in range(1, n + 1)]
    tokens = oracle.format_tokens(letters).split()
    if fmt == "text":
        lines = out.splitlines()
        rows = lines[2:2 + len(letters)]
        return (len(lines) == 2 + len(letters) + len(legend)
                and all(row.split()[-2] == tok for row, tok in zip(rows, tokens))
                and lines[2 + len(letters):] == legend)
    if not (out.startswith("<svg") and out.endswith("</svg>\n")):
        return False
    labels = [line.rsplit(">", 2)[-2].split("<")[0] for line in out.splitlines()
              if line.startswith("<text") and ('"11">' in line)]
    want = [f"{tok} {'cw' if x > 0 else 'ccw'}" for tok, x in zip(tokens, letters)]
    return labels == want and all(f">{line}</text>" in out for line in legend)


WORKLOADS = {w.name: w for w in (CompileVerify, SpectatorSetcover, CliMix)}


def import_package(src: Path):
    """Import picturehang afresh from ``src`` and return its modules."""
    for name in [m for m in sys.modules if m == "picturehang" or m.startswith("picturehang.")]:
        del sys.modules[name]
    import importlib

    pkg = importlib.import_module("picturehang")
    if Path(pkg.__file__).resolve().parent != (src / "picturehang").resolve():
        raise ImportError(f"picturehang imported from {pkg.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"picturehang.{name}")
            for name in ("words", "circuits", "compiler", "sortnet", "spectator",
                         "render", "puzzles", "cli", "constructions")}
    return SimpleNamespace(**mods)
