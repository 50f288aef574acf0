"""Print the package's outputs as deterministic JSON lines, for diffing checkouts.

Each line is one outcome: a case name and what the code returned for it.
Run it in two checkouts and compare the files with ``diff``; a refactor
that keeps every word, circuit, table, count and answer prints the same
lines.  It covers:

- every ``CompileReport`` field on the 166 nonconstant monotone functions
  of four nails, compiled as a circuit and as a subsets spec;
- ``build_k_of_n`` for 1 <= k <= n <= 10 with the answers of the three
  spectator solvers on its word, and ``atleast(k; r1..rm)`` for m <= 9
  with the gate count and depth of ``threshold_circuit(k, m)``;
- seeded random formulas on six variables: table, gates, depth and report;
- ``&`` chains of 100 to 2,000 pair clauses, overlapping (ri | ri+1) and
  disjoint (r2i-1 | r2i): the compiled word and report, unverified;
- ``NailSubset`` members of seeded masks on up to 200 nails;
- Batcher networks of widths 1..12: comparators, the zero-one check, a
  seeded ``apply`` and the gate counts of ``network_to_circuit``;
- the gadget templates' counts, and ``gadget_and``/``gadget_or`` on
  seeded pairs of words;
- seeded Set Cover words with the three solvers and whether each word's
  fall table is the instance's cover table, and the fixtures;
- ``build_s``, ``build_e``, and ``build_disjoint`` with ``e_tree_length``;
- the output and exit code of a few CLI commands that read no file;
- ``(r1 & ... & rN) | (r1 & ... & rN)`` and ORs of ANDs over shifted
  nails, subset specs listing duplicate and superset subsets, and seeded
  ANDs of two DNFs over shared nails: every report field;
- every k-of-n for 14 <= n <= 20 within 10^6 letters: its length and how
  auto-verification went (the fields that follow the verification rule);
- each subset search's refusal, exception type and message, of a nail
  beyond n, a negative n, an n over the exhaustive limit and both at once,
  on packed and on int words (nails above 127); then the same of
  ``PuzzleSpec.verify`` on a spec of each kind, and of a verified
  ``compile_circuit`` of ``r1`` whose laid-out word is replaced by the input;
- the three solvers on seeded gadget words that keep their tree
  (``Word.tree``): Set Cover words and ``gadget_and``, ``gadget_or`` and
  ``gadget_and_tree`` over seeded words.  Each word prints two lines, read
  from its tree and from the same letters without one; the two are
  identical.

Standard library only; seeded, so two runs print the same bytes.

    PYTHONPATH=src python scripts/differential.py > outcomes.jsonl
"""

from __future__ import annotations

import argparse
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from unittest import mock

from picturehang import compiler
from picturehang.circuits import (
    PuzzleSpec,
    circuit_table,
    parse_formula,
    spec_to_json,
    subsets_to_circuit,
)
from picturehang.cli import main as main_cli
from picturehang.compiler import BudgetExceededError, compile_circuit
from picturehang.constructions import build_disjoint, build_e, build_s, e_tree_length
from picturehang.gadgets import (
    and_splice_cost,
    and_template_tokens,
    estimate_length,
    flat_counts,
    folded_counts,
    gadget_and,
    gadget_and_tree,
    gadget_or,
    or_splice_cost,
    or_template_tokens,
)
from picturehang.puzzles import load_fixtures
from picturehang.sortnet import (
    batcher_network,
    build_k_of_n,
    network_to_circuit,
    sorts_all_zero_one,
    threshold_circuit,
)
from picturehang.spectator import (
    greedy_min_fell,
    max_survive_exact,
    min_fell_exact,
    set_cover_to_hanging,
)
from picturehang.verifier import verify_threshold
from picturehang.words import NailSubset, Word, fall_table


def emit(case: str, **fields) -> None:
    print(json.dumps({"case": case, **fields}, sort_keys=True))


def report_fields(report) -> dict:
    fields = report._asdict()
    fields["word"] = list(report.word.letters)
    fields["notices"] = list(report.notices)
    return fields


def four_nail_functions() -> None:
    subsets = [c for size in range(1, 5) for c in combinations(range(1, 5), size)]
    for bits in range(1, 1 << len(subsets)):
        family = [s for i, s in enumerate(subsets) if bits >> i & 1]
        if any(set(a) < set(b) for a in family for b in family):
            continue
        name = "/".join("".join(map(str, s)) for s in family)
        circuit = subsets_to_circuit(family, 4)
        emit("four-nail-circuit", family=name, gates=circuit.gate_count,
             estimate=estimate_length(circuit), report=report_fields(compile_circuit(circuit)))
        spec = PuzzleSpec.from_subsets(4, family)
        emit("four-nail-spec", family=name, report=report_fields(compile_circuit(spec)))


def thresholds() -> None:
    for n in range(1, 11):
        for k in range(1, n + 1):
            report = build_k_of_n(k, n)
            solve("k-of-n", report.word, n, k=k, report=report_fields(report))
    for m in range(1, 10):
        variables = ", ".join(f"r{i}" for i in range(1, m + 1))
        for k in range(0, m + 1):
            c = threshold_circuit(k, m)
            report = compile_circuit(parse_formula(f"atleast({k}; {variables})"))
            emit("atleast", k=k, m=m, gates=c.gate_count, depth=c.depth, report=report_fields(report))


def random_formula(rng: random.Random, variables: int, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return f"r{rng.randint(1, variables)}"
    op = rng.choice(" & | ".split())
    left, right = (random_formula(rng, variables, depth - 1) for _ in range(2))
    return f"({left} {op} {right})"


def formulas(rng: random.Random) -> None:
    for _ in range(60):
        text = random_formula(rng, 6, 4)
        circuit = parse_formula(text, 6)
        emit("formula", text=text, table=circuit_table(circuit), gates=circuit.gate_count,
             depth=circuit.depth, report=report_fields(compile_circuit(circuit)))


def chains() -> None:
    for clauses in (100, 500, 2000):
        for shape, step in (("overlapping", 1), ("disjoint", 2)):
            text = " & ".join(f"(r{i} | r{i + 1})" for i in range(1, step * clauses, step))
            report = compile_circuit(parse_formula(text), verify=False)
            emit("chain", shape=shape, clauses=clauses, report=report_fields(report))


def subsets(rng: random.Random) -> None:
    for _ in range(40):
        n = rng.randint(0, 200)
        subset = NailSubset(n, rng.getrandbits(n))
        emit("nail-subset", n=n, mask=subset.mask, members=sorted(subset.members),
             size=subset.size, text=str(subset))


def networks(rng: random.Random) -> None:
    for width in range(1, 13):
        net = batcher_network(width)
        values = [rng.randint(0, 9) for _ in range(width)]
        emit(
            "batcher",
            width=width,
            layers=[[(c.low, c.high) for c in layer] for layer in net.layers],
            size=net.size,
            depth=net.depth,
            sorts=sorts_all_zero_one(net),
            values=values,
            applied=net.apply(values),
            wire_gates=[network_to_circuit(net, w).gate_count for w in range(1, width + 1)],
        )


def random_word(rng: random.Random, nails: int, most: int) -> Word:
    letters = [rng.choice((1, -1)) * rng.randint(1, nails) for _ in range(rng.randint(1, most))]
    return Word(tuple(letters)).reduce()


def gadgets(rng: random.Random) -> None:
    for name, tokens in (("and", and_template_tokens()), ("or", or_template_tokens())):
        folded = folded_counts(tokens)
        emit("template", name=name, flat=list(flat_counts(tokens)),
             folded=[folded.recursive_units, folded.auxiliary_letters, folded.total])
    x3, x4 = Word((3,)), Word((4,))
    emit("gadget-x3-x4", gadget_and=list(gadget_and(x3, x4).letters),
         gadget_or=list(gadget_or(x3, x4).letters),
         splice=[and_splice_cost(1, 1), or_splice_cost(1, 1), and_splice_cost(2, 3)])
    for _ in range(40):
        p, q = random_word(rng, 5, 7), random_word(rng, 5, 7)
        emit("gadget-pair", p=list(p.letters), q=list(q.letters),
             gadget_and=list(gadget_and(p, q).letters), gadget_or=list(gadget_or(p, q).letters))


def solve(case: str, word: Word, n: int, **fields) -> None:
    answers = {}
    for name, solver in (("min_fell", min_fell_exact), ("greedy", greedy_min_fell)):
        answers[name] = sorted(solver(word, n).members)
    try:
        answers["max_survive"] = sorted(max_survive_exact(word, n).members)
    except ValueError as exc:
        answers["max_survive"] = str(exc)
    emit(case, n=n, word=list(word.letters), **answers, **fields)


def set_covers(rng: random.Random) -> None:
    for _ in range(60):
        m, n, r = rng.randint(3, 10), rng.randint(2, 7), rng.choice((1, 2, 3))
        sets: list[set[int]] = [set() for _ in range(n)]
        for element in range(1, m + 1):
            for i in rng.sample(range(n), min(r, n)):
                sets[i].add(element)
        word, owners = set_cover_to_hanging(m, [sorted(s) for s in sets])
        masks = [sum(1 << i - 1 for i in who) for who in owners.values()]
        covers = [all(mask & owner for owner in masks) for mask in range(1 << n)]
        solve("set-cover", word, n, m=m, sets=[sorted(s) for s in sets],
              owners={j: list(who) for j, who in owners.items()}, table=fall_table(word, n) == covers)
    for fx in load_fixtures():
        report = compile_circuit(fx.spec)
        solve("fixture", fx.word, fx.n, id=fx.id, spec=spec_to_json(fx.spec),
              table=fall_table(fx.word, fx.n) == fx.spec.table(), report=report_fields(report))


def constructions(rng: random.Random) -> None:
    for n in range(1, 9):
        emit("build_s", n=n, word=list(build_s(n).letters))
    for m in range(1, 13):
        indices = rng.sample(range(1, 20), m)
        emit("build_e", indices=indices, word=list(build_e(indices).letters))
    for _ in range(40):
        n = rng.randint(1, 10)
        nails = list(range(1, n + 1))
        rng.shuffle(nails)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        classes = [nails[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        emit("build_disjoint", classes=classes, word=list(build_disjoint(classes).letters),
             tree_length=e_tree_length([len(c) for c in classes]))


def budgets() -> None:
    for k, n in ((30, 60), (5, 30)):
        try:
            build_k_of_n(k, n)
            emit("budget", k=k, n=n, refused=None)
        except BudgetExceededError as exc:
            emit("budget", k=k, n=n, refused=str(exc))


def cli() -> None:
    commands = [
        ["puzzles"],
        ["puzzles", "--json"],
        ["puzzles", "--id", "5", "--json"],
        ["puzzles", "--id", "9"],
        ["construct", "one-of", "--n", "5"],
        ["construct", "classes", "--classes", "1,2/3/4,5,6"],
        ["construct", "k-of", "--k", "3", "--n", "5", "--json"],
        ["compile", "--formula", "atleast(2; r1, r2, r3) & (r4 | r1)", "--json"],
        ["compile", "--formula", "r1 | r2", "--n", "3", "--json"],
    ]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main_cli(argv)
        emit("cli", argv=argv, code=code, out=out.getvalue(), err=err.getvalue())


def absorption(rng: random.Random) -> None:
    for size in (1, 2, 5, 12, 20, 30):
        for shift in (0, 1, size // 2):
            left = " & ".join(f"r{i}" for i in range(1, size + 1))
            right = " & ".join(f"r{i + shift}" for i in range(1, size + 1))
            report = compile_circuit(parse_formula(f"({left}) | ({right})"))
            emit("or-of-ands", size=size, shift=shift, report=report_fields(report))
    for _ in range(40):
        n = rng.randint(2, 6)
        family = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 6))]
        for s in rng.sample(family, len(family) // 2):  # supersets
            rest = [x for x in range(1, n + 1) if x not in s]
            if rest:
                family.append(s + [rng.choice(rest)])
        family += rng.sample(family, len(family) // 2)  # duplicates
        rng.shuffle(family)
        report = compile_circuit(PuzzleSpec.from_subsets(n, family))
        emit("subsets-with-repeats", n=n, family=family, report=report_fields(report))
    for _ in range(40):
        text = f"({random_dnf(rng, 7)}) & ({random_dnf(rng, 7)})"
        report = compile_circuit(parse_formula(text))
        emit("and-over-shared-nails", text=text, report=report_fields(report))


def random_dnf(rng: random.Random, variables: int) -> str:
    terms = [rng.sample(range(1, variables + 1), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    return " | ".join("(" + " & ".join(f"r{i}" for i in term) + ")" for term in terms)


def threshold_verification() -> None:
    for n in range(14, 21):
        for k in range(1, n + 1):
            try:
                r = build_k_of_n(k, n, budget=10**6)
            except BudgetExceededError as exc:
                emit("threshold-verify", k=k, n=n, refused=str(exc))
                continue
            emit("threshold-verify", k=k, n=n, route=r.route, reduced_length=r.reduced_length,
                 verified=r.verified, verify_method=r.verify_method,
                 masks_checked=r.masks_checked, notices=list(r.notices))


def compile_laying_out(w: Word, n: int):
    """``compile_circuit`` of r1 over n, verified, with its laid-out word replaced by w."""
    with mock.patch.object(compiler, "lay_out", lambda plan: w):
        return compile_circuit(parse_formula("r1", n), verify=True)


def refusals() -> None:
    searches = {
        "fall_table": fall_table,
        "verify_threshold": lambda w, n: verify_threshold(w, n, 1),
        "min_fell_exact": min_fell_exact,
        "max_survive_exact": max_survive_exact,
        "greedy_min_fell": greedy_min_fell,
        "PuzzleSpec.verify subsets": lambda w, n: PuzzleSpec.from_subsets(n, [[1]]).verify(w),
        "PuzzleSpec.verify formula": lambda w, n: PuzzleSpec.from_formula(n, "r1").verify(w),
        "PuzzleSpec.verify threshold": lambda w, n: PuzzleSpec.from_threshold(n, 1).verify(w),
        "compile_circuit": compile_laying_out,
    }
    inputs = [
        ("nail beyond n", (1, 5, -1), 3),
        ("nail beyond n", (1, 200, -1), 150),
        ("negative n", (1,), -1),
        ("negative n", (), -1),
        ("n over the limit", (1, 2, -1, -2), 25),
        ("n over the limit", (1, 200, -1, -200), 200),
        ("nail beyond n, n over the limit", (30, 1, -30), 25),
        ("nail beyond n, n over the limit", (300, 1, -300), 200),
    ]
    for name, search in searches.items():
        for kind, letters, n in inputs:
            try:
                outcome = str(search(Word(letters), n))
            except ValueError as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            emit("refusal", search=name, input=kind, word=list(letters), n=n, outcome=outcome)


def trees(rng: random.Random) -> None:
    """The solvers on gadget words read from their tree, then from their letters alone."""
    words = []
    for _ in range(20):
        m, n = rng.randint(3, 12), rng.randint(3, 8)
        sets: list[set[int]] = [set() for _ in range(n)]
        for element in range(1, m + 1):
            for i in rng.sample(range(n), rng.choice((2, 3))):
                sets[i].add(element)
        words.append((set_cover_to_hanging(m, [sorted(s) for s in sets])[0], n))
    for _ in range(10):
        n = rng.randint(3, 6)
        p, q = random_word(rng, n, 6), random_word(rng, n, 6)
        leaves = [random_word(rng, n, 5) for _ in range(rng.randint(2, 5))]
        words += [(w, n) for w in (gadget_and(p, q), gadget_or(p, q), gadget_and_tree(leaves))]
    for word, n in words:
        if word.tree is None:  # one leaf: the word is that leaf, with no tree to read
            continue
        for read in (word, Word(word.letters, reduced=True)):
            solve("gadget-tree", read, n)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    four_nail_functions()
    thresholds()
    formulas(rng)
    chains()
    subsets(rng)
    networks(rng)
    gadgets(rng)
    set_covers(rng)
    constructions(rng)
    budgets()
    cli()
    absorption(rng)
    threshold_verification()
    refusals()
    trees(rng)


if __name__ == "__main__":
    main()
