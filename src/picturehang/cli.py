"""Command-line surface for constructing, compiling, checking and drawing
hanging words.

Exit codes: 0 success (or verified), 1 verification mismatch (the first
differing subset is printed), 2 usage or parse error.  All output is
deterministic.  Words on disk use the text format (`x1 x2 X1 X2`) or the
JSON array of signed integers; files starting with `[` are read as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Each command imports the rest of the package in its handler, so that it
# loads only the modules it uses.
from .words import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    DEFAULT_LETTER_BUDGET,
    NailSubset,
    Word,
    check_budget,
    fall_table,
    falls,
    format_word,
    parse_word,
    word_from_json,
)

if TYPE_CHECKING:
    from .circuits import PuzzleSpec
    from .compiler import CompileReport

__all__ = ["main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_word(path: str) -> Word:
    text = _read_text(path).strip()
    if text.startswith("["):
        return word_from_json(text)
    return parse_word(text)


def _load_spec(path: str) -> PuzzleSpec:
    from .circuits import spec_from_json

    return spec_from_json(_read_text(path))


def _report_dict(report: CompileReport) -> dict:
    return {
        "n": report.n,
        "route": report.route,
        "as_constructed_length": report.as_constructed_length,
        "reduced_length": report.reduced_length,
        "depth": report.depth,
        "estimate": report.estimate,
        "bound": report.bound,
        "verified": report.verified,
        "mismatch_mask": report.mismatch_mask,
        "verify_method": report.verify_method,
        "masks_checked": report.masks_checked,
        "notices": list(report.notices),
    }


def _emit_compile(report: CompileReport, as_json: bool) -> int:
    if as_json:
        payload = {"word": format_word(report.word), **_report_dict(report)}
        print(json.dumps(payload))
    else:
        print(format_word(report.word))
        print(json.dumps(_report_dict(report)), file=sys.stderr)
    if report.verified is False:
        subset = NailSubset(report.n, report.mismatch_mask or 0)
        print(f"verification mismatch at subset {subset}", file=sys.stderr)
        return 1
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    from .constructions import build_disjoint, build_e, e_tree_length, e_word_length

    if args.shape == "one-of":
        check_budget(e_word_length(args.n), DEFAULT_LETTER_BUDGET)
        print(format_word(build_e(list(range(1, args.n + 1)))))
        return 0
    if args.shape == "k-of":
        from .sortnet import build_k_of_n

        report = build_k_of_n(
            args.k, args.n, budget=args.budget, verify=False if args.no_verify else None
        )
        return _emit_compile(report, args.json)
    classes = []
    for chunk in args.classes.split("/"):
        members = {int(tok) for tok in chunk.split(",") if tok.strip()}
        if not members:
            raise ValueError(f"empty class in partition {args.classes!r}")
        classes.append(members)
    check_budget(e_tree_length([len(c) for c in classes]), DEFAULT_LETTER_BUDGET)
    print(format_word(build_disjoint(classes)))
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .circuits import PuzzleSpec, parse_formula
    from .compiler import compile_circuit

    if args.spec:
        target: PuzzleSpec | None = _load_spec(args.spec)
    else:
        circuit = parse_formula(args.formula, n=args.n)
        target = PuzzleSpec(n=circuit.n, formula=args.formula, circuit=circuit)
    verify = {"auto": None, "on": True, "off": False}[args.verify]
    report = compile_circuit(target, budget=args.budget, verify=verify, limit=args.limit)
    return _emit_compile(report, args.json)


def _cmd_verify(args: argparse.Namespace) -> int:
    word = _load_word(args.word)
    spec = _load_spec(args.spec)
    mask, _, _ = spec.verify(word, args.limit)
    if mask is None:
        print(f"verified: word realizes the spec on all {1 << spec.n} subsets")
        return 0
    subset = NailSubset(spec.n, mask)
    fell = falls(word, subset)
    got = "falls" if fell else "hangs"
    want = "hang" if fell else "fall"
    print(f"mismatch at subset {subset}: word {got} but spec says {want}")
    return 1


def _cmd_solve(args: argparse.Namespace) -> int:
    from .spectator import max_survive_exact, min_fell_exact

    word = _load_word(args.word)
    if args.problem == "min-fell":
        subset = min_fell_exact(word, args.n, args.limit)
    else:
        subset = max_survive_exact(word, args.n, args.limit)
    if args.json:
        print(json.dumps({"members": sorted(subset.members), "size": subset.size}))
    else:
        print(f"{subset} (size {subset.size})")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import to_diagram

    word = _load_word(args.word)
    n = args.n if args.n is not None else word.max_nail
    sys.stdout.write(to_diagram(word, n, args.format))
    return 0


def _cmd_puzzles(args: argparse.Namespace) -> int:
    from .circuits import spec_to_json
    from .puzzles import fixture_by_id, load_fixtures

    if args.id is None:
        for fx in load_fixtures():
            if args.json:
                print(
                    json.dumps(
                        {
                            "id": fx.id,
                            "n": fx.n,
                            "letters": len(fx.word),
                            "title": fx.title,
                        }
                    )
                )
            else:
                print(f"{fx.id:2d}  n={fx.n}  {len(fx.word):3d} letters  {fx.title}")
        return 0
    fx = fixture_by_id(args.id)
    if args.json:
        print(
            json.dumps(
                {
                    "id": fx.id,
                    "n": fx.n,
                    "word": format_word(fx.word),
                    "spec": json.loads(spec_to_json(fx.spec)),
                    "title": fx.title,
                }
            )
        )
    else:
        print(format_word(fx.word))
        print(spec_to_json(fx.spec))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    word = _load_word(args.word)
    table = fall_table(word, args.n, limit=args.limit)
    for mask, fell in enumerate(table):
        print(f"{NailSubset(args.n, mask)} {'falls' if fell else 'hangs'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picturehang",
        description="Construct, compile, verify, solve and draw picture-hanging words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build words for standard fall patterns")
    shapes = construct.add_subparsers(dest="shape", required=True)
    one_of = shapes.add_parser("one-of", help="falls when any one of n nails is removed")
    one_of.add_argument("--n", type=int, required=True)
    k_of = shapes.add_parser("k-of", help="falls when any k of n nails are removed")
    k_of.add_argument("--k", type=int, required=True)
    k_of.add_argument("--n", type=int, required=True)
    k_of.add_argument("--budget", type=int, default=None)
    k_of.add_argument("--no-verify", action="store_true")
    k_of.add_argument("--json", action="store_true")
    classes = shapes.add_parser(
        "classes", help="falls when some class of nails is wholly removed"
    )
    classes.add_argument(
        "--classes", required=True, metavar="PARTITION", help='e.g. "1,2/3,4/5,6"'
    )
    construct.set_defaults(func=_cmd_construct)

    comp = sub.add_parser("compile", help="compile a spec or formula to a word")
    src = comp.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="spec JSON file")
    src.add_argument("--formula", help='formula text, e.g. "r1 & (r2 | r3)"')
    comp.add_argument("--n", type=int, default=None, help="variable count for --formula")
    comp.add_argument("--budget", type=int, default=DEFAULT_LETTER_BUDGET)
    comp.add_argument("--verify", choices=["auto", "on", "off"], default="auto")
    comp.add_argument("--limit", type=int, default=DEFAULT_EXHAUSTIVE_LIMIT)
    comp.add_argument("--json", action="store_true")
    comp.set_defaults(func=_cmd_compile)

    ver = sub.add_parser("verify", help="check a word against a spec exhaustively")
    ver.add_argument("--word", required=True, help="word file (text or JSON), - for stdin")
    ver.add_argument("--spec", required=True, help="spec JSON file")
    ver.add_argument("--limit", type=int, default=DEFAULT_EXHAUSTIVE_LIMIT)
    ver.set_defaults(func=_cmd_verify)

    solve = sub.add_parser("solve", help="optimal nail-removal problems")
    solve.add_argument("problem", choices=["min-fell", "max-survive"])
    solve.add_argument("--word", required=True)
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--limit", type=int, default=DEFAULT_EXHAUSTIVE_LIMIT)
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    render = sub.add_parser("render", help="draw a weaving diagram")
    render.add_argument("--word", required=True)
    render.add_argument("--n", type=int, default=None)
    # render.SUPPORTED_FORMATS, spelled out so that only `render` loads render.py
    render.add_argument("--format", choices=["text", "vector"], default="text")
    render.set_defaults(func=_cmd_render)

    puz = sub.add_parser("puzzles", help="show the golden puzzle fixtures")
    puz.add_argument("--id", type=int, default=None)
    puz.add_argument("--json", action="store_true")
    puz.set_defaults(func=_cmd_puzzles)

    table = sub.add_parser("table", help="print the full fall table of a word")
    table.add_argument("--word", required=True)
    table.add_argument("--n", type=int, required=True)
    table.add_argument("--limit", type=int, default=DEFAULT_EXHAUSTIVE_LIMIT)
    table.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # The package's own errors (budget, unrealizable spec, word and
        # formula syntax) are all ValueErrors.  str() of a KeyError is the
        # repr of its key, so print the message itself.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
