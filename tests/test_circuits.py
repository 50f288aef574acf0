"""Monotone circuits, formula parsing, specs and their validation."""

import json
import random
import time
import tracemalloc

import pytest

from picturehang.circuits import (
    MAX_NESTING,
    Const,
    FormulaSyntaxError,
    Gate,
    MonotoneCircuit,
    PuzzleSpec,
    UnrealizableSpecError,
    Var,
    circuit_table,
    eval_circuit,
    evaluate,
    format_formula,
    make_and,
    make_or,
    parse_formula,
    spec_from_json,
    spec_to_json,
    subsets_to_circuit,
    validate_spec,
)
from picturehang.compiler import compile_circuit
from picturehang.puzzles import load_fixtures
from picturehang.verifier import _verify_plan
from picturehang.words import NailSubset, Word, fall_table


def test_eval_and_table_agree():
    c = parse_formula("r1 & (r2 | r3)")
    table = circuit_table(c)
    for mask in range(8):
        removed = {i + 1 for i in range(3) if (mask >> i) & 1}
        assert table[mask] == eval_circuit(c, removed)


def _random_formula(rng, n, size):
    """A formula over r1..rn with ``size`` leaves, some nails shared among them."""
    if size == 1:
        return f"r{rng.randint(1, n)}"
    left = rng.randint(1, size - 1)
    op = rng.choice("&|")
    return f"({_random_formula(rng, n, left)} {op} {_random_formula(rng, n, size - left)})"


def test_circuit_table_is_eval_circuit_on_every_mask():
    rng = random.Random(4)
    for n in (1, 2, 3, 5, 8, 12, 16):
        c = parse_formula(_random_formula(rng, n, rng.randint(1, n + 4)), n=n)
        table = circuit_table(c)
        assert len(table) == 1 << n
        assert table == [eval_circuit(c, NailSubset(n, mask)) for mask in range(1 << n)]


def test_circuit_table_matches_known_functions():
    assert circuit_table(parse_formula("r1 & r2")) == [False, False, False, True]
    assert circuit_table(parse_formula("r1 | r2")) == [False, True, True, True]


def test_parse_formula_precedence_and_associativity():
    c = parse_formula("r1 | r2 & r3")
    assert isinstance(c.root, Gate) and c.root.op == "or"
    assert format_formula(c) == "r1 | r2 & r3"
    assert parse_formula("r1 & r2 & r3").root == Gate("and", (Var(1), Var(2), Var(3)))
    nested = Gate("and", (Gate("and", (Var(1), Var(2))), Var(3)))
    assert parse_formula("(r1 & r2) & r3").root == nested  # operand gates are not flattened


def test_parse_formula_parentheses_and_n_override():
    c = parse_formula("(r1 | r2) & r3", n=5)
    assert c.n == 5
    assert format_formula(c) == "(r1 | r2) & r3"


def test_parse_formula_atleast_macro():
    c = parse_formula("atleast(2; r1, r2, r3)")
    assert circuit_table(c) == [
        bin(mask).count("1") >= 2 for mask in range(8)
    ]


def test_parse_formula_default_n_counts_variables_that_fold_away():
    assert parse_formula("atleast(0; r1)").n == 1
    c = parse_formula("r2 & atleast(0; r5)")
    assert c.n == 5
    assert circuit_table(c) == [mask >> 1 & 1 == 1 for mask in range(32)]
    with pytest.raises(FormulaSyntaxError, match="r3 exceeds n=2"):
        parse_formula("r1 | atleast(0; r3)", n=2)


def test_parse_formula_rejects_garbage():
    for bad in ("", "r1 &", "r0", "r1 | | r2", "foo", "(r1", "atleast(4; r1, r2)"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad)


def test_formula_position_in_error():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("r1 & $")
    assert exc.value.position == 5


def test_parse_formula_bounds_nesting_depth():
    def nested(depth):
        return "(" * depth + "r1" + ")" * depth

    assert parse_formula(nested(MAX_NESTING)).root == Var(1)
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(nested(MAX_NESTING + 1))
    assert exc.value.position == MAX_NESTING


def test_format_parse_round_trip():
    corpus = (
        "r1",
        "r1 & r2",
        "r1 | r2 & r3",
        "(r1 | r2) & (r3 | r4)",
        "r1 | r2",
        "(r1 | r2) & r3",
        "r1 & (r2 | r3)",
        "(r1 & r2) | (r3 & r4)",
        "r1 & r2 | r3",
        "atleast(2; r1, r2, r3)",
        "atleast(3; r1, r2, r3, r4)",
    )
    for text in corpus:
        c = parse_formula(text)
        assert format_formula(parse_formula(format_formula(c))) == format_formula(c)


def test_format_formula_renders_a_long_chain():
    text = " & ".join(f"r{i % 7 + 1}" for i in range(3000))
    assert format_formula(parse_formula(text)) == text


def test_make_gates_fold_constants():
    assert make_and(Var(1), Const(True)) == Var(1)
    assert make_or(Var(1), Const(True)) == Const(True)
    assert make_and(Var(1), Const(False)) == Const(False)
    assert make_or(Const(False), Var(1)) == Var(1)


def test_evaluate_values_each_shared_node_once():
    shared = Gate("or", (Var(1), Const(False)))
    root = Gate("and", (Gate("and", (shared, shared)), Gate("or", (shared, Var(1)))))
    leaves = []

    def leaf(node):
        leaves.append(node)
        return 1

    # Counts leaf occurrences in the unshared tree: 2 + 2 under the first
    # AND, 2 + 1 under the OR.
    assert evaluate(root, leaf, {"and": sum, "or": sum}) == 7
    assert leaves == [Var(1), Const(False), Var(1)]
    assert MonotoneCircuit(1, root).depth == 3


def test_subsets_to_circuit_builds_one_gate_per_chain():
    c = subsets_to_circuit([[1, 2, 3], [4], [5, 6]], 6)
    terms = (Gate("and", (Var(1), Var(2), Var(3))), Var(4), Gate("and", (Var(5), Var(6))))
    assert c.root == Gate("or", terms)
    assert c.depth == 2
    assert subsets_to_circuit([[i] for i in range(1, 9)], 8).depth == 1


@pytest.mark.parametrize("operands", [(), (Var(1),)], ids=["none", "one"])
def test_circuit_refuses_a_gate_with_fewer_than_two_operands(operands):
    with pytest.raises(ValueError, match="^an and gate needs at least two operands$"):
        MonotoneCircuit(2, Gate("or", (Var(2), Gate("and", operands))))


def test_make_gates_take_any_number_of_operands():
    assert make_and(Var(1), Const(True), Var(2), Var(3)) == Gate("and", (Var(1), Var(2), Var(3)))
    assert make_or(Var(1), Const(False), Var(2)) == Gate("or", (Var(1), Var(2)))
    assert make_and(Const(True), Const(True)) == Const(True)
    assert make_or(Const(False), Const(False)) == Const(False)
    assert make_or(Var(1), Var(2), Const(True)) == Const(True)


@pytest.mark.parametrize("op", ["&", "|"])
def test_parse_formula_joins_each_operator_chain_in_one_gate(op):
    leaves = tuple(Var(i) for i in range(1, 1025))
    chain = parse_formula(f" {op} ".join(f"r{i}" for i in range(1, 1025)))
    assert chain.depth == 1
    assert chain.root == Gate("and" if op == "&" else "or", leaves)
    assert format_formula(chain) == f" {op} ".join(f"r{i}" for i in range(1, 1025))


def test_subsets_to_circuit_semantics():
    c = subsets_to_circuit([{1}, {2, 3}], 3)
    table = circuit_table(c)
    for mask in range(8):
        removed = {i + 1 for i in range(3) if (mask >> i) & 1}
        assert table[mask] == (1 in removed or {2, 3} <= removed)


def test_circuit_validation_rejects_bad_vars():
    with pytest.raises(ValueError):
        MonotoneCircuit(2, Var(3))
    with pytest.raises(ValueError):
        MonotoneCircuit(0, Const(True))


def test_spec_exactly_one_description():
    with pytest.raises(ValueError):
        PuzzleSpec(n=2)
    with pytest.raises(ValueError):
        PuzzleSpec(n=2, threshold_k=1, formula="r1")


def test_spec_tables_three_routes_agree():
    by_subsets = PuzzleSpec.from_subsets(3, [{1}, {2, 3}])
    by_formula = PuzzleSpec.from_formula(3, "r1 | r2 & r3")
    by_threshold = PuzzleSpec.from_threshold(3, 2)
    assert by_subsets.table() == by_formula.table()
    assert by_threshold.table() == [bin(m).count("1") >= 2 for m in range(8)]
    assert circuit_table(by_threshold.to_circuit()) == by_threshold.table()


def test_subset_table_equals_the_per_mask_reference():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 9)
        family = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 6))]
        masks = [sum(1 << (i - 1) for i in s) for s in family]
        want = [any(mask & m == m for m in masks) for mask in range(1 << n)]
        assert PuzzleSpec.from_subsets(n, family).table() == want, family


def test_spec_verify_names_the_first_mask_where_the_fall_table_differs():
    # The fixtures, and a compiled word of each kind for n <= 6, each with
    # single-letter corruptions: every verdict is read off fall_table.
    rng = random.Random(33)
    pairs = [(fx.spec, fx.word) for fx in load_fixtures()]
    for n in range(1, 7):
        family = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
        formula = " | ".join("(" + " & ".join(f"r{i}" for i in s) + ")" for s in family)
        for spec in (
            PuzzleSpec.from_subsets(n, family),
            PuzzleSpec.from_formula(n, formula),
            PuzzleSpec.from_threshold(n, rng.randint(1, n)),
        ):
            pairs.append((spec, compile_circuit(spec, verify=False).word))
    mismatches = 0
    for spec, word in pairs:
        n, letters, reference = spec.n, word.letters, spec.table()
        words = [word]
        for at in rng.sample(range(len(letters)), min(3, len(letters))):
            words.append(Word(letters[:at] + letters[at + 1 :]))
            words.append(Word(letters[:at] + (-letters[at],) + letters[at + 1 :]))
        for w in words:
            table = fall_table(w, n)
            want = next((m for m in range(1 << n) if table[m] != reference[m]), None)
            mask, method, checked = spec.verify(w)
            assert mask == want, (spec, w)
            plan = ("table", 1 << n) if mask is not None else _verify_plan(n, spec.threshold_k)
            assert (method, checked) == plan, (spec, w)
            mismatches += mask is not None
        assert fall_table(word, n) == reference, spec
    assert mismatches > len(pairs)  # most corruptions break the word


def test_spec_json_round_trip():
    for spec in (
        PuzzleSpec.from_subsets(3, [{1}, {2, 3}]),
        PuzzleSpec.from_formula(4, "r1 & r2 | r3"),
        PuzzleSpec.from_threshold(4, 2),
    ):
        again = spec_from_json(spec_to_json(spec))
        assert again.n == spec.n
        assert again.table() == spec.table()
    data = json.loads(spec_to_json(PuzzleSpec.from_subsets(3, [{2, 3}, {1}])))
    assert data == {"n": 3, "subsets": [[1], [2, 3]]}


def test_spec_json_rejects_malformed():
    for bad in (
        "[]",
        "{}",
        '{"n": 2}',
        '{"n": 2, "subsets": [[0]]}',
        '{"n": true, "threshold_k": 1}',
        '{"n": 2, "threshold_k": true}',
        '{"n": 2, "subsets": [[true]]}',
    ):
        with pytest.raises(ValueError):
            spec_from_json(bad)


def test_validate_spec_normalizes_antichain():
    checked = validate_spec(PuzzleSpec.from_subsets(3, [{1}, {1, 2}, {1}]))
    assert checked.spec.subsets == (frozenset({1}),)
    assert len(checked.notices) == 2
    checked = validate_spec(PuzzleSpec.from_subsets(3, [{1, 2}, {3}, {2}, {1, 2}, {2}]))
    assert checked.spec.subsets == (frozenset({3}), frozenset({2}))
    assert checked.notices == (
        "dropped subset [1, 2]: superset of another listed subset",
        "dropped duplicate subset [1, 2]",
        "dropped duplicate subset [2]",
    )


def test_validate_spec_on_8000_chained_pairs_quickly():
    spec = PuzzleSpec.from_subsets(8001, [{i, i + 1} for i in range(1, 8001)])
    start = time.perf_counter()
    checked = validate_spec(spec)
    assert time.perf_counter() - start < 1
    assert checked.spec == spec and checked.notices == ()


def test_validate_spec_masks_only_the_nails_in_use():
    # A mask bit per nail index would take n/8 bytes per subset here.
    top = 10**9
    spec = PuzzleSpec.from_subsets(top, [[top - 2], [top - 2, top], [top - 1, top], [top - 2]])
    tracemalloc.start()
    try:
        checked = validate_spec(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert checked.spec.subsets == (frozenset({top - 2}), frozenset({top - 1, top}))
    assert checked.notices == (
        f"dropped subset [{top - 2}, {top}]: superset of another listed subset",
        f"dropped duplicate subset [{top - 2}]",
    )


def test_spec_construction_flags_unrealizable():
    with pytest.raises(UnrealizableSpecError):
        PuzzleSpec.from_threshold(2, 3)
    for build in (
        lambda: PuzzleSpec.from_threshold(2, -1),
        lambda: PuzzleSpec.from_threshold(0, 0),
        lambda: PuzzleSpec.from_subsets(3, []),
        lambda: PuzzleSpec.from_subsets(3, [{1}, set()]),
        lambda: PuzzleSpec.from_subsets(3, [{1, 5}]),
        lambda: PuzzleSpec.from_formula(2, "r1 & r3"),
    ):
        with pytest.raises(ValueError):
            build()


def test_validate_spec_threshold_zero_notice():
    checked = validate_spec(PuzzleSpec.from_threshold(2, 0))
    assert checked.notices
