"""Gate gadgets, template accounting, and the circuit-to-word compiler."""

import hashlib
import itertools
import math
import random
import signal
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from picturehang.circuits import (
    Const,
    Gate,
    MonotoneCircuit,
    PuzzleSpec,
    Var,
    circuit_table,
    parse_formula,
    subsets_to_circuit,
)
from picturehang.cli import main
from picturehang.compiler import BudgetExceededError, compile_circuit, lay_out
import picturehang.compiler as compiler
from picturehang.constructions import _balanced, _splice, build_e, e_word_length
from picturehang.gadgets import (
    _AND_TEMPLATE,
    _OR_TEMPLATE,
    _and_layout,
    _bracket,
    _product,
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
from picturehang.circuits import UnrealizableSpecError
from picturehang.puzzles import fixture_by_id
from picturehang.sortnet import build_k_of_n
from picturehang.verifier import _boundary_mismatch, _verify_plan, verify_threshold
from picturehang.words import (
    EMPTY_WORD,
    NailSubset,
    Word,
    _pack,
    _search_root,
    commutator,
    concat,
    fall_table,
    falls,
    format_word,
    inverse,
    raw_commutator,
    raw_concat,
    raw_inverse,
)

X3, X4 = Word((3,)), Word((4,))


def test_gadget_and_exact_shape():
    w = gadget_and(X3, X4)
    assert w.letters == (3, 3, 1, 3, 3, -1, 2, -4, -2, -4, 2, -4, -2, -4)
    assert len(w) == 14


def test_gadget_and_realizes_conjunction():
    assert fall_table(gadget_and(X3, X4), 4) == circuit_table(parse_formula("r3 & r4", n=4))
    assert fall_table(gadget_and(Word((1,)), Word((2,))), 2) == [False, False, False, True]


def test_gadget_or_realizes_disjunction_on_real_inputs():
    assert fall_table(gadget_or(Word((1,)), Word((2,))), 2) == [False, True, True, True]


def test_gadget_or_collapses_when_both_anchors_removed():
    # Removing nails 1 and 2 wipes every conjugator in the OR template, so
    # the residual is trivial regardless of the operands.  The table is the
    # requested disjunction except on supersets of {1,2} where r3|r4 is
    # false, of which mask 3 is the only one.
    got = fall_table(gadget_or(X3, X4), 4)
    want = circuit_table(parse_formula("r3 | r4", n=4))
    diffs = [m for m in range(16) if got[m] != want[m]]
    assert diffs == [0b0011]
    assert got[0b0011] is True


def test_gadgets_equal_their_group_formulas_on_random_words():
    # The module docstring's AND and OR, written with reduced group
    # operations, must give the gadgets' words letter for letter: laying a
    # template out and reducing once yields the same normal form.
    x1, x2 = Word((1,)), Word((2,))

    def and_formula(p, q):
        block = inverse(concat(q, x2, q, inverse(x2)))
        return concat(p, p, x1, p, p, inverse(x1), block, block)

    def or_formula(p, q):
        a, a_flip = concat(p, x1, p, inverse(x1)), concat(p, inverse(x1), p, x1)
        b, b_flip = concat(q, x2, q, inverse(x2)), concat(q, inverse(x2), q, x2)
        return and_formula(
            and_formula(commutator(a, b), commutator(a, b_flip)),
            and_formula(commutator(a_flip, b), commutator(a_flip, b_flip)),
        )

    rng = random.Random(2012)

    def random_word():
        letters = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(rng.randint(1, 7))]
        return Word(tuple(letters)).reduce()

    for _ in range(25):
        p, q = random_word(), random_word()
        assert gadget_and(p, q).letters == and_formula(p, q).letters
        assert gadget_or(p, q).letters == or_formula(p, q).letters


def test_spliced_templates_are_the_gadget_layouts():
    # Glue x1 and x2 are the templates' arguments 1 and 2, p and q are 3 and 4.
    rng = random.Random(19)
    for _ in range(10):
        p, q = (
            Word(tuple(rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(rng.randint(1, 5))))
            for _ in range(2)
        )
        a, a_flip = _bracket(p, Word((1,))), _bracket(p, Word((-1,)))
        b, b_flip = _bracket(q, Word((2,))), _bracket(q, Word((-2,)))
        or_layout = _and_layout(
            _and_layout(raw_commutator(a, b), raw_commutator(a, b_flip)),
            _and_layout(raw_commutator(a_flip, b), raw_commutator(a_flip, b_flip)),
        )
        glue_p_q = (Word((1,)), Word((2,)), p, q)
        for template, layout in ((_AND_TEMPLATE, _and_layout(p, q)), (_OR_TEMPLATE, or_layout)):
            assert raw_concat(*_splice(template, glue_p_q, raw_inverse)).letters == layout.letters


def _int_gadget(template, p, q):
    """The gadget's layout on ints, glue x1 and x2, reduced whole."""
    return raw_concat(*_splice(template, (Word((1,)), Word((2,)), p.reduce(), q.reduce()), raw_inverse)).reduce()


def test_packed_gadget_layouts_equal_the_int_layout():
    # Words on nails up to 127 are laid out packed; one holding nail 128 stays on ints.
    rng = random.Random(29)

    def random_word(pool):
        nails = rng.sample(pool, rng.randint(1, 4))
        return Word(tuple(rng.choice(nails) * rng.choice((1, -1)) for _ in range(rng.randint(0, 8))))

    for pool in ([1, 2, 3, 4, 5, 125, 126, 127], [1, 2, 3, 127, 128]):
        for _ in range(40):
            p, q = random_word(pool), random_word(pool)
            assert gadget_and(p, q).letters == _int_gadget(_AND_TEMPLATE, p, q).letters, (p, q)
            assert gadget_or(p, q).letters == _int_gadget(_OR_TEMPLATE, p, q).letters, (p, q)
            words = [random_word(pool) for _ in range(rng.randint(1, 6))]
            want = _balanced(words, lambda a, b: _int_gadget(_AND_TEMPLATE, a, b))
            assert gadget_and_tree(words).letters == want.letters, words
    p, q = Word((128, 1, -128)), Word((3, 3))
    assert gadget_and(p, q).max_nail == 128
    assert gadget_and(p, q).letters == _int_gadget(_AND_TEMPLATE, p, q).letters
    assert gadget_and_tree([p, q, p]).letters == _int_gadget(
        _AND_TEMPLATE, _int_gadget(_AND_TEMPLATE, p, q), p).letters


def test_gadget_and_tree_refuses_no_words():
    with pytest.raises(ValueError):
        gadget_and_tree([])


def test_template_accounting():
    assert flat_counts(and_template_tokens()) == (4, 4, 6)
    assert flat_counts(or_template_tokens()) == (256, 256, 566)
    folded = folded_counts(or_template_tokens())
    assert folded.recursive_units == 256
    assert folded.auxiliary_letters == 822
    assert folded.total == 1078


def test_each_template_reduced_is_its_gadget_on_x3_and_x4():
    assert Word(and_template_tokens()).reduce() == gadget_and(X3, X4)
    assert Word(or_template_tokens()).reduce() == gadget_or(X3, X4)


def test_splice_costs_match_templates():
    assert and_splice_cost(1, 1) == 14
    assert or_splice_cost(1, 1) == 1078
    assert len(gadget_and(X3, X4)) == and_splice_cost(1, 1)
    p, q = Word((3, 4)), Word((4, 3))
    assert and_splice_cost(len(p), len(q)) == 4 * 2 + 4 * 2 + 6


def test_estimate_length_examples():
    assert estimate_length(MonotoneCircuit(1, Var(1))) == 1
    assert estimate_length(parse_formula("r1 & r2")) == 14
    assert estimate_length(parse_formula("r1 | r2")) == 1078
    assert estimate_length(parse_formula("(r1 & r2) | (r3 & r4)")) == 256 * 14 * 2 + 566


def test_compile_single_var():
    report = compile_circuit(MonotoneCircuit(2, Var(2)))
    assert report.word == Word((2,))
    assert report.verified is True
    assert report.depth == 0


def test_compile_verifies_small_circuits():
    for text in ("r1 & r2", "r1 | r2", "r1 & (r2 | r3)", "r1 & r2 | r3 & r4"):
        c = parse_formula(text)
        report = compile_circuit(c)
        assert report.verified is True, text
        assert fall_table(report.word, c.n) == circuit_table(c)


def test_compile_length_discipline():
    for text in ("r1 & r2", "r1 | r2", "r1 & (r2 | r3)"):
        c = parse_formula(text)
        report = compile_circuit(c)
        assert report.reduced_length <= report.as_constructed_length
        assert report.as_constructed_length <= report.estimate
        assert report.estimate <= report.bound
        assert report.bound == 1078**report.depth


def test_compile_records_mismatch_with_witness(monkeypatch):
    # The OR gadget over nails 3,4 collapses at {1,2}; compiled in place of
    # the clause product, the report must say so.
    monkeypatch.setattr(compiler, "lay_out", lambda plan: gadget_or(X3, X4))
    spec = PuzzleSpec.from_subsets(4, [{3}, {4}])
    report = compile_circuit(spec, verify=True)
    assert report.verified is False
    assert report.mismatch_mask == 0b0011
    assert any("{1,2}" in note for note in report.notices)


def test_compile_budget_guard_uses_estimate():
    # 3-of-6's plan brackets x1 .. x3 with the pairs after them: 112
    # letters, against 240 for the product of its C(6, 4) = 15 clause words.
    # The budget is checked against those 112; the pieces laid out rotated
    # where they meet, ties broken by the piece after, give 92 (98 without
    # the look-ahead).
    spec = PuzzleSpec.from_threshold(6, 3)
    with pytest.raises(BudgetExceededError) as exc:
        compile_circuit(spec, budget=111)
    assert "112" in str(exc.value)
    report = compile_circuit(spec, budget=112)
    assert report.verified is True
    assert report.estimate == report.as_constructed_length == 112
    assert report.reduced_length == 92
    assert report.route == "factored"
    # (r1 | r2) & (r3 | r4) holds two 4-letter clause words.
    c = parse_formula("(r1 | r2) & (r3 | r4)")
    with pytest.raises(BudgetExceededError):
        compile_circuit(c, budget=7)
    assert compile_circuit(c, budget=8).estimate == 8


def test_compile_constant_roots():
    report = compile_circuit(MonotoneCircuit(2, Const(True)))
    assert report.word == EMPTY_WORD
    assert report.verified is True
    with pytest.raises(UnrealizableSpecError):
        compile_circuit(MonotoneCircuit(2, Const(False)))


def test_compile_folds_constants_before_gadgets():
    c = MonotoneCircuit(2, Gate("and", (Var(1), Const(True))))
    report = compile_circuit(c)
    assert report.word == Word((1,))
    assert report.depth == 0


def test_compile_gate_on_one_nail_is_its_generator():
    for op in ("and", "or"):
        report = compile_circuit(MonotoneCircuit(1, Gate(op, (Var(1), Var(1)))))
        assert report.word.letters == (1,)
        assert report.verified is True


def test_compile_skips_verification_beyond_limit():
    report = compile_circuit(MonotoneCircuit(21, Var(21)))
    assert report.verified is None
    assert any("verification skipped" in note for note in report.notices)


def test_the_skip_notice_past_the_limit_names_the_method_it_skipped():
    # A threshold would be checked on its boundary, 31 subsets for 30-of-30,
    # and any other spec on its table.
    report = build_k_of_n(30, 30)
    assert report.verified is None
    assert "boundary verification skipped: n=30 beyond the exhaustive limit 20" in report.notices
    report = compile_circuit(MonotoneCircuit(21, Var(21)))
    assert "table verification skipped: n=21 beyond the exhaustive limit 20" in report.notices


def _out_of_time(signum, frame):
    raise TimeoutError("the clause lowering ran past its alarm")


def test_compile_sizes_its_clauses_by_the_variables_in_use():
    # Neither n nor a variable's index sizes the clause lowering.  The alarm
    # turns a lowering that they size into a failure instead of a hang.
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(10)
    try:
        for text, n, nail in (("r1", 10**20, 1), (f"r{10**20}", None, 10**20)):
            report = compile_circuit(parse_formula(text, n))
            assert report.word.letters == (nail,)
            assert report.n == 10**20
            assert report.verified is None
        report = compile_circuit(parse_formula(f"(r{10**20} | r7) & r{10**19}"), verify=False)
        assert report.word == lay_out([(7, 10**20), (10**19,)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def test_compile_verify_off_leaves_none():
    report = compile_circuit(parse_formula("r1 & r2"), verify=False)
    assert report.verified is None


def test_compile_spec_normalization_notices():
    spec = PuzzleSpec.from_subsets(2, [{1}, {1}, {1, 2}])
    report = compile_circuit(spec)
    assert report.verified is True
    assert len([n for n in report.notices if "dropped" in n]) == 2
    assert fall_table(report.word, 2) == [False, True, False, True]


def test_compile_spec_on_high_nails_of_a_huge_n():
    top = 10**9
    spec = PuzzleSpec.from_subsets(top, [[i] for i in range(top - 29, top + 1)] + [[top - 1, top]])
    tracemalloc.start()
    try:
        report = compile_circuit(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7
    assert report.verified is None
    assert f"dropped subset [{top - 1}, {top}]: superset of another listed subset" in report.notices
    assert set(map(abs, report.word.letters)) == set(range(top - 29, top + 1))


def test_compile_threshold_zero_is_empty_word():
    report = compile_circuit(PuzzleSpec.from_threshold(3, 0))
    assert report.word == EMPTY_WORD
    assert report.verified is True


def test_compile_and_of_identical_operands_collapses(monkeypatch):
    # The AND gadget leaves the residual p^4 q^-4 once nails 1 and 2 are
    # gone; with p = q that cancels even though neither operand fell, so the
    # gadget AND of a subcircuit with itself misfires at {1,2}.  Compiled in
    # place of the clause product, the report must say so.
    p = gadget_and(X3, X4)
    monkeypatch.setattr(compiler, "lay_out", lambda plan: gadget_and(p, p))
    shared = Gate("and", (Var(3), Var(4)))
    c = MonotoneCircuit(4, Gate("and", (shared, shared)))
    report = compile_circuit(c)
    assert report.verified is False
    assert report.mismatch_mask == 0b0011


def test_compile_every_monotone_function_on_four_nails():
    # A nonconstant monotone function is the nonempty antichain of its
    # minimal felling subsets; on 4 nails there are 166 of them.  Its prime
    # clauses are the complements of its maximal hanging subsets.  The
    # product lays out exactly one balanced word per prime clause; x_sigma
    # X_tau lays out one letter per one-nail clause and two per nail of the
    # two-nail clauses; a factored word brackets shared nails.  Neither of
    # the last two is emitted unless shorter than the product.
    subsets = [
        frozenset(c) for size in range(1, 5) for c in itertools.combinations(range(1, 5), size)
    ]
    count = total = 0
    routes = {"clause-product": 0, "two-cnf": 0, "factored": 0}
    for bits in range(1, 1 << len(subsets)):
        family = [s for i, s in enumerate(subsets) if bits >> i & 1]
        if any(a < b for a in family for b in family):
            continue
        count += 1
        spec = PuzzleSpec.from_subsets(4, family)
        report = compile_circuit(spec)
        assert report.verified is True, family
        table = spec.table()
        assert fall_table(report.word, 4) == table, family
        maximal_hanging = [
            m for m in range(16)
            if not table[m] and all(table[m | 1 << i] for i in range(4) if not m >> i & 1)
        ]
        clauses = [[i + 1 for i in range(4) if not m >> i & 1] for m in maximal_hanging]
        product_length = sum(e_word_length(len(clause)) for clause in clauses)
        product = lay_out(sorted(clauses))
        if report.route == "two-cnf":
            singles = [clause for clause in clauses if len(clause) == 1]
            support = {nail for clause in clauses if len(clause) == 2 for nail in clause}
            assert report.as_constructed_length == len(singles) + 2 * len(support), family
        elif report.route == "clause-product":
            assert report.as_constructed_length == product_length, family
            assert report.word.letters == product.letters, family
        else:
            assert report.reduced_length < len(product.letters), family
            assert report.estimate < product_length, family
        assert report.reduced_length <= report.as_constructed_length <= product_length, family
        routes[report.route] += 1
        total += report.reduced_length
    assert count == 166
    # With every piece joined as given, the words emitted summed 1,396
    # letters (63, 62 and 41 by route).  Turned where they meet, more
    # products are no longer than their plan.
    assert routes == {"clause-product": 78, "two-cnf": 53, "factored": 35}
    assert total == 1392


def test_compile_n_minus_one_of_n_is_x_then_its_inverses():
    for n in range(3, 13):
        report = compile_circuit(PuzzleSpec.from_threshold(n, n - 1))
        assert report.word.letters == (*range(1, n + 1), *range(-1, -n - 1, -1)), n
        assert report.route == "two-cnf"
        assert report.verified is True
        assert report.estimate == report.as_constructed_length == report.reduced_length == 2 * n
        assert report.bound == 1078**report.depth >= report.estimate
    # 1-of-2 is the one clause {1, 2}: x1 x2 X1 X2 either way, so the product stays.
    assert compile_circuit(PuzzleSpec.from_threshold(2, 1)).route == "clause-product"
    # The budget is checked against the 2n letters, not the C(n, 2) clause words.
    spec = PuzzleSpec.from_threshold(3000, 2999)
    assert len(compile_circuit(spec, verify=False).word) == 6000
    with pytest.raises(BudgetExceededError):
        compile_circuit(spec, budget=5999, verify=False)


@pytest.mark.parametrize("fid", [2, 3, 6, 7])
def test_compile_reproduces_the_two_cnf_fixtures(fid):
    fx = fixture_by_id(fid)
    report = compile_circuit(fx.spec)
    assert report.word.letters == fx.word.letters
    assert report.route == "two-cnf"
    assert report.verified is True


def test_five_cycle_is_no_permutation_graph_and_is_factored():
    # [x1, x2 x5] takes the clauses of nail 1; the path 2-3-4-5 left is a
    # permutation graph.  Its word x2 x4 x3 x5 X4 X5 X2 X3 is laid out
    # inverted and rotated, x2 x5 x4 X5 X3 X4 X2 x3, which cancels the
    # bracket's last two letters X5 X2; joined as given it cancels one.
    report = compile_circuit(parse_formula("(r1|r2)&(r2|r3)&(r3|r4)&(r4|r5)&(r5|r1)"))
    assert report.route == "factored"
    assert format_word(report.word) == "x1 x2 x5 X1 x4 X5 X3 X4 X2 x3"
    assert report.estimate == report.as_constructed_length == 14
    assert len(lay_out([(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)])) == 16
    assert report.verified is True


def test_two_cnf_recognizer_runs_on_a_fixed_number_of_nails():
    # The word does not depend on the verification limit, only on the
    # recognizer's own bound on the nails of the 2-nail clauses.
    star = parse_formula("(r1|r2)&(r1|r3)&(r1|r4)")
    for limit in (3, 4, 20):
        report = compile_circuit(star, limit=limit)
        assert report.route == "two-cnf"
        assert format_word(report.word) == "x1 x2 x3 x4 X1 X4 X3 X2"
    # Past the bound the star brackets its shared nail instead: [x1, x2 ... xs].
    most = compiler._TWO_CNF_NAILS
    for s, route in ((most, "two-cnf"), (most + 1, "factored")):
        star = parse_formula(" & ".join(f"(r1 | r{i})" for i in range(2, s + 1)))
        report = compile_circuit(star)
        assert report.route == route, s
        assert len(report.word) == 2 * s


def test_compile_checks_the_budget_against_the_word_emitted():
    # 2-of-3 as a formula holds three 4-letter clause words, but the word
    # emitted is x1 x2 x3 X1 X2 X3, as from the threshold.
    for target in (parse_formula("(r1|r2)&(r1|r3)&(r2|r3)"), PuzzleSpec.from_threshold(3, 2)):
        report = compile_circuit(target, budget=6)
        assert format_word(report.word) == "x1 x2 x3 X1 X2 X3"
        assert report.estimate == 6
        with pytest.raises(BudgetExceededError, match="would have 6 letters"):
            compile_circuit(target, budget=5)
    # Every pair on the recognizer's most nails saves the most letters.
    most = compiler._TWO_CNF_NAILS
    pairs = itertools.combinations(range(1, most + 1), 2)
    clique = parse_formula(" & ".join(f"(r{a} | r{b})" for a, b in pairs))
    assert len(compile_circuit(clique, budget=2 * most).word) == 2 * most
    with pytest.raises(BudgetExceededError):
        compile_circuit(clique, budget=2 * most - 1)


def test_a_product_kept_over_its_plan_is_priced_at_the_plan():
    # The plan's closed form, 42 letters, bounds the word emitted either way.
    # Turned where its clause words meet, the product lays out 40 letters
    # against the plan's 42, so it is kept, with its own closed form of 56
    # as the estimate; the budget is still checked against the 42.
    spec = PuzzleSpec.from_subsets(
        8, [[5, 6], [7, 6, 1], [5, 3, 4], [5, 2, 6], [2, 6, 1], [4], [3, 7, 5, 6], [7, 2, 5]]
    )
    report = compile_circuit(spec, budget=42)
    assert (report.route, report.reduced_length, report.estimate) == ("clause-product", 40, 56)
    assert report.verified is True
    with pytest.raises(BudgetExceededError, match="would have 42 letters"):
        compile_circuit(spec, budget=41)
    # A tie keeps the product: turned, its 8 letters of closed form lay out
    # 6, as many as x_sigma X_tau, whose 6 the budget is checked against.
    spec = PuzzleSpec.from_subsets(4, [{3}, {1, 2}])
    report = compile_circuit(spec, budget=6)
    assert (report.route, report.reduced_length, report.estimate) == ("clause-product", 6, 8)
    assert report.verified is True
    with pytest.raises(BudgetExceededError, match="would have 6 letters"):
        compile_circuit(spec, budget=5)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(*[st.permutations(range(1, n + 1))] * 2)))
def test_compile_agreement_graph_two_cnfs(orders):
    # x_sigma X_tau realizes the 2-CNF of the pairs sigma and tau put in the
    # same order, a permutation graph, so the compiler must find some such
    # word whenever it is shorter than the product.
    sigma, tau = orders
    n = len(sigma)
    at_tau = {x: i for i, x in enumerate(tau)}
    pairs = sorted(
        tuple(sorted((a, b))) for a, b in itertools.combinations(sigma, 2) if at_tau[a] < at_tau[b]
    )
    if not pairs:
        return
    product = lay_out(pairs)
    support = {nail for pair in pairs for nail in pair}
    shorter = 2 * len(support) < len(product.letters)
    covers = {
        mask for mask in range(1 << n)
        if all(mask >> a - 1 & 1 or mask >> b - 1 & 1 for a, b in pairs)
    }
    # covering is monotone, so a cover is minimal when no one nail can go
    minimal = [m for m in covers if all(m & ~(1 << i) not in covers for i in range(n) if m >> i & 1)]
    subsets = [[i + 1 for i in range(n) if m >> i & 1] for m in sorted(minimal)]
    formula = " & ".join(f"(r{a} | r{b})" for a, b in pairs)
    for spec in (PuzzleSpec.from_subsets(n, subsets), PuzzleSpec.from_formula(n, formula)):
        report = compile_circuit(spec)
        assert report.verified is True
        if shorter:  # a factored word may beat x_sigma X_tau, never the other way
            assert report.route in ("two-cnf", "factored")
            assert len(report.word) <= 2 * len(support)
        assert len(report.word) <= len(product.letters)
        if report.route == "clause-product":
            assert report.word == product


def _formulas(n):
    names = st.lists(st.integers(1, n), min_size=1, unique=True)
    atleast = names.flatmap(
        lambda vs: st.integers(0, len(vs)).map(
            lambda k: f"atleast({k}; {', '.join(f'r{i}' for i in vs)})"
        )
    )
    leaves = st.integers(1, n).map(lambda i: f"r{i}") | atleast
    return st.recursive(
        leaves,
        lambda sub: st.tuples(sub, st.sampled_from("&|"), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        max_leaves=8,
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_compile_realizes_random_monotone_specs(data):
    n = data.draw(st.integers(1, 7))
    if data.draw(st.booleans()):
        terms = st.sets(st.integers(1, n), min_size=1)
        spec = PuzzleSpec.from_subsets(n, data.draw(st.lists(terms, min_size=1, max_size=6)))
    else:
        spec = PuzzleSpec.from_formula(n, data.draw(_formulas(n)))
    report = compile_circuit(spec, verify=False)
    assert fall_table(report.word, n) == spec.table()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_compile_lowers_inner_constants_and_shared_nodes(data):
    # Each gate takes two to four operands from every node built so far, so
    # constants land at any depth, subcircuits are shared and operands repeat.
    n = data.draw(st.integers(1, 6))
    leaves = st.integers(1, n).map(Var) | st.sampled_from([Const(True), Const(False)])
    nodes = data.draw(st.lists(leaves, min_size=1, max_size=4))
    for _ in range(data.draw(st.integers(0, 12))):
        op = data.draw(st.sampled_from(["and", "or"]))
        operands = data.draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=4))
        nodes.append(Gate(op, tuple(operands)))
    c = MonotoneCircuit(n, nodes[-1])
    table = circuit_table(c)
    if not any(table):
        with pytest.raises(UnrealizableSpecError):
            compile_circuit(c)
        return
    report = compile_circuit(c, verify=False)
    assert fall_table(report.word, n) == table
    if all(table):
        assert report.word.letters == ()
        assert "circuit is constantly true; compiles to the empty word" in report.notices


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.lists(st.integers(1, 8), min_size=1, max_size=6, unique=True), max_size=8))
@example([])
@example([[1, 2], [2, 3], [3, 1, 2], [1, 2]])
def test_clause_product_equals_the_product_of_clause_words(clauses):
    # The plain join of the clause words is their concatenation reduced; the
    # layout, which may rotate or invert a clause word where it meets the
    # product, falls on the same subsets and is no longer.
    want = raw_concat(*(build_e(c) for c in clauses)).reduce()
    assert tuple(_product(build_e(c).letters for c in clauses)) == want.letters
    # A plan's clauses are distinct: a clause word times its own inverse
    # would cancel where the product hangs.
    distinct = [c for i, c in enumerate(clauses) if set(c) not in map(set, clauses[:i])]
    plain = raw_concat(*(build_e(c) for c in distinct)).reduce()
    got = lay_out(distinct)
    assert got.reduced
    assert len(got.letters) <= len(plain.letters)
    assert fall_table(got, 8) == fall_table(plain, 8)


def _timed_compile(text):
    start = time.perf_counter()
    report = compile_circuit(parse_formula(text), verify=False)
    return report, time.perf_counter() - start


def test_compile_4000_term_and_chain_quickly():
    report, seconds = _timed_compile(" & ".join(f"r{i}" for i in range(1, 4001)))
    assert report.word.letters == tuple(range(1, 4001))
    assert seconds < 2


def test_compile_1000_overlapping_pair_clauses_quickly():
    # The chain is one AND gate, which absorbs once over all its operands,
    # so the clause lowering stays near linear in the number of clauses.
    for clauses in (1000, 4000):
        text = " & ".join(f"(r{i} | r{i + 1})" for i in range(1, clauses + 1))
        report, seconds = _timed_compile(text)
        assert report.word == concat(
            *(commutator(Word((i,)), Word((i + 1,))) for i in range(1, clauses + 1))
        )
        assert seconds < 2, clauses


def test_compile_or_of_two_400_term_ands_quickly():
    # 80,200 distinct unions; each is tested for a kept subset through its own two nails.
    half = " & ".join(f"r{i}" for i in range(1, 401))
    report, seconds = _timed_compile(f"({half}) | ({half})")
    assert report.word.letters == tuple(range(1, 401))
    assert seconds < 2


def test_compile_or_of_24_three_nail_terms_within_the_budget():
    # The OR chain is one gate folded a term at a time, so each step's
    # unions stay near the clauses kept.  Joined up a balanced tree, the
    # last OR multiplied two large halves and was refused by the budget.
    rng = random.Random(1)
    terms = [rng.sample(range(1, 25), 3) for _ in range(24)]
    text = " | ".join("(" + " & ".join(f"r{i}" for i in term) + ")" for term in terms)
    words = []
    for target in (parse_formula(text, 24), PuzzleSpec.from_subsets(24, terms)):
        start = time.perf_counter()
        words.append(compile_circuit(target, verify=False).word)
        assert time.perf_counter() - start < 5
    assert len(words[0].letters) == 120_604  # without the look-ahead 125,546; joined plain 148,300
    assert words[1] == words[0]


def test_compile_of_a_2000_nail_clause_keeps_no_template():
    # The clause word has 4,046,848 letters; its template is not kept once
    # the compile returns.
    tracemalloc.start()
    try:
        report = compile_circuit(parse_formula(" | ".join(f"r{i}" for i in range(1, 2001))))
        assert report.reduced_length == e_word_length(2000)
        del report
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2_000_000


# --- threshold verification on the boundary ----------------------------------


def _threshold_word(k: int, n: int) -> Word:
    return compile_circuit(PuzzleSpec.from_threshold(n, k), budget=None, verify=False).word


def _table_mismatch(w: Word, n: int, k: int):
    """The first mask where w's fall table differs from k-of-n's, read from ``fall_table``."""
    table = fall_table(w, n)
    return next((m for m, fell in enumerate(table) if fell != (m.bit_count() >= k)), None)


def test_threshold_verdicts_equal_the_table_on_every_k_of_n_up_to_ten():
    for n in range(1, 11):
        for k in range(n + 1):
            w = _threshold_word(k, n)
            assert _table_mismatch(w, n, k) is None
            assert _boundary_mismatch(_search_root(w, n), n, k) is None, (k, n)
            mask, method, checked = verify_threshold(w, n, k)
            assert mask is None, (k, n)
            if method == "boundary":
                assert checked == math.comb(n, k) + (k and math.comb(n, k - 1))
            else:
                assert checked == 1 << n


def test_threshold_words_are_factored_and_no_longer_than_the_product():
    for n in range(1, 15):
        for k in range(1, n + 1):
            report = compile_circuit(PuzzleSpec.from_threshold(n, k), verify=False)
            width = n - k + 1
            product = 2 * n if width == 2 and n > 2 else math.comb(n, width) * e_word_length(width)
            assert report.reduced_length <= report.as_constructed_length == report.estimate
            assert report.estimate <= product, (k, n)
            assert report.bound == 1078**report.depth >= report.estimate
            # Ties keep the product: one clause, one nail per clause, every pair.
            if width in (1, 2, n):
                assert report.route == ("two-cnf" if width == 2 and n > 2 else "clause-product")
                assert report.estimate == product
            else:
                assert report.route == "factored" and report.estimate < product, (k, n)
    # Joined plain, the three words had 112, 5,880 and 1,936 letters, and
    # 98, 5,220 and 1,750 turned without the look-ahead.
    for k, n, letters in ((3, 6, 92), (7, 12, 5018), (11, 14, 1606)):
        assert len(_threshold_word(k, n)) == letters
    report = compile_circuit(PuzzleSpec.from_threshold(19, 10), verify=False)
    assert report.estimate == 1_372_800  # the product: 10,346,336
    assert report.reduced_length == 1_074_160  # without the look-ahead 1,201,568; joined plain 1,372,800
    # A formula or subset spec whose clauses are every w-subset of its nails takes the same plan.
    report = compile_circuit(parse_formula("atleast(3; r2, r4, r6, r8, r10, r12)"))
    assert (report.route, report.reduced_length, report.verified) == ("factored", 92, True)
    assert report.word.letters == tuple(2 * x for x in _threshold_word(3, 6).letters)
    # Past the plan table's work bound a threshold is priced as the product.
    for k, n in ((2, 366), (3, 260), (30, 60)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            compile_circuit(PuzzleSpec.from_threshold(n, k))
        assert time.perf_counter() - start < 1, (k, n)


def _plain_product(plan):
    """A plan's pieces joined as given: `_product` over their words, bracket inners joined the same way."""

    def letters(piece):
        if isinstance(piece, compiler._Bracket):
            a, b = list(build_e(piece.prefix).letters), _plain_product(piece.inner)
            return [*a, *b, *(-x for x in reversed(a)), *(-x for x in reversed(b))]
        if isinstance(piece, compiler._Pairs):
            return [*piece.sigma, *(-x for x in piece.tau)]
        return build_e(piece).letters

    return _product(map(letters, plan))


def _emitted_plan(spec, route):
    """The plan whose layout `compile_circuit` emitted under ``route``."""
    if spec.threshold_k is not None:
        return compiler._threshold_plan(range(1, spec.n + 1), spec.n - spec.threshold_k + 1)[2]
    clauses = compiler._prime_clauses(spec.to_circuit(), None)[0]
    return clauses if route == "clause-product" else compiler._family_plan(clauses)[2]


def test_rotated_words_are_exact_and_no_longer_than_the_plain_join():
    # Rotating or inverting a piece where it meets the product keeps the
    # word's fall function, and the layout never emits a word longer than
    # its plan joined plain: every k-of-n on up to 14 nails, the 166
    # monotone functions of four nails and seeded subset specs.
    specs = [PuzzleSpec.from_threshold(n, k) for n in range(1, 15) for k in range(1, n + 1)]
    subsets = [c for size in range(1, 5) for c in itertools.combinations(range(1, 5), size)]
    for bits in range(1, 1 << len(subsets)):
        family = [set(c) for i, c in enumerate(subsets) if bits >> i & 1]
        if not any(a < b for a in family for b in family):
            specs.append(PuzzleSpec.from_subsets(4, family))
    rng = random.Random(36)
    for _ in range(300):
        n = rng.randint(2, 10)
        terms = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 6))]
        specs.append(PuzzleSpec.from_subsets(n, terms))
    turned = 0
    for spec in specs:
        report = compile_circuit(spec, budget=None, verify=False)
        plain = _plain_product(_emitted_plan(spec, report.route))
        assert report.reduced_length <= len(plain), spec
        turned += report.reduced_length < len(plain)
        if spec.n <= 10:
            assert fall_table(report.word, spec.n) == spec.table(), spec
        else:
            assert verify_threshold(report.word, spec.n, spec.threshold_k)[0] is None, spec
    assert len(specs) == 105 + 166 + 300
    assert turned == 95


def test_turn_ties_go_to_the_start_the_next_piece_cancels_most_against():
    # Taking the first forward start of those that cancel equally, the three
    # words had 50, 98 and 98 letters.
    for k, n, letters in ((2, 5, 40), (2, 6, 76), (3, 6, 92)):
        report = build_k_of_n(k, n)
        assert (report.reduced_length, report.verified) == (letters, True), (k, n)


def _plan_clauses(plan):
    """The clauses a plan's pieces are graded over, repeats included, as frozensets."""
    for piece in plan:
        if isinstance(piece, compiler._Bracket):
            yield from (frozenset(piece.prefix) | clause for clause in _plan_clauses(piece.inner))
        elif isinstance(piece, compiler._Pairs):
            at = {x: i for i, x in enumerate(piece.tau)}
            pairs = itertools.combinations(piece.sigma, 2)
            yield from (frozenset((a, b)) for a, b in pairs if at[a] < at[b])
        else:
            yield frozenset(piece)


def test_no_plan_the_compiler_lays_out_repeats_a_clause():
    # `lay_out` may invert a piece against another graded over the same
    # clause, which changes the fall function: [x1, x2] times its own
    # inverse is the empty word.  Every plan `compile_circuit` lays out
    # holds each of the spec's prime clauses once.
    assert lay_out([(1, 2), (1, 2)]).letters == ()
    for n in range(1, 11):
        for k in range(1, n + 1):
            got = list(_plan_clauses(compiler._threshold_plan(range(1, n + 1), n - k + 1)[2]))
            assert len(got) == len(set(got)) == math.comb(n, n - k + 1), (k, n)
            assert all(len(clause) == n - k + 1 for clause in got)
    subsets = [c for size in range(1, 5) for c in itertools.combinations(range(1, 5), size)]
    checked = 0
    for bits in range(1, 1 << len(subsets)):
        family = [set(c) for i, c in enumerate(subsets) if bits >> i & 1]
        if any(a < b for a in family for b in family):
            continue
        clauses = compiler._prime_clauses(PuzzleSpec.from_subsets(4, family).to_circuit(), None)[0]
        for plan in (clauses, compiler._family_plan(clauses)[2]):
            got = list(_plan_clauses(plan))
            assert len(got) == len(set(got)) and set(got) == set(map(frozenset, clauses)), family
        checked += 1
    assert checked == 166


def test_corrupted_factored_threshold_words_are_reported():
    rng = random.Random(24)
    for k, n in ((4, 6), (7, 10)):
        letters = list(_threshold_word(k, n).letters)
        assert verify_threshold(Word(tuple(letters)), n, k)[0] is None
        for _ in range(5):
            at = rng.randrange(len(letters))
            bad = Word(tuple(letters[:at] + [-letters[at]] + letters[at + 1 :]))
            mask = verify_threshold(bad, n, k)[0]
            assert mask is not None and mask == _table_mismatch(bad, n, k), (k, n, at)


def test_compile_a_sample_of_five_nail_functions_exactly():
    # 150 seeded antichains of subsets of five nails; the product, x_sigma
    # X_tau or the factored word, whichever is emitted, falls on each
    # function's whole table and is no longer than the product.
    rng = random.Random(5)
    subsets = [c for size in range(1, 6) for c in itertools.combinations(range(1, 6), size)]
    routes = set()
    for _ in range(150):
        family: list = []
        for subset in rng.sample(subsets, rng.randrange(1, 12)):
            if not any(set(f) <= set(subset) or set(subset) <= set(f) for f in family):
                family.append(subset)
        spec = PuzzleSpec.from_subsets(5, family)
        report = compile_circuit(spec, verify=False)
        table = spec.table()
        assert fall_table(report.word, 5) == table, family
        clauses = [
            tuple(i + 1 for i in range(5) if not m >> i & 1) for m in range(32)
            if not table[m] and all(table[m | 1 << i] for i in range(5) if not m >> i & 1)
        ]
        assert report.reduced_length <= len(lay_out(sorted(clauses))), family
        routes.add(report.route)
    assert routes == {"clause-product", "two-cnf", "factored"}


def test_threshold_verdicts_equal_the_table_on_corrupted_words():
    rng = random.Random(17)
    checked = mismatches = 0
    for n in range(1, 8):
        for k in range(1, n + 1):
            letters = list(_threshold_word(k, n).letters)
            for _ in range(2):
                at = rng.randrange(len(letters))
                dropped = Word(tuple(letters[:at] + letters[at + 1 :]))
                negated = Word(tuple(letters[:at] + [-letters[at]] + letters[at + 1 :]))
                for w in (dropped, negated):
                    want = _table_mismatch(w, n, k)
                    found = _boundary_mismatch(_search_root(w, n), n, k)
                    assert (found is None) == (want is None), (k, n, w)
                    if found is not None:
                        assert (found.bit_count() >= k) != falls(w, NailSubset(n, found))
                    assert verify_threshold(w, n, k)[0] == want, (k, n, w)
                    checked += 1
                    mismatches += want is not None
    assert mismatches > checked // 2  # most corruptions break the word


@pytest.mark.parametrize("shared", [0, 10**9])
def test_boundary_shares_prefix_residuals_and_agrees_with_the_table(monkeypatch, shared):
    # Residuals past words._SHARED_PREFIX_LETTERS are stripped one nail at a
    # time and shared; set to 0 every subset is reached that way, and set
    # past every word none is.  Rows of n = 9 and 10 hold 294 to 612 letters.
    monkeypatch.setattr("picturehang.verifier._SHARED_PREFIX_LETTERS", shared)
    rng = random.Random(36)
    rows = [(k, n) for n in range(1, 8) for k in range(1, n + 1)] + [(5, 8), (6, 9), (7, 10)]
    checked = mismatches = 0
    for k, n in rows:
        letters = list(_threshold_word(k, n).letters)
        assert _boundary_mismatch(_search_root(Word(tuple(letters)), n), n, k) is None, (k, n)
        for _ in range(3):
            at = rng.randrange(len(letters))
            for w in (
                Word(tuple(letters[:at] + letters[at + 1 :])),
                Word(tuple(letters[:at] + [-letters[at]] + letters[at + 1 :])),
            ):
                want = _table_mismatch(w, n, k)
                found = _boundary_mismatch(_search_root(w, n), n, k)
                assert (found is None) == (want is None), (k, n, w)
                if found is not None:
                    assert found.bit_count() in (k - 1, k), (k, n, w)
                    assert (found.bit_count() >= k) != falls(w, NailSubset(n, found)), (k, n, w)
                checked += 1
                mismatches += want is not None
    assert mismatches > checked // 2


def test_compile_reports_the_first_mismatch_of_a_corrupted_threshold_word(monkeypatch):
    w = _threshold_word(4, 6)
    bad = Word(w.letters[:7] + w.letters[8:])
    monkeypatch.setattr(compiler, "lay_out", lambda plan: bad)
    report = compile_circuit(PuzzleSpec.from_threshold(6, 4))
    assert report.verified is False
    assert report.mismatch_mask == _table_mismatch(bad, 6, 4) is not None
    assert report.verify_method == "table"
    assert report.masks_checked == 64


def test_compile_notice_is_the_verify_line(monkeypatch, capsys, tmp_path):
    w = _threshold_word(4, 6)
    bad = Word(w.letters[:7] + w.letters[8:])
    monkeypatch.setattr(compiler, "lay_out", lambda plan: bad)
    notice = compile_circuit(PuzzleSpec.from_threshold(6, 4)).notices[-1]
    (tmp_path / "w.txt").write_text(format_word(bad))
    (tmp_path / "spec.json").write_text('{"n": 6, "threshold_k": 4}')
    argv = ["verify", "--word", str(tmp_path / "w.txt"), "--spec", str(tmp_path / "spec.json")]
    assert main(argv) == 1
    assert capsys.readouterr().out == notice + "\n"
    assert notice.startswith("mismatch at subset {")
    assert main(["compile", "--spec", str(tmp_path / "spec.json")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == notice


def test_twenty_of_twenty_verifies_on_its_boundary():
    report = build_k_of_n(20, 20)
    assert report.verified is True
    assert report.verify_method == "boundary"
    assert report.masks_checked == 21


def test_auto_verification_caps_the_method_that_would_run():
    # 14-of-16's boundary of 680 subsets is within the work cap.
    report = build_k_of_n(14, 16)
    assert (report.verified, report.verify_method, report.masks_checked) == (True, "boundary", 680)
    # 16-of-20 is 20,349 boundary subsets of a 29,166-letter word, the OR of
    # 20 nails 2^20 table subsets of its 448-letter clause word: over the cap
    # either way.
    any_of_twenty = parse_formula(" | ".join(f"r{i}" for i in range(1, 21)))
    for target, method in ((PuzzleSpec.from_threshold(20, 16), "boundary"), (any_of_twenty, "table")):
        report = compile_circuit(target)
        assert (report.verified, report.verify_method) == (None, "skipped")
        notice = f"{method} verification skipped: past the auto-verification work cap"
        assert report.notices == (notice,)
    # The cap prices what `_verify_plan` says would run, and the check runs it.
    assert _verify_plan(16, 14) == ("boundary", 680)
    assert _verify_plan(9, None) == ("table", 512)
    assert build_k_of_n(3, 6).verified is True


def test_every_threshold_checks_on_its_boundary():
    # Sharing the residuals of common first nails, the boundary was faster
    # than the walk of every subset on 27 of the 28 compiled k-of-n with
    # n <= 14 that took the walk before, so every threshold is checked
    # there; rows such as 6-of-14, 5,005 subsets of 34,378 letters, come
    # under the work cap.
    assert all(
        _verify_plan(n, k) == ("boundary", math.comb(n, k) + (k and math.comb(n, k - 1)))
        for n in range(1, 21)
        for k in range(n + 1)
    )
    for k, n, masks in ((3, 12, 286), (7, 12, 1716), (6, 14, 5005)):
        report = build_k_of_n(k, n)
        assert (report.verified, report.verify_method, report.masks_checked) == (True, "boundary", masks)


def test_verify_method_of_other_specs_and_of_skipped_checks():
    report = compile_circuit(PuzzleSpec.from_subsets(3, [{1, 2}, {3}]))
    assert (report.verified, report.verify_method, report.masks_checked) == (True, "table", 8)
    report = compile_circuit(parse_formula("r1 & r2"))
    assert (report.verify_method, report.masks_checked) == ("table", 4)
    report = compile_circuit(PuzzleSpec.from_threshold(4, 2), verify=False)
    assert (report.verified, report.verify_method, report.masks_checked) == (None, "skipped", 0)


def test_every_threshold_word_up_to_12_nails_keeps_its_letters():
    # The sha256 of every k-of-n word with n <= 12, and their total letters,
    # as laid out when turn ties were first broken by looking one piece ahead.
    digest, total = hashlib.sha256(), 0
    for n in range(1, 13):
        for k in range(1, n + 1):
            letters = build_k_of_n(k, n, budget=None, verify=False).word.letters
            digest.update(repr(letters).encode())
            total += len(letters)
    assert total == 63642
    assert digest.hexdigest() == "8c4e8ee5a59246483f9bf0126f375974984b49dfd206da47c022fbfbb952cf0d"


# The letter walks `compiler._meet` and `_look_ahead` took on int letters
# before `_look_ahead` searched runs in C, kept as the oracle of both forms.
def _walked_meet(out, word, ahead):
    """(cut, ties, chosen tie) as the walks found them; ties is None for a piece joined as given."""
    x = -out[-1]
    size, most = len(word), min(len(word), len(out))
    cut = 0
    if word[0] == -word[-1]:
        while cut < most and word[cut] == -out[-1 - cut]:
            cut += 1
        return cut, None, None
    ties = []
    start = -1
    for _ in range(word.count(x)):
        start = word.index(x, start + 1)
        n = 1
        while n < most and word[start - size + n] == -out[-1 - n]:
            n += 1
        if n > cut:
            cut, ties = n, [(start, False)]
        elif n == cut:
            ties.append((start, False))
    end = -1
    for _ in range(word.count(-x)):
        end = word.index(-x, end + 1)
        n = 1
        while n < most and word[end - n] == out[-1 - n]:
            n += 1
        if n > cut:
            cut, ties = n, [(end, True)]
        elif n == cut:
            ties.append((end, True))
    if ahead is None or len(ties) == 1:
        return cut, ties, ties[0]
    return cut, ties, _walked_look_ahead(out, word, cut, ties, ahead)


def _walked_look_ahead(out, word, cut, ties, ahead):
    size = len(word)
    if cut == size:
        return ties[0]
    span = len(ahead)
    most = min(span, len(out) - 2 * cut + size)
    take = min(size - cut, most)
    doubled, negated = word + word, [-x for x in word] * 2
    rest = out[-1 - cut : -1 - cut - most + take : -1]
    minus = [-x for x in rest]
    best, chosen = 0, ties[0]
    for at, inverted in ties:
        if inverted:
            tail, against = negated[at + 1 : at + 1 + take], doubled[at + 1 : at + 1 + take]
        else:
            tail = doubled[at + size - 1 : at + size - 1 - take : -1]
            against = negated[at + size - 1 : at + size - 1 - take : -1]
        tail += rest
        against += minus
        for j in [i for i, y in enumerate(ahead) if y == against[0]]:
            j -= span
            n = 1
            while n < most and ahead[j + n] == against[n]:
                n += 1
            if n > best:
                best, chosen = n, (at, inverted)
                if n == most:
                    return chosen
        for j in [i for i, y in enumerate(ahead) if y == tail[0]]:
            n = 1
            while n < most and ahead[j - n] == tail[n]:
                n += 1
            if n > best:
                best, chosen = n, (at, inverted)
                if n == most:
                    return chosen
    return chosen


def _reduced_letters(rng, nails, size, block=None):
    """A reduced word of ``size`` letters: random, or ``block`` repeated with a few letters changed."""
    letters = []
    while len(letters) < size:
        if block is not None and rng.random() < 0.95:
            x = block[len(letters) % len(block)]
        else:
            x = rng.choice([-1, 1]) * rng.choice(nails)
        if not letters or x != -letters[-1]:
            letters.append(x)
    return letters


def _meet_case(rng, nails, size, repeat):
    """out, word and ahead for `_meet`: the last of out inverts a letter of word, or its inverse does."""
    block = _reduced_letters(rng, nails, rng.randint(3, 12)) if repeat else None
    word = _reduced_letters(rng, nails, size, block)
    while word[0] == -word[-1] and rng.random() < 0.9:
        word = _reduced_letters(rng, nails, size, block)
    start = rng.randrange(size)
    run = [-x for x in reversed((word * 2)[start : start + rng.choice((1, 2, rng.randint(1, size)))])]
    if rng.random() < 0.5:  # out ends in a rotation of the inverse, or of word itself
        run = [-x for x in reversed(run)]
    out = _reduced_letters(rng, nails, rng.randint(0, 2 * size), block)
    while out and run and out[-1] == -run[0]:
        out.pop()
    out += run
    ahead = None
    if rng.random() < 0.8:
        ahead = _reduced_letters(rng, nails, rng.randint(2, 2 * size), block)
        while ahead[0] == -ahead[-1]:
            ahead.pop()
    return out, word, ahead


def _check_meet(out, word, ahead):
    """`_meet` on int letters, and packed as `lay_out` packs them where the nails allow, against the walks."""
    want_cut, ties, chosen = _walked_meet(out, word, ahead)
    forms = [(list(out), list(word), ahead, list)]
    if max(map(abs, out + word + (ahead or []))) <= 127:
        forms.append((bytearray(_pack(out)), _pack(word), ahead and _pack(ahead), _pack))
    for out_form, word_form, ahead_form, form in forms:
        seen = []
        real = compiler._look_ahead

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        compiler._look_ahead = spy
        try:
            cut, letters = compiler._meet(out_form, word_form, ahead_form)
        finally:
            compiler._look_ahead = real
        assert cut == want_cut
        if ties is None:
            assert letters == word_form
            continue
        at, inverted = chosen
        turned = [-x for x in reversed(word[: at + 1])] + [-x for x in reversed(word[at + 1 :])]
        assert letters == form(turned if inverted else word[at:] + word[:at])
        if ahead is not None and len(ties) > 1:
            assert seen == [chosen]
            assert compiler._look_ahead(out_form, word_form, cut, ties, ahead_form) == chosen


def test_meet_searches_the_starts_the_letter_walks_found():
    # Every cut, start and tie `_meet` and `_look_ahead` take, on int and on
    # packed letters, is the one the letter walks took: on grid-sized
    # pieces; on long pieces of repeated runs, and on such pieces over nails
    # above 127, which stay on ints; and on the meets of 2-of-40's layout,
    # with up to 64 tied starts.
    rng = random.Random(38)
    small, large = range(1, 7), range(1, 9)
    for _ in range(600):
        _check_meet(*_meet_case(rng, small, rng.randint(2, 30), rng.random() < 0.5))
    for nails in (large, range(121, 141)):
        for _ in range(150):
            _check_meet(*_meet_case(rng, nails, rng.randint(64, 400), True))
    calls = []
    real = compiler._meet

    def spy(out, word, ahead):
        calls.append((list(out), list(word), ahead))
        return real(out, word, ahead)

    compiler._meet = spy
    try:
        lay_out(compiler._threshold_plan(range(1, 41), 39)[2])
    finally:
        compiler._meet = real
    ties = [len(_walked_meet(*call)[1] or ()) for call in calls]
    assert max(ties) >= 64
    for call in calls:
        _check_meet(*call)


@pytest.mark.parametrize("k, m", [(2, 12), (3, 11), (5, 14)])
def test_a_formula_past_nail_127_compiles_to_its_word_from_nail_1_shifted(k, m, monkeypatch):
    # At most 127 nails in use past nail 127 are laid out relabeled 1..h, on
    # bytes; a relabeling in order changes no word.
    plans = []
    real = compiler.lay_out
    monkeypatch.setattr(compiler, "lay_out", lambda plan: plans.append(type(plan)) or real(plan))

    def word(first):
        text = f"atleast({k}; {', '.join(f'r{i}' for i in range(first, first + m))})"
        return compile_circuit(parse_formula(text), budget=None, verify=False).word.letters

    assert word(121) == tuple(x + 120 if x > 0 else x - 120 for x in word(1))
    assert set(plans) == {compiler._Packed}
