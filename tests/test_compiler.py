"""Gate gadgets, template accounting, and the circuit-to-word compiler."""

import itertools
import math
import random
import time

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
from picturehang.compiler import BudgetExceededError, clause_product, compile_circuit
import picturehang.compiler as compiler
from picturehang.constructions import build_e, e_word_length
from picturehang.gadgets import (
    and_splice_cost,
    and_template_tokens,
    estimate_length,
    flat_counts,
    folded_counts,
    gadget_and,
    gadget_or,
    or_splice_cost,
    or_template_tokens,
)
from picturehang.circuits import UnrealizableSpecError
from picturehang.puzzles import fixture_by_id
from picturehang.sortnet import build_k_of_n
from picturehang.words import (
    EMPTY_WORD,
    NailSubset,
    Word,
    _boundary_mismatch,
    _boundary_reads_less,
    _search_root,
    commutator,
    concat,
    fall_table,
    falls,
    first_mismatch,
    format_word,
    inverse,
    raw_concat,
    verify_threshold,
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


def test_template_accounting():
    assert flat_counts(and_template_tokens()) == (4, 4, 6)
    assert flat_counts(or_template_tokens()) == (256, 256, 566)
    folded = folded_counts(or_template_tokens())
    assert folded.recursive_units == 256
    assert folded.auxiliary_letters == 822
    assert folded.total == 1078


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
    monkeypatch.setattr(compiler, "clause_product", lambda clauses: gadget_or(X3, X4))
    spec = PuzzleSpec.from_subsets(4, [{3}, {4}])
    report = compile_circuit(spec, verify=True)
    assert report.verified is False
    assert report.mismatch_mask == 0b0011
    assert any("{1,2}" in note for note in report.notices)


def test_compile_budget_guard_uses_estimate():
    # 3-of-6 is the product of C(6, 4) = 15 clause words of 16 letters.
    spec = PuzzleSpec.from_threshold(6, 3)
    with pytest.raises(BudgetExceededError) as exc:
        compile_circuit(spec, budget=100)
    assert "240" in str(exc.value)
    report = compile_circuit(spec, budget=None)
    assert report.verified is True
    assert report.estimate == report.as_constructed_length == 240
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
    c = MonotoneCircuit(2, Gate("and", Var(1), Const(True)))
    report = compile_circuit(c)
    assert report.word == Word((1,))
    assert report.depth == 0


def test_compile_gate_on_one_nail_is_its_generator():
    for op in ("and", "or"):
        report = compile_circuit(MonotoneCircuit(1, Gate(op, Var(1), Var(1))))
        assert report.word.letters == (1,)
        assert report.verified is True


def test_compile_skips_verification_beyond_limit():
    report = compile_circuit(MonotoneCircuit(21, Var(21)))
    assert report.verified is None
    assert any("verification skipped" in note for note in report.notices)


def test_compile_verify_off_leaves_none():
    report = compile_circuit(parse_formula("r1 & r2"), verify=False)
    assert report.verified is None


def test_compile_spec_normalization_notices():
    spec = PuzzleSpec.from_subsets(2, [{1}, {1}, {1, 2}])
    report = compile_circuit(spec)
    assert report.verified is True
    assert len([n for n in report.notices if "dropped" in n]) == 2
    assert fall_table(report.word, 2) == [False, True, False, True]


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
    monkeypatch.setattr(compiler, "clause_product", lambda clauses: gadget_and(p, p))
    shared = Gate("and", Var(3), Var(4))
    c = MonotoneCircuit(4, Gate("and", shared, shared))
    report = compile_circuit(c)
    assert report.verified is False
    assert report.mismatch_mask == 0b0011


def test_compile_every_monotone_function_on_four_nails():
    # A nonconstant monotone function is the nonempty antichain of its
    # minimal felling subsets; on 4 nails there are 166 of them.  Its prime
    # clauses are the complements of its maximal hanging subsets.  The
    # product lays out exactly one balanced word per prime clause; x_sigma
    # X_tau lays out one letter per one-nail clause and two per nail of the
    # two-nail clauses, and is never longer.
    subsets = [
        frozenset(c) for size in range(1, 5) for c in itertools.combinations(range(1, 5), size)
    ]
    count = 0
    routes = {"clause-product": 0, "two-cnf": 0}
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
        if report.route == "two-cnf":
            singles = [clause for clause in clauses if len(clause) == 1]
            support = {nail for clause in clauses if len(clause) == 2 for nail in clause}
            assert report.as_constructed_length == len(singles) + 2 * len(support), family
        else:
            assert report.as_constructed_length == product_length, family
        assert report.as_constructed_length <= product_length, family
        routes[report.route] += 1
    assert count == 166
    assert routes == {"clause-product": 104, "two-cnf": 62}


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


def test_five_cycle_is_no_permutation_graph_and_keeps_the_product():
    report = compile_circuit(parse_formula("(r1|r2)&(r2|r3)&(r3|r4)&(r4|r5)&(r5|r1)"))
    assert report.route == "clause-product"
    assert report.word == clause_product([(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)])
    assert report.verified is True


def test_two_cnf_recognizer_runs_on_a_fixed_number_of_nails():
    # The word does not depend on the verification limit, only on the
    # recognizer's own bound on the nails of the 2-nail clauses.
    star = parse_formula("(r1|r2)&(r1|r3)&(r1|r4)")
    for limit in (3, 4, 20):
        report = compile_circuit(star, limit=limit)
        assert report.route == "two-cnf"
        assert format_word(report.word) == "x1 x2 x3 x4 X1 X4 X3 X2"
    most = compiler._TWO_CNF_NAILS
    for s, route in ((most, "two-cnf"), (most + 1, "clause-product")):
        star = parse_formula(" & ".join(f"(r1 | r{i})" for i in range(2, s + 1)))
        assert compile_circuit(star).route == route, s


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
    product = clause_product(pairs)
    support = {nail for pair in pairs for nail in pair}
    route = "two-cnf" if 2 * len(support) < len(product.letters) else "clause-product"
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
        assert report.route == route
        assert len(report.word) <= len(product.letters)
        if route == "clause-product":
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
    # Each gate takes its children from every node built so far, so
    # constants land at any depth and subcircuits are shared.
    n = data.draw(st.integers(1, 6))
    leaves = st.integers(1, n).map(Var) | st.sampled_from([Const(True), Const(False)])
    nodes = data.draw(st.lists(leaves, min_size=1, max_size=4))
    for _ in range(data.draw(st.integers(0, 12))):
        op = data.draw(st.sampled_from(["and", "or"]))
        left, right = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
        nodes.append(Gate(op, left, right))
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
    want = raw_concat(*(build_e(c) for c in clauses)).reduce()
    got = clause_product(clauses)
    assert got.letters == want.letters
    assert got.reduced


def _timed_compile(text):
    start = time.perf_counter()
    report = compile_circuit(parse_formula(text), verify=False)
    return report, time.perf_counter() - start


def test_compile_4000_term_and_chain_quickly():
    report, seconds = _timed_compile(" & ".join(f"r{i}" for i in range(1, 4001)))
    assert report.word.letters == tuple(range(1, 4001))
    assert seconds < 2


def test_compile_1000_overlapping_pair_clauses_quickly():
    report, seconds = _timed_compile(" & ".join(f"(r{i} | r{i + 1})" for i in range(1, 1001)))
    assert report.word == concat(
        *(commutator(Word((i,)), Word((i + 1,))) for i in range(1, 1001))
    )
    assert seconds < 2


# --- threshold verification on the boundary ----------------------------------


def _threshold_word(k: int, n: int) -> Word:
    return compile_circuit(PuzzleSpec.from_threshold(n, k), budget=None, verify=False).word


def _table_mismatch(w: Word, n: int, k: int):
    return first_mismatch(w, n, [m.bit_count() >= k for m in range(1 << n)])


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


def test_compile_reports_the_first_mismatch_of_a_corrupted_threshold_word(monkeypatch):
    w = _threshold_word(4, 6)
    bad = Word(w.letters[:7] + w.letters[8:])
    monkeypatch.setattr(compiler, "clause_product", lambda clauses: bad)
    report = compile_circuit(PuzzleSpec.from_threshold(6, 4))
    assert report.verified is False
    assert report.mismatch_mask == _table_mismatch(bad, 6, 4) is not None
    assert report.verify_method == "table"
    assert report.masks_checked == 64


def test_twenty_of_twenty_verifies_on_its_boundary():
    report = build_k_of_n(20, 20)
    assert report.verified is True
    assert report.verify_method == "boundary"
    assert report.masks_checked == 21


def test_the_walk_stays_where_it_reads_less():
    # 7-of-12 walks in about a third of the boundary's time, 3-of-12 in half.
    assert not _boundary_reads_less(12, 7)
    assert not _boundary_reads_less(12, 3)
    assert _boundary_reads_less(14, 11) and _boundary_reads_less(14, 12)
    # k <= 2: both make the same strips, and the boundary builds no table.
    assert all(_boundary_reads_less(n, k) for n in range(1, 21) for k in range(min(n, 2) + 1))
    report = build_k_of_n(3, 12)
    assert (report.verified, report.verify_method, report.masks_checked) == (True, "table", 4096)


def test_verify_method_of_other_specs_and_of_skipped_checks():
    report = compile_circuit(PuzzleSpec.from_subsets(3, [{1, 2}, {3}]))
    assert (report.verified, report.verify_method, report.masks_checked) == (True, "table", 8)
    report = compile_circuit(parse_formula("r1 & r2"))
    assert (report.verify_method, report.masks_checked) == ("table", 4)
    report = compile_circuit(PuzzleSpec.from_threshold(4, 2), verify=False)
    assert (report.verified, report.verify_method, report.masks_checked) == (None, "skipped", 0)
