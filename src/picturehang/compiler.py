"""Compile monotone fall functions into hanging words on the same n nails.

A nonconstant spec compiles to the reduced product

    W = e(C_1) e(C_2) ... e(C_m),   e(C) = build_e(sorted(C)),

of balanced 1-of-|C| words over the prime clauses C_i of its fall function
f, in lexicographic order.  A clause C says "some nail of C is removed", and
f is the AND of its prime clauses.  No gadget, anchor nail or inverse is used.
The clause words are laid out from one letter template per width
(`constructions.e_template`) and relabeled onto each clause's nails.  Each
is reduced, so the product is reduced at the joins only (`words._product`).

Why W is exact.  The quotients gamma_w / gamma_(w+1) of the lower central
series of the free group form the free Lie ring on x_1..x_n, which is
torsion-free and multigraded (Magnus, Karrass & Solitar, *Combinatorial
Group Theory*, ch. 5).  e(C) lies in gamma_|C|, where its class is a
multilinear, hence nonzero, bracket of the generators of C.  e(C) uses only
the nails of C and collapses once one is removed, so the residual of W at a
removal set R is the product of the clause words R does not hit.  If w is
the least |C| among those, their product modulo gamma_(w+1) is the sum of
their weight-w classes, nonzero since distinct sets have distinct
multidegrees.  So W falls exactly when R hits every clause, that is, when f
holds.

A 2-CNF whose 2-nail clauses hold s nails may take a shorter word,
x_sigma X_tau = x_sigma(1) ... x_sigma(s) X_tau(1) ... X_tau(s), after
the one-nail clauses' letters (disjoint nails, another free factor).
Let those clauses be the pairs that sigma and tau put in the same order.
After removing R, the residual is x_sigma|S X_tau|S over the survivors S.
It cancels iff tau reverses sigma on S, iff no surviving pair is a
clause, iff R hits every clause.  The clause graphs reached are the
permutation graphs (Pnueli, Lempel & Even, Canad. J. Math. 23, 1971),
found by `_permutation_orders` on at most `_TWO_CNF_NAILS` nails.  The
word is emitted, with ``route`` "two-cnf", when shorter than the reduced
product.  It is reduced: a nail last in sigma and first in tau would be in
no clause.  The budget is checked against the word emitted, so the
lowering lets clauses run past it by `_TWO_CNF_SAVING`.

A threshold "at least k of n removed" has every (n-k+1)-subset as a clause,
and its closed-form length is checked against the budget before any clause
is listed; (n-1)-of-n, n >= 3, is x1 ... xn X1 ... Xn.  Every other spec
is dualized in one postorder pass over its circuit, where true has no
clause and false the empty one.  A gate is a whole operator chain: an AND
absorbs once across all its operands, an OR folds them in one at a time.
A report's ``depth`` is that of the equivalent CNF circuit, a balanced AND
of balanced ORs, and ``bound`` is 1078**depth, the letters a gadget
circuit of that depth lays out at most (`gadgets` derives the 1,078).

Verification checks the word emitted, not the argument above.  A
threshold spec is checked on its boundary when that reads fewer letters
than the table (`words._verify_plan`, which the auto-verification work cap
prices too).  The boundary is exact because
every word's fall function is monotone: deleting nails is a homomorphism,
so a subset's residual is a homomorphic image of each smaller subset's,
and the image of the empty word is empty.  So the word falls exactly on
the subsets of at least k nails if, and only if, it hangs at every
(k-1)-subset and falls at every k-subset.  A smaller subset that fell
would make every (k-1)-subset above it fall, and a larger one that hung
would keep every k-subset below it hanging.  Subsets and formulas are
checked on their whole table, which stays independent of the
dualization that built the word.
"""

from __future__ import annotations

from itertools import chain, combinations, filterfalse
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .circuits import (
    Const,
    MonotoneCircuit,
    PuzzleSpec,
    UnrealizableSpecError,
    Var,
    circuit_table,
    evaluate,
    validate_spec,
)
from .constructions import e_word_length, lay_out_e
from .words import (  # BudgetExceededError is re-exported: callers catch it here
    DEFAULT_EXHAUSTIVE_LIMIT,
    DEFAULT_LETTER_BUDGET,
    BudgetExceededError,
    Word,
    _minimal_sets,
    _nails,
    _product,
    _verify_plan,
    check_budget,
    first_mismatch,
    mismatch_line,
)


# Above this much work (subsets checked times word length) auto-verification
# backs off and the report says so instead of silently burning minutes.
_AUTO_VERIFY_WORK = 300_000_000

# The 2-CNF recognizer runs on at most this many nails, about 40 ms at worst.
# Pair clauses on s nails are worth at most 4 C(s, 2) letters and x_sigma
# X_tau has 2s, so the lowering's budget guard allows that much more.
_TWO_CNF_NAILS = 64
_TWO_CNF_SAVING = 2 * _TWO_CNF_NAILS * (_TWO_CNF_NAILS - 2)


def clause_product(clauses: Iterable[Sequence[int]]) -> Word:
    """The reduced product of the balanced clause words, in the order given.

    Each clause, a nonempty sequence of distinct nails, is laid out from
    the template of its width.  A clause word is reduced, so the product
    is reduced at the joins only (``words._product``).
    """
    return Word(tuple(_product(map(lay_out_e, clauses))), reduced=True)


# A node's clauses, the union of their nails, and their worth in letters.
_Clauses = tuple[list[int], int, int]


def _prime_clauses(c: MonotoneCircuit, budget: int | None) -> tuple[list[tuple[int, ...]], int]:
    """Prime clauses of a circuit, in lexicographic order, as nail tuples, and their words' letters.

    Each node's clauses are an antichain of bitmasks, bit i for the i-th
    variable met, so n and the indices size nothing.  An AND keeps the
    minimal clauses of its operands, testing only those on nails two share;
    an OR folds its operands in one at a time, keeping the minimal unions
    of one clause from each side (Berge, *Hypergraphs*, 1989).  Raises
    BudgetExceededError once an AND's kept clauses, or one OR step's
    unions, are worth more letters than ``budget`` plus `_TWO_CNF_SAVING`,
    and UnrealizableSpecError if the root holds the empty clause.
    """
    bit_of: dict[int, int] = {}  # variable index -> bit, in order of first sight
    worth_of = [0]  # the letters of a clause word, by width up to len(bit_of)
    cap = None if budget is None else budget + _TWO_CNF_SAVING

    def check(worth: int) -> int:
        if cap is not None and worth > cap:
            raise BudgetExceededError(
                f"the spec's clauses are worth more than the budget of "
                f"{budget} letters; raise the budget to proceed"
            )
        return worth

    def leaf(node: Var | Const) -> _Clauses:
        if isinstance(node, Var):
            bit = bit_of.setdefault(node.index, len(bit_of))
            if len(worth_of) <= len(bit_of):  # a new variable: price one more width
                worth_of.append(e_word_length(len(bit_of)))
            return [1 << bit], 1 << bit, 1
        return ([], 0, 0) if node.value else ([0], 0, 0)

    def and_(operands: list[_Clauses]) -> _Clauses:
        seen = shared = worth = 0  # shared: the nails of two operands or more
        for clauses, nails, operand_worth in operands:
            if not nails and clauses:  # false holds the empty clause; true, no clause
                return clauses, 0, 0
            shared |= seen & nails
            seen |= nails
            worth += operand_worth
        clauses = list(chain.from_iterable(operand[0] for operand in operands))
        meet = list(filter(shared.__and__, clauses))
        if any(x & shared == x for x in meet):  # a clause absorbing across lies within shared
            kept = _minimal_sets(meet)
            worth += sum(worth_of[x.bit_count()] for x in kept)
            worth -= sum(worth_of[x.bit_count()] for x in meet)
            clauses = [*filterfalse(shared.__and__, clauses), *kept]
        return clauses, seen, check(worth)

    def or_(operands: list[_Clauses]) -> _Clauses:
        a, a_nails, _ = operands[0]
        for b, b_nails, _ in operands[1:]:
            held, worth = set(), 0
            for clause in (x | y for x in a for y in b):
                if clause not in held:
                    held.add(clause)
                    worth = check(worth + worth_of[clause.bit_count()])
            a = _minimal_sets(held) if a_nails & b_nails else list(held)
            a_nails |= b_nails
        return a, a_nails, sum(worth_of[x.bit_count()] for x in a)

    clauses, _, worth = evaluate(c.root, leaf, {"and": and_, "or": or_})
    if 0 in clauses:
        raise UnrealizableSpecError("circuit is constantly false: the picture could never fall")
    nail_of = list(bit_of)
    return sorted(tuple(sorted(nail_of[bit - 1] for bit in _nails(x))) for x in clauses), worth


def _permutation_orders(pairs: Sequence[tuple[int, ...]]) -> tuple[list[int], list[int]] | None:
    """Orders sigma and tau of the pairs' nails that agree exactly on the pairs.

    None when the pairs' graph is not a permutation graph, when x_sigma
    X_tau would not be shorter than the pairs' product (2s >= 4 |pairs| for
    s nails), or when s exceeds `_TWO_CNF_NAILS`.  sigma is P + Q and tau is
    P + Q^-1 for transitive orientations P of the graph and Q of its
    complement; each nail goes after as many nails as point into it.  The
    agreement is checked pair by pair, so an order returned is a proof.
    """
    adjacent: dict[int, set[int]] = {}
    for a, b in pairs:
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    if len(adjacent) > _TWO_CNF_NAILS or 2 * len(adjacent) >= 4 * len(pairs):
        return None
    nails = set(adjacent)
    p = _transitive_orientation(adjacent)
    q = _transitive_orientation({a: nails - near - {a} for a, near in adjacent.items()})
    if p is None or q is None:
        return None
    after_sigma = dict.fromkeys(nails, 0)
    after_tau = dict.fromkeys(nails, 0)
    for a, b in p:
        after_sigma[b] += 1
        after_tau[b] += 1
    for a, b in q:
        after_sigma[b] += 1
        after_tau[a] += 1
    sigma = sorted(nails, key=after_sigma.__getitem__)
    tau = sorted(nails, key=after_tau.__getitem__)
    at_tau = {x: i for i, x in enumerate(tau)}
    for a, b in combinations(sigma, 2):  # a comes before b in sigma
        if (at_tau[a] < at_tau[b]) != (b in adjacent[a]):
            return None
    return sigma, tau


def _transitive_orientation(adjacent: dict[int, set[int]]) -> list[tuple[int, int]] | None:
    """Arcs of a transitive orientation of the graph, or None if it has none.

    Golumbic's G-decomposition (*Algorithmic Graph Theory and Perfect
    Graphs*, 1980, ch. 5).  Among the edges not yet oriented, the least one
    a < b is taken as a -> b together with its implication class: the arcs
    it forces, where u -> v forces u -> w when vw is not an edge left, and
    w -> v when uw is not.  The class leaves the edges left, and the next
    least edge starts the next class.  The graph has a transitive
    orientation iff no class holds an edge both ways, and then the classes
    together are one.
    """
    left = {a: set(near) for a, near in adjacent.items()}
    arcs: list[tuple[int, int]] = []
    for a in sorted(left):
        while left[a]:  # lower neighbours were oriented with their own nail
            start = (a, min(left[a]))
            found = {start}
            stack = [start]
            while stack:
                u, v = stack.pop()
                forced = [(u, w) for w in left[u] if w != v and w not in left[v]]
                forced += [(w, v) for w in left[v] if w != u and w not in left[u]]
                for arc in forced:
                    if arc not in found:
                        found.add(arc)
                        stack.append(arc)
            if any((v, u) in found for u, v in found):
                return None
            for u, v in found:
                left[u].discard(v)
                left[v].discard(u)
            arcs.extend(found)
    return arcs


class CompileReport(NamedTuple):
    """What the compiler produced and how the emitted word checked out.

    The fields are the keys of ``compile --json``, in order.  ``route`` names
    the word emitted: "clause-product" or "two-cnf" (the one-nail clauses'
    letters, then x_sigma X_tau).  ``as_constructed_length`` counts the
    letters of the clause words laid out before the closing reduction;
    ``reduced_length`` counts the final normal form.  ``verified`` is None
    when verification was skipped (n beyond the limit, disabled, or past the
    auto-verification work cap); on a mismatch it is False, ``mismatch_mask``
    holds the first subset bitmask where the word disagrees with the
    requested fall function, and a notice says how (`words.mismatch_line`).
    ``verify_method`` is "boundary" (a threshold's (k-1)- and k-subsets),
    "table" (every subset) or "skipped", as `words._verify_plan` picks it;
    ``masks_checked`` counts the subsets it decided.
    """

    word: Word
    n: int
    route: str
    as_constructed_length: int
    reduced_length: int
    depth: int
    estimate: int
    bound: int
    verified: bool | None
    mismatch_mask: int | None
    verify_method: str
    masks_checked: int
    notices: tuple[str, ...]


def compile_circuit(
    target: MonotoneCircuit | PuzzleSpec,
    budget: int | None = DEFAULT_LETTER_BUDGET,
    verify: bool | None = None,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> CompileReport:
    """Compile a circuit or spec to the product of its prime-clause words,
    or to x_sigma X_tau when its prime clauses allow (see the module docstring).

    ``budget`` guards against runaway output; pass None to disable.
    ``verify`` forces (True) or skips (False) verification; the default
    verifies whenever n is within the exhaustive limit and the work of the
    method that would run, table or boundary, is affordable.  A spec is
    checked by `PuzzleSpec.verify`, a circuit against its table.
    """
    notices: list[str] = []
    spec: PuzzleSpec | None = None
    n = target.n
    if isinstance(target, PuzzleSpec):
        validation = validate_spec(target)
        notices.extend(validation.notices)
        spec = validation.spec
    route = "clause-product"
    if spec is not None and spec.threshold_k is not None:
        width = n - spec.threshold_k + 1
        count = comb(n, width)
        widest = width if count else 1
        if width == 2 and n > 2:  # every pair: sigma = tau = 1..n
            estimate = 2 * n
            check_budget(estimate, budget)
            word = Word((*range(1, n + 1), *range(-1, -n - 1, -1)), reduced=True)
            route = "two-cnf"
        else:
            estimate = count * e_word_length(width)
            check_budget(estimate, budget)
            word = clause_product(combinations(range(1, n + 1), width))
    else:
        clauses, estimate = _prime_clauses(target if spec is None else spec.to_circuit(), budget)
        if not clauses:
            notices.append("circuit is constantly true; compiles to the empty word")
        count = len(clauses)
        widest = max(map(len, clauses), default=1)
        word = clause_product(clauses)  # within the budget plus _TWO_CNF_SAVING
        pairs = [clause for clause in clauses if len(clause) == 2]
        orders = _permutation_orders(pairs) if widest == 2 else None
        if orders is not None:
            sigma, tau = orders
            singles = [clause[0] for clause in clauses if len(clause) == 1]
            shorter = Word((*singles, *sigma, *(-x for x in tau)), reduced=True)
            # the product can tie: clause words (a, b), (b, c) side by side cancel two letters
            if len(shorter.letters) < len(word.letters):
                word, estimate, route = shorter, len(shorter.letters), "two-cnf"
        check_budget(estimate, budget)
    reduced_length = len(word.letters)
    depth = (max(count, 1) - 1).bit_length() + (widest - 1).bit_length()
    mismatch_mask, verify_method, masks_checked = None, "skipped", 0
    if verify is None and n > limit:  # nothing is priced past the limit
        notices.append(f"table verification skipped: n={n} beyond the exhaustive limit {limit}")
        verify = False
    elif verify is None:  # the cap prices the method that would run
        method, masks = _verify_plan(n, None if spec is None else spec.threshold_k)
        verify = masks * max(reduced_length, 1) <= _AUTO_VERIFY_WORK
        if not verify:
            notices.append(f"{method} verification skipped: past the auto-verification work cap")
    if verify:
        if spec is not None:
            mismatch_mask, verify_method, masks_checked = spec.verify(word, limit)
        else:
            mismatch_mask = first_mismatch(word, n, circuit_table(target, limit), limit)
            verify_method, masks_checked = "table", 1 << n
        if mismatch_mask is not None:
            notices.append(mismatch_line(word, n, mismatch_mask))
    return CompileReport(
        word=word,
        n=n,
        route=route,
        as_constructed_length=estimate,
        reduced_length=reduced_length,
        depth=depth,
        estimate=estimate,
        bound=1078**depth,
        verified=mismatch_mask is None if verify else None,
        mismatch_mask=mismatch_mask,
        verify_method=verify_method,
        masks_checked=masks_checked,
        notices=tuple(notices),
    )
