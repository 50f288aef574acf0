"""Compile monotone fall functions into hanging words on the same n nails.

A nonconstant spec's fall function f is the AND of its prime clauses; a
clause C says "some nail of C is removed".  The spec compiles to the
product, reduced at the joins only, of a plan's pieces over its clause
family F, each laid out as given, rotated or inverted (below).  A piece
is one of

    e(C) = build_e(sorted(C)), the balanced 1-of-|C| word over a clause;
    x_sigma X_tau = x_sigma(1) ... x_sigma(s) X_tau(1) ... X_tau(s);
    [e(P), W] = e(P) W e(P)^-1 W^-1, for W a plan's word on nails off P.

The plain plan is the product e(C_1) ... e(C_m) of the prime clauses in
lexicographic order.  No gadget or anchor nail is used.  The balanced
words are laid out from one letter template per width
(`constructions.e_template`), relabeled onto each piece's nails by
`constructions._splice` or, packed, one translate; `lay_out` multiplies them.

Why a plan is exact.  The quotients gamma_w / gamma_(w+1) of the lower
central series of the free group form the free Lie ring on x_1..x_n,
which is torsion-free and multigraded (Magnus, Karrass & Solitar,
*Combinatorial Group Theory*, ch. 5).  Call W graded over an antichain F
of clauses when, at every removal set R, W|R is trivial iff R hits every
clause of F, and otherwise W|R lies in gamma_w, for w the least size of a
clause R misses, with a class there that sums nonzero multilinear
brackets, one for each such clause of size w, of that clause's
multidegree.  Four constructions are graded:

- e(C) over {C}: it lies in gamma_|C| with a multilinear, hence nonzero,
  class, uses only the nails of C, and collapses once one is removed;
- x_sigma X_tau over the pairs that sigma and tau put in the same order
  (below);
- a product of words graded over disjoint families, over their union: the
  classes of least weight have distinct multidegrees, so they cannot
  cancel, even on shared nails;
- [e(P), W(G)], for W(G) graded over G on nails off P, over
  {P + C : C in G}: it collapses when R hits P or every clause of G, and
  otherwise its class is the bracket of the two classes.  In a free Lie
  ring [a, b] = 0 for homogeneous a and b only when they are dependent
  (Shirshov-Witt; Reutenauer, *Free Lie Algebras*, 1993), and disjoint
  multidegrees are independent.

So every plan's word falls exactly when R hits every clause, that is,
when f holds.  Only the shapes differ in length, and each plan is priced
from closed forms before it is laid out.

Conjugates and inverses stay graded.  Conjugation acts trivially on
gamma_w / gamma_(w+1), and inversion only negates the class, so a word
graded over F has every rotation of itself and of its inverse graded over
F too, when it is cyclically reduced (rotations are then conjugates).
`lay_out` uses that at every product level, bracket inners included: each
piece after the first starts where it cancels the most letters against
the product so far, in itself or in its inverse.  Among starts that
cancel equally, it takes the one after which the next piece of the same
product cancels the most, and the first forward start, then the first in
the inverse, when that ties too; so each piece is placed once the next
one's word is known.  The pieces of a product are graded over disjoint
families, so no two share a multidegree; a word times its own inverse
would cancel.  The greedy could lose letters at a later join, but no
plan tried has: each is laid out once, turned, and
`test_rotated_words_are_exact_and_no_longer_than_the_plain_join` checks
that no word is longer than its plan joined plain, on every k-of-n with
n <= 14, every monotone function of four nails and seeded DNFs and CNFs.

x_sigma X_tau, after the one-nail clauses' letters (disjoint nails,
another free factor), serves a 2-CNF whose 2-nail clauses are the pairs
that sigma and tau order alike.  After removing R, the residual is
x_sigma|S X_tau|S over the survivors S.  It cancels iff tau reverses sigma
on S, iff no surviving pair is a clause, iff R hits every clause, and it
lies in gamma_2 otherwise, with the class sum of [x_a, x_b] over the
surviving pairs.  The clause graphs reached are the permutation graphs
(Pnueli, Lempel & Even, Canad. J. Math. 23, 1971), found by
`_permutation_orders` on at most `_TWO_CNF_NAILS` nails.  The word is
reduced: a nail last in sigma and first in tau would be in no clause.

Factoring.  For a nail set P shared by clauses of F, W(F) = [e(P),
W(F_P)] W(F - {C : C contains P}), with F_P = {C - P : C contains P}, writes
P once where the product writes it once per clause.  A threshold "at
least k of n removed" has every w-subset, w = n - k + 1, as a clause;
`_threshold_table` picks the shortest of the product, x_sigma X_tau and the
brackets of each prefix size in closed form, and its length is checked
against the budget before any clause is listed.  A bracket's inner plan
there depends only on the nails after its prefix and on its width, so
each distinct one is laid out once for the whole plan (`_Inner`).  Every
other spec is dualized in one postorder pass over its circuit, where true
has no clause and false the empty one.  A gate is a whole operator chain:
an AND absorbs once across all its operands, an OR folds them in one at a
time.
`_family_plan` then factors the clauses greedily.  Whenever its plan is
not the product itself, both are laid out, and the plan's word is emitted
when strictly shorter than the product's, with ``route`` "two-cnf" for
x_sigma X_tau alone and "factored" otherwise, so a tie keeps the product.
The laid-out words decide, not the closed forms: each word may cancel at
its joins.  ``estimate`` is the closed form of the word emitted.  The
budget is checked against the plan's, which bounds the word emitted
either way, so the lowering lets clauses run past it by
`_TWO_CNF_SAVING`.  A report's ``depth`` is that of the equivalent CNF
circuit, a balanced AND of balanced ORs, and ``bound`` is 1078**depth,
the letters a gadget circuit of that depth lays out at most (`gadgets`
derives the 1,078); a plan is never longer than the product, so the
bound covers it.

Verification checks the word emitted, not the argument above, through
the one verifier, `verifier._verdict`.  A threshold spec is checked on its
boundary, which shares the residuals of its subsets' first nails and
reads fewer letters than the table on the compiled words
(`verifier._verify_plan`, which the auto-verification work cap prices too).
The boundary is exact because every word's fall function is monotone:
deleting nails is a homomorphism, so a subset's residual is a homomorphic
image of each smaller subset's, and the image of the empty word is empty.
So the word falls exactly on the subsets of at least k nails if, and only
if, it hangs at every (k-1)-subset and falls at every k-subset.  A smaller
subset that fell would make every (k-1)-subset above it fall, and a larger
one that hung would keep every k-subset below it hanging.  Subsets and
formulas are checked on their whole table, which stays independent of the
dualization that built the word.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from functools import lru_cache, partial
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, compress, filterfalse
from math import comb
from operator import neg
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .circuits import (
    Const,
    MonotoneCircuit,
    PuzzleSpec,
    UnrealizableSpecError,
    Var,
    _minimal_sets,
    circuit_table,
    evaluate,
    validate_spec,
)
from .constructions import e_template, e_word_length, lay_out_e
from .words import (  # BudgetExceededError is re-exported: callers catch it here
    DEFAULT_EXHAUSTIVE_LIMIT,
    DEFAULT_LETTER_BUDGET,
    BudgetExceededError,
    Word,
    _HUGE_LETTERS,
    _INVERSE,
    _invert,
    _nails,
    _pack,
    check_budget,
)
from .verifier import _verdict, _verify_method, _verify_plan, mismatch_line


# Above this much work (subsets checked times word length) auto-verification
# backs off and the report says so instead of silently burning minutes.
_AUTO_VERIFY_WORK = 300_000_000

# The 2-CNF recognizer runs on at most this many nails, about 40 ms at worst.
# Pair clauses on s nails are worth at most 4 C(s, 2) letters and x_sigma
# X_tau has 2s, so the lowering's budget guard allows that much more.
_TWO_CNF_NAILS = 64
_TWO_CNF_SAVING = 2 * _TWO_CNF_NAILS * (_TWO_CNF_NAILS - 2)
_TEMPLATES: dict[int, bytes] = {}  # each clause width's `e_template`, packed once


class _Bracket(NamedTuple):
    """A plan piece laid out as the commutator [e(prefix), W(inner)]."""

    prefix: Sequence[int]
    inner: Iterable  # the pieces of W, on nails disjoint from the prefix


class _Pairs(NamedTuple):
    """A plan piece laid out as x_sigma X_tau."""

    sigma: Sequence[int]
    tau: Sequence[int]


class _Packed(NamedTuple):
    """A plan on nails 1..127 only, which `lay_out` lays out on bytes as `words._pack` packs them,
    mapping its word's letters through ``labels`` if given (label -i at -i, as in `_splice`)."""
    plan: Iterable
    labels: list[int] | None = None


def lay_out(plan: Iterable) -> Word:
    """The reduced word of a plan: its pieces' words multiplied in order.

    A piece is a clause, a nonempty sequence of distinct nails laid out as
    its balanced word from the template of its width, or a `_Bracket` or
    `_Pairs`, and the clauses of its pieces are distinct.  Each piece's word
    is reduced, so the product is reduced at the joins only.  Pieces are
    turned where they meet (`_meet`, see the module docstring).  Starts that
    cancel equally are told apart by the next piece of the same product,
    so each piece is placed once the next one's word is known.  A list of
    clauses is their product.  A `_Packed` plan is laid out on bytes.
    """
    if type(plan) is not _Packed:
        return Word(tuple(_lay_out(plan)), reduced=True)
    letters = _lay_out(plan.plan, 256)
    letters = struct.unpack(f"{len(letters)}b", letters)
    return Word(tuple(map(plan.labels.__getitem__, letters)) if plan.labels else letters, reduced=True)


def _lay_out(plan: Iterable, base: int = 0) -> Sequence[int]:
    """The plan's product with its pieces turned where they meet.

    Each piece is placed once the next piece's word is known, so that
    `_meet` can look one piece ahead.  The plan, bracket inners included,
    is iterated once.  ``base`` is a letter plus its inverse: 0 on ints, 256 packed.
    """
    out: list[int] | bytearray = bytearray() if base else []
    word = None  # the piece held back
    for piece in chain(plan, [None]):
        kind = type(piece)
        if kind is _Bracket:  # the prefix and the inner lie on disjoint nails: no letter cancels
            inner = piece.inner.words(base) if type(piece.inner) is _Inner else _lay_out(piece.inner, base)
            ahead = _commutator(_clause_word(piece.prefix, base), inner)
        elif kind is _Pairs:
            ahead = (_pack if base else list)([*piece.sigma, *map(neg, piece.tau)])
        else:
            ahead = None if piece is None else _clause_word(piece, base)
        if word is not None:
            if out and (base - out[-1] in word or out[-1] in word):  # else no start of it or its inverse cuts
                cut, word = _meet(out, word, ahead)
                if cut:
                    del out[-cut:]
                    word = word[cut:]
            out += word
        word = ahead
    return out


def _clause_word(clause: Sequence[int], base: int) -> Sequence[int]:
    """A clause's balanced word on ints, or packed (``base`` 256): its packed template relabeled."""
    m = len(clause)
    if not base or m == 1:
        return bytes(clause) if base else [*lay_out_e(clause)]
    label = bytearray(256)  # label i reads the clause's i-th nail, label -i (byte 256 - i) its inverse
    label[1 : m + 1], label[-m:] = clause, bytes(clause[::-1]).translate(_INVERSE)
    return (_TEMPLATES.get(m) or _TEMPLATES.setdefault(m, _pack(e_template(m)))).translate(label)


def _meet(out: Sequence[int], word: Sequence[int], ahead: Sequence[int] | None) -> tuple[int, Sequence[int]]:
    """A reduced piece's word laid out to meet ``out``, and how many of its letters cancel there.

    A conjugate of a piece's word is graded over the same clauses, and its
    inverse only negates the class (module docstring), so a cyclically
    reduced piece may start anywhere in itself or in its inverse.  A start
    cancels against ``out`` only where its letter inverts the last of
    ``out``, and one that cancels the most letters is taken.  Among starts
    that tie, the one after which ``ahead``, the next piece's word, cancels
    the most at its own best start is taken (`_look_ahead`); a tie there,
    or no piece ahead, keeps the first forward start, then the first in
    the inverse.  Any other piece is joined as given.  Letters are ints or
    packed (`_lay_out`); each start is walked, as fast as a C search below 512 letters.
    """
    size, most, cut = len(word), min(len(word), len(out)), 0
    base = 256 if isinstance(word, bytes) else 0
    if word[0] + word[-1] == base:  # a rotation would not be reduced
        while cut < most and word[cut] + out[-1 - cut] == base:
            cut += 1
        return cut, word
    ties: list[tuple[int, bool]] = []  # the starts that cancel the most so far, in order
    for inverted, x, at in (False, base - out[-1], -1), (True, out[-1], -1):  # at: the last start found
        for _ in range(word.count(x)):
            at, n = word.index(x, at + 1), 1
            if inverted:  # the inverse turned to start at -word[at] reads word back from at
                while n < most and word[at - n] == out[-1 - n]:
                    n += 1
            else:  # word[at + n - size] reads the rotation, wrapping round
                while n < most and word[at + n - size] + out[-1 - n] == base:
                    n += 1
            if n > cut:
                cut, ties = n, [(at, inverted)]
            elif n == cut:
                ties.append((at, inverted))
    at, inverted = ties[0] if ahead is None or len(ties) == 1 else _look_ahead(out, word, cut, ties, ahead)
    if inverted:
        return cut, _invert(word[at + 1 :] + word[: at + 1])  # the inverse read from -word[at]
    return cut, word[at:] + word[:at] if at else word


def _look_ahead(
    out: Sequence[int], word: Sequence[int], cut: int, ties: list[tuple[int, bool]], ahead: Sequence[int]
) -> tuple[int, bool]:
    """The tie after which ``ahead`` cancels the most at its best start, the first on a tie.

    A tie leaves ``out`` before the cut, then the rest of ``word`` laid out
    from the tie; one whose last letter ``ahead`` holds in neither sign
    scores 0, and nothing is built before a tie ``ahead`` can tell apart.
    The product's last letters, last first, are ``tail`` (``against``
    negated): a start of ``ahead`` cancels m letters where ``ahead`` doubled
    holds the first m of ``against``, or doubled and reversed, those of
    ``tail`` (``bytes.find``, or `_find` on ints; `_longest` past the best).
    """
    size = len(word)
    if cut == size:  # the piece cancels whole: every tie leaves the same product
        return ties[0]
    most = min(len(ahead), len(out) - 2 * cut + size)
    take = min(size - cut, most)
    base, find = (256, bytes.find) if isinstance(word, bytes) else (0, _find)
    best, chosen, doubled = 0, ties[0], None
    for at, inverted in ties:
        last = base - word[at + 1 - size] if inverted else word[at - 1]  # the product's last letter
        if last not in ahead and base - last not in ahead:
            continue
        if doubled is None:  # built for the first tie that ahead can tell apart
            doubled, rest, forward = word * 2, out[-1 - cut : -1 - cut - most + take : -1], ahead * 2
            negated, minus, backward = _invert(doubled[::-1]), _invert(rest[::-1]), forward[::-1]
        if inverted:  # the inverse from -word[at] ends in -word[at + 1], -word[at + 2], ...
            tail = negated[at + 1 : at + 1 + take] + rest
            against = doubled[at + 1 : at + 1 + take] + minus
        else:  # the rotation from word[at] ends in word[at - 1], word[at - 2], ...
            tail = doubled[at + size - 1 : at + size - 1 - take : -1] + rest
            against = negated[at + size - 1 : at + size - 1 - take : -1] + minus
        n = _longest(find, forward, against, backward, tail, best or 1, most)  # one letter at least
        if n > best:
            best, chosen = n, (at, inverted)
            if n == most:
                break
    return chosen


def _longest(find: Callable, a: Sequence, x: Sequence, b: Sequence, y: Sequence, n: int, most: int) -> int:
    """The most m <= ``most`` for which ``find`` finds x[:m] in a or y[:m] in b, n's holding."""
    step = 1
    while n + step <= most and (find(a, x[: n + step], 0) >= 0 or find(b, y[: n + step], 0) >= 0):
        n, step = n + step, 2 * step  # the step doubles while n + step holds
    while step > 1:  # n holds and n + step does not, or passes most: halve onto the last m that holds
        step //= 2
        if n + step <= most and (find(a, x[: n + step], 0) >= 0 or find(b, y[: n + step], 0) >= 0):
            n += step
    return n


def _find(letters: list[int], part: list[int], start: int) -> int:
    """``bytes.find`` for int letters: where nonempty ``part`` first stands from ``start``, or -1."""
    try:
        while True:
            start = letters.index(part[0], start, len(letters) - len(part) + 1)
            if letters[start + len(part) - 1] == part[-1] and letters[start : start + len(part)] == part:
                return start
            start += 1
    except ValueError:  # part[0] stands nowhere further
        return -1


def _commutator(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    return a + b + _invert(b + a)  # (b a)^-1 = a^-1 b^-1


def _clause_letters(clauses: Iterable[Sequence[int]]) -> int:
    return sum(e_word_length(len(clause)) for clause in clauses)


def _family_plan(clauses: list[tuple[int, ...]]) -> tuple[int, str, list]:
    """The letters, route and pieces of the shortest plan found for an antichain F of clauses.

    The plan is the product, or W(F) = [e(P), W(F_P)] W(F - H), greedily:
    H is the clauses holding the nail that most clauses of F hold (the
    least nail on a tie), P the nails common to H, F_P = {C - P : C in H}
    is planned the same way, and H keeps its clause words when they are
    shorter than the bracket.  Each step takes all clauses of one nail,
    so there are fewer steps than nails.  The first F, or F - H further
    on, whose clauses hold at most two nails each and `_TWO_CNF_NAILS` in
    all, and whose pairs `_permutation_orders` accepts, may take x_sigma
    X_tau after its one-nail clauses instead.  Clauses that share no nail
    end the product.  A tie goes to the product, then to the brackets.
    Every w-subset of its nails, for w > 2, takes `_threshold_plan` instead,
    which is never longer than the greedy's single-nail brackets.
    """
    holders: dict[int, list[int]] = {}
    for i, clause in enumerate(clauses):
        for nail in clause:
            holders.setdefault(nail, []).append(i)
    count = {nail: len(held) for nail, held in holders.items()}
    best = _clause_letters(clauses), "clause-product", clauses
    width = len(clauses[0]) if clauses else 0
    if width > 2 and len(clauses) == comb(len(count), width) and all(len(c) == width for c in clauses):
        letters, route, pieces = _threshold_plan(sorted(count), width)  # every width-subset
        return (letters, route, pieces) if letters < best[0] else best
    heap = [(-held, nail) for nail, held in count.items() if held > 1]
    heapify(heap)  # an entry whose count went down since is passed over
    left = [True] * len(clauses)
    wide, live = sum(len(clause) > 2 for clause in clauses), len(count)
    letters, pieces = 0, []
    orders = None
    while True:
        if not wide and orders is None and live <= _TWO_CNF_NAILS:
            rest = list(compress(clauses, left))
            orders = _permutation_orders([clause for clause in rest if len(clause) == 2])
            if orders is not None:
                singles = [clause for clause in rest if len(clause) == 1]
                total = letters + len(singles) + 2 * len(orders[0])
                if total < best[0]:
                    best = total, "factored" if pieces else "two-cnf", [*pieces, *singles, _Pairs(*orders)]
        while heap and -heap[0][0] != count[heap[0][1]]:
            heappop(heap)
        if not heap:
            break
        group = []
        for i in holders[heappop(heap)[1]]:
            if left[i]:
                left[i] = False
                group.append(clauses[i])
                wide -= len(clauses[i]) > 2
                for x in clauses[i]:
                    count[x] -= 1
                    live -= not count[x]
                    if count[x] > 1:
                        heappush(heap, (-count[x], x))
        prefix = sorted(set(group[0]).intersection(*group[1:]))
        inner_letters, _, inner = _family_plan([tuple(x for x in c if x not in prefix) for c in group])
        bracket = 2 * (e_word_length(len(prefix)) + inner_letters)
        product = _clause_letters(group)
        if bracket < product:
            letters += bracket
            pieces.append(_Bracket(prefix, inner))
        else:
            letters += product
            pieces += group
    rest = list(compress(clauses, left))
    total = letters + _clause_letters(rest)
    return (total, "factored", pieces + rest) if total < best[0] else best


# `_threshold_table` sums at most this many terms, C(w, 2) C(d + 2, 2) for w
# nails per clause and d = n - w, in about 0.15 s; past it a threshold keeps
# its product.  Every k-of-n within the default budget but w = 3, d > 363
# stays under it.
_PLAN_WORK = 200_000


def _threshold_plan(nails: Sequence[int], w: int) -> tuple[int, str, Iterable]:
    """The letters, route and pieces of the plan for every w-subset of the increasing ``nails``.

    Every pair of n nails is x1 ... xn X1 ... Xn, and one clause, or one
    nail per clause, is the product.  Otherwise the plan is the shortest in
    `_threshold_table`.  Pieces are listed only when laid out, after the
    budget check.  C(n, w) is a running product, stopped past `_HUGE_LETTERS`.
    """
    n = len(nails)
    if w == 2 and n > 2:
        return 2 * n, "two-cnf", [_Pairs(nails, nails)]
    if 2 < w < n and comb(w, 2) * comb(n - w + 2, 2) <= _PLAN_WORK:
        plans = _threshold_table(w, n - w)
        letters, how = plans[w][n - w]
        if how != "product":
            return letters, "factored", _threshold_pieces(nails, w, plans)
    count, i = int(w <= n), 0  # C(n, i), which grows with i up to n/2
    while i < min(w, n - w) and count <= _HUGE_LETTERS:
        count, i = count * (n - i) // (i + 1), i + 1
    return count * e_word_length(w), "clause-product", chain.from_iterable(map(combinations, [nails], [w]))


@lru_cache(maxsize=16)  # a compile prices its plan, then lays it out
def _threshold_table(w: int, d: int) -> list[list[tuple[int, int | str]]]:
    """``plans[v][c]``: the letters of the shortest plan for every v-subset
    of v + c nails, v <= w and c <= d, and how it is laid out.

    How is "product", "pairs" (2m letters for v = 2 and m >= 3 nails) or a
    prefix size j: each j-subset P of the nails, in lexicographic order,
    is bracketed with the plan for the (v - j)-subsets of the nails after
    P's last.  Every v-subset is P plus one of those for exactly one P, so
    for P ending at the p-th nail that is C(p-1, j-1) brackets of
    2 (e(j) + plans[v-j][c-p+j]) letters.  A tie goes to the product.
    """
    plans: list[list[tuple[int, int | str]]] = [[]]
    for v in range(1, w + 1):
        row = []
        for c in range(d + 1):
            best: tuple[int, int | str] = (comb(v + c, v) * e_word_length(v), "product")
            if v == 2 and c and 2 * (v + c) < best[0]:
                best = 2 * (v + c), "pairs"
            for j in range(1, v) if c else ():  # one clause: the balanced word is shortest
                letters = 2 * sum(
                    comb(p - 1, j - 1) * (e_word_length(j) + plans[v - j][c + j - p][0])
                    for p in range(j, j + c + 1)
                )
                if letters < best[0]:
                    best = letters, j
            row.append(best)
        plans.append(row)
    return plans


class _Inner:
    """A bracket's inner plan in a threshold plan: every v-subset of the increasing ``nails``.

    It is listed anew whenever iterated, and laid out once for the whole
    plan (``words``): ``laid``, which all the plan's inners share, keeps
    their words (`_lay_out`) by the count of nails and v, since the nails
    are always a suffix of the plan's.  It holds words
    only, so it is dropped with the plan.
    """

    __slots__ = ("nails", "v", "plans", "laid")

    def __init__(self, nails: Sequence[int], v: int, plans: list, laid: dict) -> None:
        self.nails, self.v, self.plans, self.laid = nails, v, plans, laid

    def __iter__(self) -> Iterator:
        return iter(_threshold_pieces(self.nails, self.v, self.plans, self.laid))

    def words(self, base: int) -> Sequence[int]:
        key = len(self.nails), self.v
        if key not in self.laid:
            self.laid[key] = _lay_out(self, base)
        return self.laid[key]


def _threshold_pieces(nails: Sequence[int], v: int, plans: list, laid: dict | None = None) -> Iterable:
    """The pieces of the plan for every v-subset of the increasing ``nails``, listed lazily.

    Each bracket's inner plan, for the nails after its prefix, is an
    `_Inner`, laid out once for all the brackets that hold it (``laid``).
    """
    how = plans[v][len(nails) - v][1]
    if how == "product":
        return combinations(nails, v)
    if how == "pairs":
        return [_Pairs(nails, nails)]
    laid = {} if laid is None else laid
    return (
        _Bracket(prefix, _Inner(nails[bisect_right(nails, prefix[-1]) :], v - how, plans, laid))
        for prefix in combinations(nails[: len(nails) - v + how], how)
    )


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
    the word emitted: "clause-product" (the prime clauses' words side by
    side), "two-cnf" (the one-nail clauses' letters, then x_sigma X_tau) or
    "factored" (brackets [e(P), W] of shared nails P, see the module
    docstring).  ``as_constructed_length`` counts the letters of the pieces
    laid out before the reduction at their joins, and equals ``estimate``,
    the closed-form length of the plan or product emitted; the budget is
    checked against the plan's, which bounds the word either way (module
    docstring).  ``reduced_length`` counts the final normal form.  With
    pieces rotated or inverted where they meet, it is often below
    ``estimate`` for thresholds (92 against 112 for 3-of-6).  ``verified``
    is None when verification was skipped (n beyond the limit, disabled,
    or past the auto-verification work cap); on a mismatch it is False,
    ``mismatch_mask`` holds the first subset bitmask where the word
    disagrees with the requested fall function, and the last notice says
    how (`verifier.mismatch_line`).  ``verify_method`` is
    "boundary" (a threshold's (k-1)- and k-subsets), "table" (every subset)
    or "skipped", and ``masks_checked`` counts the subsets it decided, as
    `verifier._verdict`, the one verifier, returned them.
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
    or to the shorter word of a plan over them (see the module docstring).

    ``budget`` guards against runaway output; pass None to disable.
    ``verify`` forces (True) or skips (False) verification; the default
    verifies whenever n is within the exhaustive limit and the work of the
    method that would run, table or boundary, is affordable.  The word is
    checked by `verifier._verdict`, the one verifier, against the spec's table.
    """
    notices: list[str] = []
    spec: PuzzleSpec | None = None
    n = target.n
    on = _Packed if n <= 127 else iter  # a plan on nails 1..127 is laid out on bytes
    if isinstance(target, PuzzleSpec):
        validation = validate_spec(target)
        notices.extend(validation.notices)
        spec = validation.spec
    if spec is not None and spec.threshold_k is not None:
        width = n - spec.threshold_k + 1
        estimate, route, plan = _threshold_plan(range(1, n + 1), width)
        check_budget(estimate, budget)
        count, widest = comb(n, width), width if width <= n else 1
        word = lay_out(on(plan))
    else:
        clauses, estimate = _prime_clauses(target if spec is None else spec.to_circuit(), budget)
        if not clauses:
            notices.append("circuit is constantly true; compiles to the empty word")
        count = len(clauses)
        widest = max(map(len, clauses), default=1)
        if n > 127 and len(held := sorted({*chain.from_iterable(clauses)})) <= 127:
            rank = {nail: i for i, nail in enumerate(held, start=1)}  # relabeled 1..h in order
            clauses = [tuple(map(rank.__getitem__, c)) for c in clauses]
            on = partial(_Packed, labels=[0, *held, *map(neg, reversed(held))])
        word, route = lay_out(on(clauses)), "clause-product"  # within the budget plus _TWO_CNF_SAVING
        letters, plan_route, plan = _family_plan(clauses)
        if plan is not clauses:  # the laid-out words decide: each may cancel at its joins
            planned = lay_out(on(plan))
            if len(planned.letters) < len(word.letters):  # a tie keeps the product
                word, estimate, route = planned, letters, plan_route
        check_budget(letters, budget)  # the plan's closed form bounds the word emitted either way
    reduced_length = len(word.letters)
    depth = (max(count, 1) - 1).bit_length() + (widest - 1).bit_length()
    mismatch_mask, verify_method, masks_checked = None, "skipped", 0
    k = None if spec is None else spec.threshold_k
    if verify is None and n > limit:  # nothing is priced past the limit: 2^n may not fit an int
        notices.append(f"{_verify_method(k)} verification skipped: n={n} beyond the exhaustive limit {limit}")
        verify = False
    elif verify is None:  # the cap prices the method that would run
        method, masks = _verify_plan(n, k)
        verify = masks * max(reduced_length, 1) <= _AUTO_VERIFY_WORK
        if not verify:
            notices.append(f"{method} verification skipped: past the auto-verification work cap")
    if verify:
        table = partial(circuit_table, target) if spec is None else spec.table
        mismatch_mask, verify_method, masks_checked = _verdict(
            word, n, k, partial(table, limit), "compile_circuit", limit
        )
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
