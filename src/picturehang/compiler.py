"""Compile monotone circuits into hanging words on the same n nails.

Both gate templates anchor on nails 1 and 2, which therefore play a double
role: they are ordinary removable nails and the glue of every gadget.

    AND(p, q) = p^2 x1 p^2 x1^-1 (q x2 q x2^-1)^-2
    OR(p, q)  = AND(AND([a, b], [a, b~]), AND([a~, b], [a~, b~]))
                with a = p x1 p x1^-1, a~ = p x1^-1 p x1,
                     b = q x2 q x2^-1, b~ = q x2^-1 q x2

Each template is defined once, as a token list (`and_template_tokens`,
`or_template_tokens`), and those tokens drive both word building and
accounting: a gadget splices its argument words into the template's slots
and reduces once, and the slot counts below are counts of the same tokens.
Reduced words are a normal form, so one reduction of the whole layout
equals reducing after every inner AND and commutator.

Laid out with single-letter arguments the AND template has 14 letters (4
copies of p, 4 of q, 6 glue) and the OR template 1,078.  Two bookkeepings
of the OR expansion are exposed: the flat one counts 256 p-slots, 256
q-slots and 566 bare glue letters; the folded one walks the expansion and
tallies each conjugating bracket u a u a^-1 as one recursive unit plus
three glue letters, giving 256 units and 822 glue.  Length estimates use
the flat counts, since those bound the letters actually laid out when
reduced subwords are spliced into the template.

Since each gate multiplies length by at most the OR total, a circuit of
depth d compiles to at most 1078**d letters before reduction; reports
carry that ceiling alongside the per-circuit estimate.

A threshold spec "at least k of n removed" whose Batcher circuit has an OR
gate (every 1 <= k < n, and k = n for n not a power of two, where the
network leaves absorbed OR gates) takes a second route that never uses the
OR gadget: the AND, in a balanced tree of AND gadgets, of one clause per
(n-k+1)-subset C of the nails, each clause "some nail of C is removed"
being the balanced 1-of-|C| word over C.  Removing both anchors makes every
OR output fall, so this route is what realizes thresholds exactly.  An
OR-free threshold circuit (k = n for n a power of two: a balanced AND tree
over the nails) compiles as it stands.

Compilation reduces eagerly after every gadget, and by default the emitted
word is verified against the requested fall function over all 2^n subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence, Union

from .circuits import (
    Const,
    Gate,
    MonotoneCircuit,
    Node,
    PuzzleSpec,
    UnrealizableSpecError,
    Var,
    _walk,
    circuit_table,
    fold_constants,
    node_depth,
    validate_spec,
)
from .constructions import build_e, e_word_length
from .words import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    EMPTY_WORD,
    NailSubset,
    Word,
    fall_table,
    raw_inverse,
)

DEFAULT_LETTER_BUDGET = 10**7

# Above this much table work (2^n subsets times word length) auto-verification
# backs off and the report says so instead of silently burning minutes.
_AUTO_VERIFY_WORK = 300_000_000


class BudgetExceededError(ValueError):
    """Estimated output length exceeds the letter budget."""


def gadget_and(p: Word, q: Word) -> Word:
    """Word falling iff both argument words have fallen, reduced."""
    return _lay_out(_AND_TEMPLATE, p, q).reduce()


def gadget_or(p: Word, q: Word) -> Word:
    """Word falling iff at least one argument word has fallen, reduced."""
    return _lay_out(_OR_TEMPLATE, p, q).reduce()


def gadget_and_tree(words: Sequence[Word]) -> Word:
    """Balanced tree of AND gadgets over the words; first half rounds up.

    A single word is returned as given.
    """
    return _and_tree(words)[0]


def _and_tree(words: Sequence[Word]) -> tuple[Word, int]:
    """gadget_and_tree's word and the letters laid out for its root gadget."""
    if len(words) == 1:
        return words[0], len(words[0].letters)
    half = (len(words) + 1) // 2
    left = gadget_and_tree(words[:half])
    right = gadget_and_tree(words[half:])
    return gadget_and(left, right), and_splice_cost(len(left.letters), len(right.letters))


def and_splice_cost(len_p: int, len_q: int) -> int:
    return 4 * len_p + 4 * len_q + 6


def or_splice_cost(len_p: int, len_q: int) -> int:
    return 256 * len_p + 256 * len_q + 566


# --- template accounting --------------------------------------------------
#
# The templates are expanded symbolically: a token is either a glue letter
# (int, nail 1 or 2) or a marker ("P"/"Q", sign) standing for one copy of an
# argument word or its inverse.

_Token = Union[int, tuple[str, int]]


def _t_inv(tokens: list[_Token]) -> list[_Token]:
    return [
        -t if isinstance(t, int) else (t[0], -t[1])
        for t in reversed(tokens)
    ]


def _t_and(p: list[_Token], q: list[_Token]) -> list[_Token]:
    block = _t_inv(q + [2] + q + [-2])
    return p + p + [1] + p + p + [-1] + block + block


def _t_comm(a: list[_Token], b: list[_Token]) -> list[_Token]:
    return a + b + _t_inv(a) + _t_inv(b)


def and_template_tokens() -> list[_Token]:
    return _t_and([("P", 1)], [("Q", 1)])


def or_template_tokens() -> list[_Token]:
    p, q = [("P", 1)], [("Q", 1)]
    a = p + [1] + p + [-1]
    a_flip = p + [-1] + p + [1]
    b = q + [2] + q + [-2]
    b_flip = q + [-2] + q + [2]
    k11 = _t_comm(a, b)
    k12 = _t_comm(a, b_flip)
    k21 = _t_comm(a_flip, b)
    k22 = _t_comm(a_flip, b_flip)
    return _t_and(_t_and(k11, k12), _t_and(k21, k22))


_AND_TEMPLATE = tuple(and_template_tokens())
_OR_TEMPLATE = tuple(or_template_tokens())


def _lay_out(template: tuple[_Token, ...], p: Word, q: Word) -> Word:
    """The template with p, p^-1, q and q^-1 spliced into its slots, unreduced."""
    args = {"P": p, "Q": q}
    slots = {
        (name, sign): (args[name] if sign > 0 else raw_inverse(args[name])).letters
        for name, sign in {t for t in template if not isinstance(t, int)}
    }
    out: list[int] = []
    for t in template:
        if isinstance(t, int):
            out.append(t)
        else:
            out.extend(slots[t])
    return Word(tuple(out))


@dataclass(frozen=True)
class TemplateCounts:
    recursive_units: int
    auxiliary_letters: int

    @property
    def total(self) -> int:
        return self.recursive_units + self.auxiliary_letters


def flat_counts(tokens: list[_Token]) -> tuple[int, int, int]:
    """(p-slots, q-slots, bare glue letters) of a template expansion."""
    p_slots = sum(1 for t in tokens if not isinstance(t, int) and t[0] == "P")
    q_slots = sum(1 for t in tokens if not isinstance(t, int) and t[0] == "Q")
    return p_slots, q_slots, len(tokens) - p_slots - q_slots


def folded_counts(tokens: list[_Token]) -> TemplateCounts:
    """Bracket-folded tally of a template expansion.

    Every argument marker in the templates sits inside a conjugating bracket
    u a u a^-1 (or its inverse a u a^-1 u).  Such a bracket is charged as one
    recursive unit; its other three letters, including the second copy of u,
    count as glue.  Letters outside brackets count singly.
    """
    units = 0
    aux = 0
    i = 0
    while i < len(tokens):
        window = tokens[i : i + 4]
        if _is_bracket(window):
            units += 1
            aux += 3
            i += 4
        elif isinstance(tokens[i], int):
            aux += 1
            i += 1
        else:
            units += 1
            i += 1
    return TemplateCounts(units, aux)


def _is_bracket(window: list[_Token]) -> bool:
    if len(window) < 4:
        return False
    a, b, c, d = window
    if not isinstance(a, int) and not isinstance(c, int):
        return a == c and isinstance(b, int) and isinstance(d, int) and d == -b
    if isinstance(a, int) and isinstance(c, int):
        return c == -a and not isinstance(b, int) and b == d
    return False


def estimate_length(c: MonotoneCircuit) -> int:
    """Upper bound on letters the compiler will lay out for this circuit.

    Per gate the flat template slot counts apply to the children's own
    estimates: an AND costs 4+4 slots plus 6 glue, an OR 256+256 plus 566.
    Shared subcircuits count once per occurrence, matching the splicing.
    """
    costs: dict[int, int] = {}
    for node in _walk(c.root):
        if isinstance(node, Var):
            costs[id(node)] = 1
        elif isinstance(node, Const):
            costs[id(node)] = 0
        elif node.op == "and":
            costs[id(node)] = and_splice_cost(costs[id(node.left)], costs[id(node.right)])
        else:
            costs[id(node)] = or_splice_cost(costs[id(node.left)], costs[id(node.right)])
    return costs[id(c.root)]


def _threshold_estimate(k: int, n: int) -> int:
    """Upper bound on letters the clause route lays out for k-of-n, 1 <= k <= n.

    The leaves of the balanced AND tree are C(n, n-k+1) clause words of
    e_word_length(n-k+1) letters each.  Subtrees of equal leaf count cost the
    same, so the recursion runs over leaf counts and never lists the clauses.
    """
    costs = {1: e_word_length(n - k + 1)}

    def cost(leaves: int) -> int:
        if leaves not in costs:
            costs[leaves] = and_splice_cost(cost((leaves + 1) // 2), cost(leaves // 2))
        return costs[leaves]

    return cost(comb(n, n - k + 1))


@dataclass(frozen=True)
class CompileReport:
    """What the compiler produced and how the emitted word checked out.

    ``as_constructed_length`` counts the letters laid out for the outermost
    gate before its closing reduction; ``reduced_length`` counts the final
    normal form.  ``verified`` is None when table verification was skipped
    (n beyond the limit, disabled, or past the auto-verification work cap);
    on a mismatch it is False and ``mismatch_mask`` holds the first subset
    bitmask where the word disagrees with the requested fall function.
    """

    word: Word
    n: int
    as_constructed_length: int
    reduced_length: int
    depth: int
    estimate: int
    bound: int
    verified: bool | None
    mismatch_mask: int | None
    notices: tuple[str, ...]


def compile_circuit(
    target: MonotoneCircuit | PuzzleSpec,
    budget: int | None = DEFAULT_LETTER_BUDGET,
    verify: bool | None = None,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> CompileReport:
    """Compile a circuit or spec to a word whose fall function realizes it.

    ``budget`` guards against runaway output; pass None to disable.
    ``verify`` forces (True) or skips (False) exhaustive table verification;
    the default verifies whenever n is within the exhaustive limit and the
    table work is affordable.

    A threshold spec whose circuit has an OR gate compiles by the clause
    route (see the module docstring).  That route's ``depth`` is that of the
    equivalent CNF circuit, a balanced AND over balanced ORs of n-k+1
    variables.
    """
    notices: list[str] = []
    spec: PuzzleSpec | None = None
    if isinstance(target, PuzzleSpec):
        validation = validate_spec(target)
        notices.extend(validation.notices)
        spec = validation.spec
        n = spec.n
    else:
        n = target.n
    folded = fold_constants(spec.to_circuit() if spec is not None else target)
    estimate = estimate_length(folded)
    k = spec.threshold_k if spec is not None else None
    if k is not None and any(
        isinstance(node, Gate) and node.op == "or" for node in _walk(folded.root)
    ):
        estimate = _threshold_estimate(k, n)
        _check_budget(estimate, budget)
        width = n - k + 1
        clauses = [build_e(c) for c in combinations(range(1, n + 1), width)]
        word, as_constructed = _and_tree(clauses)
        word = word.reduce()
        depth = (comb(n, width) - 1).bit_length() + (width - 1).bit_length()
    elif isinstance(folded.root, Const):
        if not folded.root.value:
            raise UnrealizableSpecError(
                "circuit is constantly false: the picture could never fall"
            )
        if spec is None:
            notices.append("circuit is constantly true; compiles to the empty word")
        word = EMPTY_WORD
        as_constructed = 0
        depth = 0
    else:
        _check_budget(estimate, budget)
        if isinstance(folded.root, Gate) and n < 2:
            raise ValueError("gates anchor on nails 1 and 2, so compiling needs n >= 2")
        words = _compile_words(folded.root)
        word = words[id(folded.root)]
        as_constructed = _root_splice_length(folded.root, words)
        depth = node_depth(folded.root)
    reduced_length = len(word.letters)
    bound = 1078**depth
    verified: bool | None = None
    mismatch_mask: int | None = None
    if verify is None:
        verify_now = n <= limit and (1 << n) * max(reduced_length, 1) <= _AUTO_VERIFY_WORK
        if not verify_now:
            reason = (
                f"n={n} beyond the exhaustive limit {limit}"
                if n > limit
                else "past the auto-verification work cap"
            )
            notices.append(f"table verification skipped: {reason}")
    else:
        verify_now = verify
    if verify_now:
        if spec is not None:
            expected_table = spec.table(limit)
        else:
            expected_table = circuit_table(folded, limit)
        got_table = fall_table(word, n, limit)
        for mask, (want, got) in enumerate(zip(expected_table, got_table)):
            if want != got:
                verified = False
                mismatch_mask = mask
                subset = NailSubset(n, mask)
                notices.append(
                    f"fall table mismatch at subset {subset}: "
                    f"spec says {'fall' if want else 'hang'}, word says "
                    f"{'fall' if got else 'hang'}"
                )
                break
        else:
            verified = True
    return CompileReport(
        word=word,
        n=n,
        as_constructed_length=as_constructed,
        reduced_length=reduced_length,
        depth=depth,
        estimate=estimate,
        bound=bound,
        verified=verified,
        mismatch_mask=mismatch_mask,
        notices=tuple(notices),
    )


def _check_budget(estimate: int, budget: int | None) -> None:
    if budget is not None and estimate > budget:
        raise BudgetExceededError(
            f"estimated output of {estimate} letters exceeds the budget of "
            f"{budget}; raise the budget to proceed"
        )


def _compile_words(root: Node) -> dict[int, Word]:
    words: dict[int, Word] = {}
    for node in _walk(root):
        if isinstance(node, Var):
            words[id(node)] = Word((node.index,), reduced=True)
        elif isinstance(node, Const):
            raise ValueError("constants must be folded away before compilation")
        elif node.op == "and":
            words[id(node)] = gadget_and(words[id(node.left)], words[id(node.right)])
        else:
            words[id(node)] = gadget_or(words[id(node.left)], words[id(node.right)])
    return words


def _root_splice_length(root: Node, words: dict[int, Word]) -> int:
    if not isinstance(root, Gate):
        return 1
    left = len(words[id(root.left)].letters)
    right = len(words[id(root.right)].letters)
    cost = and_splice_cost if root.op == "and" else or_splice_cost
    return cost(left, right)
