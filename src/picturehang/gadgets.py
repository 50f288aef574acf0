"""The paper's AND/OR gate gadgets and their length accounting.

No compile route uses a gadget; `set_cover_to_hanging` uses
`gadget_and_tree`.  Both templates anchor on nails 1 and 2, which are then
ordinary removable nails and the glue of every gadget.

    AND(p, q) = p^2 x1 p^2 x1^-1 (q x2 q x2^-1)^-2
    OR(p, q)  = AND(AND([a, b], [a, b~]), AND([a~, b], [a~, b~]))
                with a = p x1 p x1^-1, a~ = p x1^-1 p x1,
                     b = q x2 q x2^-1, b~ = q x2^-1 q x2

Each template is one token list (`and_template_tokens`,
`or_template_tokens`) that drives both building and accounting: a gadget
splices its reduced arguments into the slots and reduces at the joins.
Laid out with single-letter arguments the AND template has 14 letters (4
copies of p, 4 of q, 6 glue) and the OR template 1,078.  The flat
bookkeeping of the OR counts 256 p-slots, 256 q-slots and 566 glue
letters; the folded one tallies each conjugating bracket u a u a^-1 as one
recursive unit plus three glue letters, giving 256 units and 822 glue.
`estimate_length` uses the flat counts, so a gadget circuit of depth d
lays out at most 1078**d letters.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, Union

from .circuits import MonotoneCircuit, Var, evaluate
from .words import Word, _product, raw_inverse


def gadget_and(p: Word, q: Word) -> Word:
    """Word falling iff both argument words have fallen, reduced."""
    return _lay_out(_AND_TEMPLATE, p, q)


def gadget_or(p: Word, q: Word) -> Word:
    """Word falling iff at least one argument word has fallen, reduced."""
    return _lay_out(_OR_TEMPLATE, p, q)


def gadget_and_tree(words: Sequence[Word]) -> Word:
    """Balanced tree of AND gadgets over the words; first half rounds up.

    A single word is returned as given.
    """
    if len(words) == 1:
        return words[0]
    half = (len(words) + 1) // 2
    return gadget_and(gadget_and_tree(words[:half]), gadget_and_tree(words[half:]))


# The templates are expanded symbolically: a token is either a glue letter
# (int, nail 1 or 2) or a marker ("P"/"Q", sign) standing for one copy of an
# argument word or its inverse.

_Token = Union[int, tuple[str, int]]


def _t_inv(tokens: list[_Token]) -> list[_Token]:
    return [-t if isinstance(t, int) else (t[0], -t[1]) for t in reversed(tokens)]


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
    """The template with p, p^-1, q and q^-1 spliced into its slots, reduced.

    Its pieces are reduced, so the product is reduced at their joins only
    (``words._product``).
    """
    return Word(tuple(_product(_pieces(template, p, q))), reduced=True)


def _pieces(template: tuple[_Token, ...], p: Word, q: Word) -> list[Sequence[int]]:
    """The template's tokens as reduced pieces: glue letters alone, words in the slots."""
    args = {"P": p.reduce(), "Q": q.reduce()}
    pieces: dict[_Token, Sequence[int]] = {glue: (glue,) for glue in (1, -1, 2, -2)}
    for name, sign in {t for t in template if not isinstance(t, int)}:
        pieces[name, sign] = (args[name] if sign > 0 else raw_inverse(args[name])).letters
    return list(map(pieces.__getitem__, template))


class TemplateCounts(NamedTuple):
    recursive_units: int
    auxiliary_letters: int

    @property
    def total(self) -> int:
        return self.recursive_units + self.auxiliary_letters


def flat_counts(tokens: Sequence[_Token]) -> tuple[int, int, int]:
    """(p-slots, q-slots, bare glue letters) of a template expansion."""
    p_slots = sum(1 for t in tokens if not isinstance(t, int) and t[0] == "P")
    q_slots = sum(1 for t in tokens if not isinstance(t, int) and t[0] == "Q")
    return p_slots, q_slots, len(tokens) - p_slots - q_slots


def _splice_cost(template: tuple[_Token, ...]) -> Callable[[int, int], int]:
    """Letters the template lays out around reduced arguments of the given lengths."""
    p_slots, q_slots, glue = flat_counts(template)
    return lambda len_p, len_q: p_slots * len_p + q_slots * len_q + glue


and_splice_cost = _splice_cost(_AND_TEMPLATE)
or_splice_cost = _splice_cost(_OR_TEMPLATE)


def folded_counts(tokens: list[_Token]) -> TemplateCounts:
    """Bracket-folded tally of a template expansion.

    Every argument marker in the templates sits inside a conjugating bracket
    u a u a^-1 (or its inverse a u a^-1 u).  Such a bracket is charged as one
    recursive unit; its other three letters, including the second copy of u,
    count as glue.  Letters outside brackets count singly.
    """
    units = aux = i = 0
    while i < len(tokens):
        if _is_bracket(tokens[i : i + 4]):
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
    """Upper bound on letters the gadgets lay out for this circuit.

    Per gate the flat template slot counts apply to the children's own
    estimates: an AND costs 4+4 slots plus 6 glue, an OR 256+256 plus 566.
    Shared subcircuits count once per occurrence, matching the splicing.
    """
    costs = {"and": and_splice_cost, "or": or_splice_cost}
    return evaluate(c.root, lambda leaf: int(isinstance(leaf, Var)), costs)
