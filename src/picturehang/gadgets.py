"""The paper's AND/OR gate gadgets and their length accounting.

No compile route uses a gadget; `set_cover_to_hanging` uses
`gadget_and_tree`.  Both templates anchor on nails 1 and 2, which are then
ordinary removable nails and the glue of every gadget.

    AND(p, q) = p^2 x1 p^2 x1^-1 (q x2 q x2^-1)^-2
    OR(p, q)  = AND(AND([a, b], [a, b~]), AND([a~, b], [a~, b~]))
                with a = p x1 p x1^-1, a~ = p x1^-1 p x1,
                     b = q x2 q x2^-1, b~ = q x2^-1 q x2

Each gadget is defined once (`_and`, `_or`), on its two argument pieces,
its two glue pieces and a join.  Joined unreduced on p = x3, q = x4 and
glue x1, x2, the definitions are the templates (`and_template_tokens`,
`or_template_tokens`) that the accounting below reads: letters +-3 and +-4
are slots, +-1 and +-2 glue.  Joined by `_product`, which reduces at the
joins, they lay out the gadgets, packed from leaves to root when every
nail is at most 127; such a word keeps the tree it was laid out from
(``Word.tree``, a ``_Tree``): the searches' packed root and residuals.
Laid out with single-letter arguments the AND template has 14 letters (4
copies of p, 4 of q, 6 glue) and the OR template 1,078.  The flat
bookkeeping of the OR counts 256 p-slots, 256 q-slots and 566 glue
letters; the folded one tallies each conjugating bracket u a u a^-1 as one
recursive unit plus three glue letters, giving 256 units and 822 glue.
`estimate_length` uses the flat counts, so a gadget circuit of depth d
lays out at most 1078**d letters.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

from .circuits import MonotoneCircuit, Var, evaluate
from .constructions import _balanced
from .spectator import _both, _relabel
from .words import _BYTES, _PACKED_NAILS, Word, _invert, _nails, _pack, _residual, _set_tree, nail_counts

_Letters = Sequence[int]  # a gadget's pieces: int letters, or packed ones (``words._pack``)


def gadget_and(p: Word, q: Word) -> Word:
    """Word falling iff both argument words have fallen, reduced."""
    return _lay_out(_and, (p, q))


def gadget_or(p: Word, q: Word) -> Word:
    """Word falling iff at least one argument word has fallen, reduced."""
    return _lay_out(_or, (p, q))


def gadget_and_tree(words: Sequence[Word]) -> Word:
    """Balanced tree of AND gadgets over the words (``constructions._balanced``), one word as given."""
    return words[0] if len(words) == 1 else _lay_out(_and, words)


def _and(p: _Letters, q: _Letters, g1: _Letters, g2: _Letters, join: Callable) -> _Letters:
    """p p g1 p p g1^-1 (q g2 q g2^-1)^-2: its 14 pieces joined."""
    h1, h2, r = _invert(g1), _invert(g2), _invert(q)
    return join((p, p, g1, p, p, h1, g2, r, h2, r, g2, r, h2, r))


def _or(p: _Letters, q: _Letters, g1: _Letters, g2: _Letters, join: Callable) -> _Letters:
    """AND(AND([a, b], [a, b~]), AND([a~, b], [a~, b~])), glue g1 and g2 for x1 and x2."""
    h1, h2 = _invert(g1), _invert(g2)
    a, a_flip, b, b_flip = (join((u, g, u, _invert(g))) for u, g in ((p, g1), (p, h1), (q, g2), (q, h2)))
    c = [join((u, v, _invert(u), _invert(v))) for u in (a, a_flip) for v in (b, b_flip)]  # [a, b] .. [a~, b~]
    return _and(_and(c[0], c[1], g1, g2, join), _and(c[2], c[3], g1, g2, join), g1, g2, join)


def _concat(pieces: Iterable[_Letters]) -> tuple[int, ...]:
    """The pieces joined unreduced."""
    return tuple(chain.from_iterable(pieces))


def and_template_tokens() -> tuple[int, ...]:
    return _and((3,), (4,), (1,), (2,), _concat)


def or_template_tokens() -> tuple[int, ...]:
    return _or((3,), (4,), (1,), (2,), _concat)


_AND_TEMPLATE = and_template_tokens()
_OR_TEMPLATE = or_template_tokens()


def _lay_out(gadget: Callable, words: Sequence[Word]) -> Word:
    """A balanced tree of the gadget over two or more words, reduced.

    Each gadget joins its reduced arguments (``_joined``), on bytes when
    every nail is at most 127: the words are packed once as the leaves of
    a ``_Tree``, whose residual with nothing removed is its root, unpacked
    once for ``Word.letters``.  The word keeps the tree (``Word.tree``, set
    by ``words._set_tree`` here only) for the searches.
    """
    args = [w.reduce().letters for w in words]
    leaves = [_pack(x) for x in args]
    if not all(isinstance(x, bytes) for x in leaves):
        return Word(tuple(_balanced(args, _joined(gadget, (1,), (2,)))), reduced=True)
    tree = _Tree(gadget, (b"\x01", b"\x02"), tuple(leaves), {}, b"")
    tree = tree._replace(root=tree.residual(0))
    w = Word(struct.unpack(f"{len(tree.root)}b", tree.root), reduced=True)
    _set_tree(w, tree)
    return w


def _joined(gadget: Callable, g1: _Letters, g2: _Letters) -> Callable:
    """The gadget on two reduced pieces joined by ``_product``; it lays out nothing on two empty ones."""
    product = partial(_product, packed=isinstance(g1, bytes))

    def join(p: _Letters, q: _Letters) -> _Letters:
        return gadget(p, q, g1, g2, product) if p or q else p

    return join


def _product(pieces: Iterable[Sequence[int]], packed: bool = False) -> Sequence[int]:
    """The reduced product of reduced pieces: int sequences give a list, ``packed`` bytes give bytes.

    Only letters where two pieces meet can cancel, so each piece first
    cancels its head against the tail of the product so far, one pair per
    turn, and the rest of it is copied whole, in C.  A piece that cancels
    whole lets the next one cancel further back, across earlier pieces.
    """
    base = 256 if packed else 0  # a letter plus its inverse
    out = bytearray(1) if packed else [0]  # a sentinel, as in _residual: no letter cancels it
    pop = out.pop
    for piece in pieces:
        if piece and out[-1] + piece[0] == base:  # else the piece is copied whole at once
            cut = 1
            pop()
            while cut < len(piece) and out[-1] + piece[cut] == base:
                pop()
                cut += 1
            piece = piece[cut:]
        out += piece
    del out[0]
    return bytes(out) if packed else out


class _Tree(NamedTuple):
    """A gadget tree laid out on bytes: its gadget (``_and`` or ``_or``), glue and leaves, packed and reduced.

    It answers the searches' one question, the reduced residual of its word
    for a removal mask, by laying the tree out again on the residuals of
    its pieces.  Deleting nails is a homomorphism, the join product cancels
    only where pieces meet and free reduction has one normal form, so the
    bytes are those ``words._residual`` leaves of the word's packed letters,
    ``root``, the residual of the empty mask.  A subtree whose leaves all
    emptied is skipped (see ``_joined``).  ``cuts`` keeps each piece's
    letters left by a removal, reduced, so that a cut met again is looked
    up rather than reduced again.
    """

    gadget: Callable
    glue: tuple[bytes, bytes]
    leaves: tuple[bytes, ...]
    cuts: dict[bytes, bytes]
    root: bytes

    def residual(self, mask: int) -> bytes:
        """The word's reduced residual after removing the nails set in ``mask``.

        Each leaf is replaced by its own residual (a leaf may empty) and a
        removed glue letter is dropped; mask bits above 127 are left out.
        """
        drop, cuts = _both(_nails(mask & _PACKED_NAILS)), self.cuts
        g1, g2, *leaves = (_cut(x, drop, cuts) for x in (*self.glue, *self.leaves))
        return _balanced(leaves, _joined(self.gadget, g1, g2))

    def relabel(self, held: list[int]) -> "_Tree":
        """The tree on the ``held`` nails, sorted, relabeled 1..h, every other nail deleted.

        ``held`` are the nails the reduced word holds.  A nail its pieces
        hold besides them changes no residual, so it is deleted rather than
        left under its own number, where it would alias a new label; the root is relabeled too.
        """
        table, drop, cuts = _relabel(held), _BYTES.translate(None, _both(held)), {}
        glue, leaves = ([_cut(x, drop, cuts, table) for x in xs] for xs in (self.glue, self.leaves))
        root = _cut(self.root, drop, cuts, table)
        return self._replace(glue=tuple(glue), leaves=tuple(leaves), cuts=cuts, root=root)


def _cut(piece: bytes, drop: bytes, cuts: dict[bytes, bytes], table: bytes | None = None) -> bytes:
    """A reduced packed piece less the bytes in ``drop``, through ``table``, reduced if shorter.

    The reduced letters are looked up in ``cuts`` first, and kept there.
    """
    rest = piece.translate(table, drop)
    if len(rest) == len(piece):
        return rest
    if (reduced := cuts.get(rest)) is None:
        reduced = cuts[rest] = _residual(rest)
    return reduced


class TemplateCounts(NamedTuple):
    recursive_units: int
    auxiliary_letters: int

    @property
    def total(self) -> int:
        return self.recursive_units + self.auxiliary_letters


def flat_counts(template: Sequence[int]) -> tuple[int, int, int]:
    """(p-slots, q-slots, bare glue letters) of a template."""
    counts = nail_counts(Word(tuple(template)), 4)
    return counts[3], counts[4], counts[1] + counts[2]


def _splice_cost(template: tuple[int, ...]) -> Callable[[int, int], int]:
    """Letters the template lays out around reduced arguments of the given lengths."""
    p_slots, q_slots, glue = flat_counts(template)
    return lambda len_p, len_q: p_slots * len_p + q_slots * len_q + glue


and_splice_cost = _splice_cost(_AND_TEMPLATE)
or_splice_cost = _splice_cost(_OR_TEMPLATE)


def folded_counts(template: Sequence[int]) -> TemplateCounts:
    """Bracket-folded tally of a template.

    Every slot in the templates sits inside a conjugating bracket u a u a^-1
    (or its inverse a u a^-1 u).  Such a bracket is charged as one recursive
    unit; its other three letters, including the second copy of u, count as
    glue.  Letters outside brackets count singly: a slot as a unit, glue as
    glue.
    """
    units = aux = i = 0
    while i < len(template):
        if _is_bracket(template[i : i + 4]):
            units += 1
            aux += 3
            i += 4
        elif abs(template[i]) <= 2:
            aux += 1
            i += 1
        else:
            units += 1
            i += 1
    return TemplateCounts(units, aux)


def _is_bracket(window: Sequence[int]) -> bool:
    if len(window) < 4:
        return False
    a, b, c, d = window
    if abs(a) > 2 and abs(c) > 2:
        return a == c and abs(b) <= 2 and d == -b
    if abs(a) <= 2 and abs(c) <= 2:
        return c == -a and abs(b) > 2 and b == d
    return False


def estimate_length(c: MonotoneCircuit) -> int:
    """Upper bound on letters the gadgets lay out for this circuit.

    A gate is priced as a balanced tree of binary gadgets over its operands
    (``constructions._balanced``), each applying the flat template slot counts to
    its arguments' own estimates: an AND costs 4+4 slots plus 6 glue, an
    OR 256+256 plus 566.  Shared subcircuits count once per occurrence.
    """
    and_, or_ = partial(_balanced, join=and_splice_cost), partial(_balanced, join=or_splice_cost)
    return evaluate(c.root, lambda leaf: int(isinstance(leaf, Var)), {"and": and_, "or": or_})
