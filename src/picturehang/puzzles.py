"""Golden puzzle fixtures: eleven classic hanging words with their specs.

Each fixture pairs a known solution word with a spec recorded from the
corresponding puzzle statement, not inferred from the word itself.
The words are the objects under test; the specs are the independent
ground truth they are checked against.
"""

from __future__ import annotations

from typing import NamedTuple

from .circuits import PuzzleSpec
from .words import Word, parse_word

__all__ = ["PuzzleFixture", "load_fixtures", "fixture_by_id"]


class PuzzleFixture(NamedTuple):
    """A solution word and the spec it is supposed to realize.

    The invariant fall_table(word, n) == spec.table() is enforced by the
    test suite rather than at load time, so a deliberately corrupted copy
    can still be constructed when exercising the verifier.
    """

    id: int
    n: int
    word: Word
    spec: PuzzleSpec
    title: str


_W1 = "x1 x2 x3 X2 X3 X1 x3 x2 X3 X2"
_W2 = "x1 x2 x3 X1 X2 X3"
_W3 = "x1 x2 x3 X1 X3 X2"
_W4 = "x1 x2 X1 X2 x3 x4 X3 X4 x2 x1 X2 X1 x4 x3 X4 X3"
_W5 = (
    "x1 x2 x1 x3 x1 x4 X3 X1 X4 X1 X2 X1 x1 x4 x1 x3 X4 X1 X3 X1 x2 x3 x2 x4 x3 x4 X4 X2 "
    "X4 X3 X3 X2 x3 x4 x2 x4 X4 X3 X4 X2 x1 x3 x1 x4 X3 X1 X4 X1 x1 x2 x1 x4 x1 x3 X4 X1 "
    "X3 X1 X2 X1 x2 x4 x3 x4 X4 X2 X4 X3 x2 x3 x3 x4 x2 x4 X4 X3 X4 X2 X3 X2"
)
_W6 = "x1 x2 x3 x4 X1 X2 X3 X4"
_W7 = "x1 x2 x3 x4 X2 X1 X4 X3"
_W8 = "x1 x2 X1 X2 x3 x4 x2 x1 X2 X1 X4 X3"
_W9 = "x1 x2 x3 X2 X3 X1 x3 x2 X3 X2 x4 x5 x6 x2 x3 X2 X3 x1 x3 x2 X3 X2 X1 X6 X5 X4"
_W10 = (
    "x1 x2 x3 X2 X3 X1 x3 x2 X3 X2 x4 x5 x6 X4 X5 X6 x2 x3 X2 X3 x1 x3 x2 X3 X2 X1 x6 x5 "
    "x4 X6 X5 X4"
)
_W11 = (
    "x1 x3 x2 x4 x1 x5 X4 X2 X5 X1 X3 X1 x1 x5 x2 x4 X5 X1 X4 X2 x3 x6 x1 x4 x2 x3 X4 X1 "
    "X3 X2 X6 X3 x2 x3 x1 x4 X3 X2 X4 X1 x2 x4 x1 x5 X4 X2 X5 X1 x1 x3 x1 x5 x2 x4 X5 X1 "
    "X4 X2 X3 X1 x1 x4 x2 x3 X4 X1 X3 X2 x3 x6 x2 x3 x1 x4 X3 X2 X4 X1 X6 X3 x1 x6 x2 x5 "
    "x4 x6 X5 X2 X6 X4 X6 X1 x4 x6 x2 x5 X6 X4 X5 X2 x3 x5 x2 x6 x4 x5 X6 X2 X5 X4 X5 X3 "
    "x4 x5 x2 x6 X5 X4 X6 X2 x2 x5 x4 x6 X5 X2 X6 X4 x1 x6 x4 x6 x2 x5 X6 X4 X5 X2 X6 X1 "
    "x2 x6 x4 x5 X6 X2 X5 X4 x3 x5 x4 x5 x2 x6 X5 X4 X6 X2 X5 X3 x3 x6 x1 x4 x2 x3 X4 X1 "
    "X3 X2 X6 X3 x2 x3 x1 x4 X3 X2 X4 X1 x1 x3 x2 x4 x1 x5 X4 X2 X5 X1 X3 X1 x1 x5 x2 x4 "
    "X5 X1 X4 X2 x1 x4 x2 x3 X4 X1 X3 X2 x3 x6 x2 x3 x1 x4 X3 X2 X4 X1 X6 X3 x2 x4 x1 x5 "
    "X4 X2 X5 X1 x1 x3 x1 x5 x2 x4 X5 X1 X4 X2 X3 X1 x3 x5 x2 x6 x4 x5 X6 X2 X5 X4 X5 X3 "
    "x4 x5 x2 x6 X5 X4 X6 X2 x1 x6 x2 x5 x4 x6 X5 X2 X6 X4 X6 X1 x4 x6 x2 x5 X6 X4 X5 X2 "
    "x2 x6 x4 x5 X6 X2 X5 X4 x3 x5 x4 x5 x2 x6 X5 X4 X6 X2 X5 X3 x2 x5 x4 x6 X5 X2 X6 X4 "
    "x1 x6 x4 x6 x2 x5 X6 X4 X5 X2 X6 X1"
)

# Puzzle 11: two nails of each of three colors; the picture falls exactly
# when two removed nails carry different colors.
_CROSS_COLOR_PAIRS = [
    frozenset({a, b})
    for left, right in [((1, 2), (3, 4)), ((1, 2), (5, 6)), ((3, 4), (5, 6))]
    for a in left
    for b in right
]

_FIXTURES: list[tuple[int, str, str, PuzzleSpec]] = [
    (1, _W1, "falls when any one of three nails is removed",
     PuzzleSpec.from_subsets(3, [{1}, {2}, {3}])),
    (2, _W2, "falls only when two of three nails are removed",
     PuzzleSpec.from_threshold(3, 2)),
    (3, _W3, "falls when nail 1 is removed, or both of nails 2 and 3",
     PuzzleSpec.from_subsets(3, [{1}, {2, 3}])),
    (4, _W4, "falls when any one of four nails is removed",
     PuzzleSpec.from_subsets(4, [{1}, {2}, {3}, {4}])),
    (5, _W5, "falls only when two of four nails are removed",
     PuzzleSpec.from_threshold(4, 2)),
    (6, _W6, "falls only when three of four nails are removed",
     PuzzleSpec.from_threshold(4, 3)),
    (7, _W7, "falls when both nails of either pair {1,2}, {3,4} are removed",
     PuzzleSpec.from_subsets(4, [{1, 2}, {3, 4}])),
    (8, _W8, "falls when nail 1 or nail 2 is removed, or both of nails 3 and 4",
     PuzzleSpec.from_subsets(4, [{1}, {2}, {3, 4}])),
    (9, _W9, "falls when any of nails 1-3 is removed, or all of nails 4-6",
     PuzzleSpec.from_subsets(6, [{1}, {2}, {3}, {4, 5, 6}])),
    (10, _W10, "falls when any of nails 1-3 is removed, or any two of nails 4-6",
     PuzzleSpec.from_subsets(6, [{1}, {2}, {3}, {4, 5}, {4, 6}, {5, 6}])),
    (11, _W11, "falls when two removed nails have different colors",
     PuzzleSpec.from_subsets(6, _CROSS_COLOR_PAIRS)),
]


def _fixture(fid: int, text: str, title: str, spec: PuzzleSpec) -> PuzzleFixture:
    return PuzzleFixture(id=fid, n=spec.n, word=parse_word(text), spec=spec, title=title)


def load_fixtures() -> list[PuzzleFixture]:
    """Return the eleven golden fixtures in puzzle order."""
    return [_fixture(*entry) for entry in _FIXTURES]


def fixture_by_id(fid: int) -> PuzzleFixture:
    """Return one fixture, parsing only its own word."""
    for entry in _FIXTURES:
        if entry[0] == fid:
            return _fixture(*entry)
    raise KeyError(f"no fixture with id {fid}; valid ids are 1..11")
