"""Diagram emitter: grid text and SVG, determinism and legends."""

import hashlib
import random
import xml.dom.minidom

import pytest

from picturehang.constructions import build_e
from picturehang.render import to_diagram
from picturehang.words import EMPTY_WORD, Word, nail_counts, parse_word

SHORT_TEXT = """\
nails: 1   2   3
       o   o   o
rope:  )   .   .   x1  clockwise
       .   (   .   X2  counterclockwise
       )   .   .   x1  clockwise
       (   .   .   X1  counterclockwise
       .   )   .   x2  clockwise
legend: 5 letters
  nail 1: 3 wraps
  nail 2: 2 wraps
  nail 3: 0 wraps
"""

# sha256 of the diagrams of a seeded 200-letter word on nails 1..5, drawn
# on n = 7; fixed so that any changed byte of either format shows.
PINNED_SHA256 = {
    "text": "5c503394c911c8903a4cabc99e77da579749443e19da0f7f7da346ade88c265d",
    "vector": "83e944f44949133cef31be03ca095c24f1ef2bbe44a1335c692f8111b18d1d56",
}


def test_short_text_diagram_is_pinned():
    assert to_diagram(parse_word("x1 X2 x1 X1 x2"), 3, "text") == SHORT_TEXT


@pytest.mark.parametrize("fmt", sorted(PINNED_SHA256))
def test_seeded_diagram_is_pinned(fmt):
    rng = random.Random(8)
    w = Word(tuple(rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(200)))
    doc = to_diagram(w, 7, fmt)
    assert hashlib.sha256(doc.encode()).hexdigest() == PINNED_SHA256[fmt]


def test_text_diagram_empty_word():
    doc = to_diagram(EMPTY_WORD, 2, "text")
    assert "legend: 0 letters" in doc
    assert "nail 1: 0 wraps" in doc
    assert "rope:" not in doc


def test_text_diagram_commutator_order():
    doc = to_diagram(Word((1, 2, -1, -2)), 2, "text")
    lines = doc.splitlines()
    rope = [line for line in lines if "clockwise" in line]
    assert len(rope) == 4
    assert rope[0].endswith("x1  clockwise")
    assert rope[2].endswith("X1  counterclockwise")
    assert "legend: 4 letters" in doc


def test_text_diagram_legend_counts_match_word():
    w = build_e([1, 2, 3, 4])
    doc = to_diagram(w, 4, "text")
    assert f"legend: {len(w)} letters" in doc
    counts = nail_counts(w, 4)
    for i in range(1, 5):
        assert f"nail {i}: {counts[i]} wraps" in doc
        assert counts[i] == 4


def test_vector_diagram_is_svg_with_one_loop_per_letter():
    w = Word((1, 2, -1, -2))
    doc = to_diagram(w, 2, "vector")
    xml.dom.minidom.parseString(doc)
    assert doc.startswith("<svg")
    # each loop is two arc commands
    assert doc.count("A ") == 2 * len(w)
    assert "legend: 4 letters" in doc


def test_vector_diagram_empty_word_parses():
    doc = to_diagram(EMPTY_WORD, 3, "vector")
    xml.dom.minidom.parseString(doc)
    assert "legend: 0 letters" in doc


def test_diagrams_are_deterministic():
    w = Word((1, -2, 1))
    assert to_diagram(w, 2, "text") == to_diagram(w, 2, "text")
    assert to_diagram(w, 2, "vector") == to_diagram(w, 2, "vector")


def test_unsupported_format_rejected():
    with pytest.raises(ValueError):
        to_diagram(Word((1,)), 1, "png")


def test_n_must_cover_word():
    with pytest.raises(ValueError):
        to_diagram(Word((3,)), 2, "text")
