"""The package's records: construction, immutability, equality and hashing."""

import pytest

from picturehang.circuits import (
    Const,
    Gate,
    MonotoneCircuit,
    PuzzleSpec,
    SpecValidation,
    Var,
    parse_formula,
)
from picturehang.compiler import CompileReport
from picturehang.gadgets import TemplateCounts
from picturehang.puzzles import PuzzleFixture
from picturehang.sortnet import Comparator, ComparatorNetwork
from picturehang.words import NailSubset, Word

SPEC = PuzzleSpec(3, threshold_k=2)
WORD = Word((1, 2, -1, -2))

# Each record class with its fields in declaration order.
RECORDS = {
    "Word": (Word, {"letters": (1, 2, -2), "reduced": False}),
    "NailSubset": (NailSubset, {"n": 3, "mask": 5}),
    "Var": (Var, {"index": 2}),
    "Const": (Const, {"value": True}),
    "Gate": (Gate, {"op": "and", "operands": (Var(1), Var(2))}),
    "MonotoneCircuit": (MonotoneCircuit, {"n": 2, "root": Gate("or", (Var(1), Var(2)))}),
    "PuzzleSpec": (
        PuzzleSpec,
        {"n": 3, "subsets": (frozenset({1, 2}),), "formula": None, "circuit": None,
         "threshold_k": None},
    ),
    "SpecValidation": (SpecValidation, {"spec": SPEC, "notices": ("a notice",)}),
    "TemplateCounts": (TemplateCounts, {"recursive_units": 4, "auxiliary_letters": 6}),
    "CompileReport": (
        CompileReport,
        {"word": WORD, "n": 2, "route": "clause-product", "as_constructed_length": 4,
         "reduced_length": 4, "depth": 1, "estimate": 4, "bound": 1078, "verified": True,
         "mismatch_mask": None, "verify_method": "table", "masks_checked": 4, "notices": ()},
    ),
    "PuzzleFixture": (
        PuzzleFixture, {"id": 2, "n": 3, "word": WORD, "spec": SPEC, "title": "a title"}
    ),
    "Comparator": (Comparator, {"low": 1, "high": 3}),
    "ComparatorNetwork": (
        ComparatorNetwork, {"width": 3, "layers": ((Comparator(1, 2),), (Comparator(2, 3),))}
    ),
}


@pytest.mark.parametrize("cls, fields", RECORDS.values(), ids=RECORDS)
def test_record_is_built_by_position_or_keyword_and_is_immutable(cls, fields):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, None)


def test_record_defaults():
    assert Word().letters == () and Word().reduced is False and Word().tree is None
    with pytest.raises(AttributeError):
        Word().tree = None
    spec = PuzzleSpec(4, threshold_k=3)
    assert (spec.subsets, spec.formula, spec.circuit) == (None, None, None)


def test_records_of_different_classes_are_unequal():
    assert Var(1) != Const(True)
    assert Const(True) != Var(1)
    assert Var(1) == Var(1) and hash(Var(1)) == hash(Var(1))
    assert Var(1) != Var(2)


def test_spec_equality_and_hash_ignore_the_circuit():
    parsed = PuzzleSpec(2, formula="r1 | r2")
    given = PuzzleSpec(2, formula="r1 | r2", circuit=parse_formula("r2 | r1", n=2))
    assert parsed.circuit != given.circuit
    assert parsed == given
    assert hash(parsed) == hash(given)
    assert parsed != PuzzleSpec(2, formula="r2 | r1")


def test_comparator_message_shows_its_repr():
    with pytest.raises(ValueError) as info:
        Comparator(2, 2)
    assert str(info.value) == (
        "comparator wires must satisfy 1 <= low < high, got Comparator(low=2, high=2)"
    )
