"""Fixtures shared by the test modules."""

import pytest

from picturehang.circuits import _minimal_sets
from picturehang.constructions import build_e
from picturehang.words import _nails


def _cover_leaves(m, sets):
    """The E-words of a Set Cover instance's distinct minimal owner sets, in element order.

    Each owner mask is a scan of every set.  These are the leaves that
    ``set_cover_to_hanging`` lays out under its AND tree, built apart from it.
    """
    masks = [sum(1 << i for i, s in enumerate(sets) if j in s) for j in range(1, m + 1)]
    minimal = set(_minimal_sets(masks))
    return [build_e(_nails(mask)) for mask in dict.fromkeys(masks) if mask in minimal]


@pytest.fixture
def cover_leaves():
    return _cover_leaves
