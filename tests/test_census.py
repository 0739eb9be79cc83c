"""Tier-1's slice of the bounded-exhaustive census (``tests/census.py``):
every k-th instance of each space must hash to its pinned digest, with
the pinned counts."""

import pytest

from census import PINNED_SLICE, SLICE_STRIDE, SPACES, census


@pytest.mark.parametrize("space", sorted(SPACES))
def test_slice_matches_its_pinned_digest(space):
    instances = SPACES[space]()[:: SLICE_STRIDE[space]]
    assert census(instances) == PINNED_SLICE[space]
