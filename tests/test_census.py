"""Tier-1's slice of the bounded-exhaustive census (``tests/census.py``):
every k-th instance of each space must hash to its pinned digest, with
the pinned counts, and so must the whole uniform space at d = 6."""

import pytest

from census import PINNED_SLICE, PINNED_UNIFORM, SLICE_STRIDE, SPACES, census, uniform_census


@pytest.mark.parametrize("space", sorted(SPACES))
def test_slice_matches_its_pinned_digest(space):
    instances = SPACES[space]()[:: SLICE_STRIDE[space]]
    assert census(instances) == PINNED_SLICE[space]


def test_uniform_space_matches_its_pinned_digest():
    assert uniform_census(6) == PINNED_UNIFORM[6]
