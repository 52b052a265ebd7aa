from __future__ import annotations

import functools
import sys
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from chromcat import (
    GroupError,
    build_category,
    group_from_permutations,
    load_builtin,
    load_group_file,
    quillen_category,
)


@functools.lru_cache(maxsize=None)
def group(name):
    return load_builtin(name)


STRETCH = ("agl116", "agl32", "f33h")  # the test-only groups past the library


@functools.lru_cache(maxsize=None)
def stretch_group(name):
    """A test-only group of ``golden/groups/``, not bundled."""
    return load_group_file(Path(__file__).parent / "golden" / "groups" / (name + ".json"))


@functools.lru_cache(maxsize=None)
def category(name, p, n):
    if n is None:
        return quillen_category(group(name), p)
    return build_category(group(name), p, n)


@pytest.fixture
def a4():
    return group("a4")


# Bundled groups of order <= 64, used by the property suites.
SMALL_LIBRARY = [
    "c1", "c2", "c3", "c4", "c6", "k4", "e8", "e9", "s3", "d8", "q8",
    "c2wrc2", "a4", "d16", "sd16", "q16", "s4", "h27", "x32", "a5",
]

# Subset within the all-tuples oracle budget (order <= 32).
ORACLE_LIBRARY = [
    "c2", "c3", "c4", "c6", "k4", "e8", "e9", "s3", "d8", "q8",
    "c2wrc2", "a4", "d16", "sd16", "q16", "s4", "h27", "x32",
]

# A 2-group of order 64 (as permutations of 8 points) whose A^(1) joins two
# G-classes of Klein fours through a candidate that is not the identity
# matrix.  The bundled groups join classes only in S6 and A6, and there
# through the identity.
LEVEL_JOIN_GENERATORS = [[5, 3, 1, 7, 6, 4, 0, 2], [1, 0, 5, 3, 7, 2, 6, 4]]


@st.composite
def small_permutation_groups(draw):
    """1-3 random permutations of degree <= 6 whose closure has order <= 120,
    listed with the first one again and the identity after them: neither
    changes the group, and both must drop out of its generators."""
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    gens = gens + [gens[0], list(range(degree))]
    try:
        return group_from_permutations(degree, gens, order_cap=120)
    except GroupError:
        assume(False)
