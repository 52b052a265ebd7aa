"""Linear algebra over F_p against the whole-row and digit-tuple oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromcat import modp
from chromcat.modp import VectorSpace
from oracles import digit_tuple_add_table, whole_row_kernel_basis, whole_row_rref

PRIMES = (2, 3, 5, 7)


def _check_against_oracle(m, p, ncols):
    assert modp.rref(m, p) == whole_row_rref(m, p), (m, p)
    assert modp.kernel_basis(m, p, ncols) == whole_row_kernel_basis(m, p, ncols), (m, p)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rref_and_kernel_match_whole_row_oracle(data):
    # entries past p and below 0: the pivot-column elimination is only
    # right once they are reduced on entry
    p = data.draw(st.sampled_from(PRIMES))
    ncols = data.draw(st.integers(min_value=0, max_value=8))
    entry = st.one_of(st.just(0), st.integers(min_value=-2 * p, max_value=3 * p))
    rows = data.draw(st.lists(st.tuples(*[entry] * ncols), max_size=8))
    _check_against_oracle(tuple(rows), p, ncols)


def test_rref_and_kernel_match_oracle_on_seeded_sparse_matrices():
    rng = random.Random(15)
    for p in PRIMES:
        for _ in range(150):
            nrows, ncols = rng.randint(0, 14), rng.randint(1, 14)
            density = rng.choice((0.05, 0.2, 0.5, 1.0))
            m = tuple(
                tuple(
                    rng.randint(-p, 2 * p) if rng.random() < density else 0
                    for _ in range(ncols)
                )
                for _ in range(nrows)
            )
            _check_against_oracle(m, p, ncols)


def test_rref_of_unreduced_entries():
    # p itself is zero: it must not be taken as a pivot
    assert modp.rref(((2, 1), (1, 0)), 2) == (((1, 0), (0, 1)), (0, 1))
    assert modp.rref(((3, 6, -3),), 3) == ((), ())
    assert modp.rref(((-1, 4),), 5) == (((1, 1),), (0,))


def test_mat_inverse_over_each_prime():
    rng = random.Random(7)
    for p in PRIMES:
        for r in range(1, 5):
            for _ in range(20):
                m = tuple(tuple(rng.randrange(p) for _ in range(r)) for _ in range(r))
                if modp.mat_rank(m, p) < r:
                    with pytest.raises(ValueError, match="singular"):
                        modp.mat_inverse(m, p)
                    continue
                ident = modp.identity_matrix(r)
                inv = modp.mat_inverse(m, p)
                assert modp.mat_mul(m, inv, p) == modp.mat_mul(inv, m, p) == ident


@pytest.mark.parametrize("p,max_m", [(2, 8), (3, 5), (5, 3), (7, 2)])
def test_add_table_matches_digit_tuples(p, max_m):
    for m in range(max_m + 1):
        assert VectorSpace(p, m).add == digit_tuple_add_table(p, m), (p, m)
