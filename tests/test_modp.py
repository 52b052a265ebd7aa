"""Linear algebra over F_p against the whole-row and digit-tuple oracles."""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromcat import modp
from chromcat.modp import VectorSpace
from oracles import (
    digit_tuple_add_table,
    encode_matrix,
    matrix_order,
    triple_loop_mat_mul,
    triple_loop_mat_vec,
    whole_row_inverse,
    whole_row_kernel_basis,
    whole_row_rref,
)

PRIMES = (2, 3, 5, 7)


@functools.lru_cache(maxsize=None)
def _space(p, r):
    """One VectorSpace per (p, r), so that each of its tables is built once."""
    return VectorSpace(p, r)


def _matrix(rng, rows, cols, p):
    """A rows x cols matrix; rows x 0 is ((),) * rows, as modp writes it."""
    return tuple(tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_products_match_triple_loop_on_every_small_shape(p):
    # every (r x k) . (k x c) and (r x k) . k with r, k, c in 0..4, the
    # rows x 0 and 0-row shapes included: full_rank_matrices yields
    # ((),) * rows and the skeleton multiplies such blocks.  The coded
    # product, with b's rows in F_p^c, is the same product; an r x 0 times
    # a 0 x c matrix is the zero r x c matrix, of rows 0.  The coded a . v
    # is the level test's product, v against the rows of a's transpose, and
    # the coded inverse of each square a that has one is the whole-row
    # oracle's
    rng = random.Random(p)
    for r, k, c in itertools.product(range(5), repeat=3):
        space = _space(p, c)
        for _ in range(4):
            a, b = _matrix(rng, r, k, p), _matrix(rng, k, c, p)
            assert modp.mat_mul(a, b, p) == triple_loop_mat_mul(a, b, p), (a, b)
            v = tuple(rng.randrange(p) for _ in range(k))
            assert modp.mat_vec(a, v, p) == triple_loop_mat_vec(a, v, p), (a, v)
            coded = space.mul(encode_matrix(a, p), encode_matrix(b, p))
            want = triple_loop_mat_mul(a, b, p) if k else ((0,) * c,) * r
            assert modp.decode_matrix(coded, c, p) == want, (a, b)
            columns = encode_matrix(modp.transpose(a), p) if r else (0,) * k
            image = _space(p, r).mul((modp.encode(v, p),), columns)
            assert image == (modp.encode(triple_loop_mat_vec(a, v, p), p),), (a, v)
            if r == k and modp.mat_rank(a, p) == r:
                inv = modp.decode_matrix(_space(p, r).inverse(encode_matrix(a, p)), r, p)
                assert inv == whole_row_inverse(a, p), a
                assert triple_loop_mat_mul(a, inv, p) == modp.identity_matrix(r), a
            elif r == k:
                with pytest.raises(ValueError, match="singular"):
                    _space(p, r).inverse(encode_matrix(a, p))
    assert modp.mat_mul(((),) * 3, (), p) == ((),) * 3
    assert modp.mat_mul(((1, 0), (0, 1)), ((),) * 2, p) == ((),) * 2
    assert modp.mat_vec(((),) * 2, (), p) == (0, 0)
    assert VectorSpace(p, 0).mul((0,) * 3, ()) == (0,) * 3
    assert VectorSpace(p, 0).inverse(()) == ()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_leading_columns_drop_only_shared_trailing_zero_columns(p):
    rng = random.Random(p)
    for rows, cols in itertools.product(range(1, 4), range(5)):
        for _ in range(8):
            # rows whose columns past a random width are zero
            width = rng.randrange(cols + 1)
            a = [[rng.randrange(p) if j < width else 0 for j in range(cols)] for _ in range(rows)]
            read = max((j + 1 for row in a for j, x in enumerate(row) if x), default=0)
            cut = [modp.encode(row[:read], p) for row in a]
            assert modp.leading_columns([modp.encode(row, p) for row in a], cols, p) == (read, cut), a


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5) for m in (1, 2, 3)])
def test_apply_matches_triple_loop_on_every_small_point(p, m):
    # a point of F_q^r, q = p^m, is r vectors of F_p^m read as base-q
    # digits; the action built once for an r x r matrix, r in 0..4 (every
    # r <= m among them), multiplies them by it, at every point of F_q^r
    # when there are at most 729 and at 40 random ones past that
    rng = random.Random(10 * p + m)
    f = VectorSpace(p, m)
    for r in range(5):
        for _ in range(6):
            a = _matrix(rng, r, r, p)
            act = f.action(encode_matrix(a, p))
            if f.q ** r <= 729:
                indices = range(f.q ** r)
            else:
                indices = [rng.randrange(f.q ** r) for _ in range(40)]
            for index in indices:
                pt = [modp.decode(x, m, p) for x in modp.decode(index, r, f.q)]
                image = triple_loop_mat_mul(a, pt, p) if r else ()
                want = modp.encode([modp.encode(x, p) for x in image], f.q)
                assert act(index) == want, (a, pt)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_codes_round_trip_in_product_order(p):
    # the code of a vector is its index in itertools.product order, and
    # decode inverts encode; entries are reduced mod p on the way in
    for r in range(7):
        for k, digits in enumerate(itertools.product(range(p), repeat=r)):
            assert modp.encode(digits, p) == k
            assert modp.decode(k, r, p) == digits
    assert modp.encode((p + 1, -1), p) == p + p - 1
    assert modp.identity_code(3, p) == encode_matrix(modp.identity_matrix(3), p)
    cols = ((1, 0, 2 % p), (0, 1, 1))
    assert modp.from_columns([modp.encode(c, p) for c in cols], 3, p) == encode_matrix(
        modp.transpose(cols), p
    )


@st.composite
def _same_shape_pairs(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = st.integers(0, p - 1)
    matrix = st.tuples(*[st.tuples(*[entries] * c)] * r)
    return p, c, draw(matrix), draw(matrix)


@settings(max_examples=300, deadline=None)
@given(_same_shape_pairs())
def test_code_order_is_row_tuple_order(case):
    # a tuple of row codes sorts as the tuple of rows it encodes, so the
    # sorted Aut tuples, hom-sets and skeleton blocks keep their order
    p, c, a, b = case
    ca, cb = encode_matrix(a, p), encode_matrix(b, p)
    assert (ca < cb, ca == cb) == (a < b, a == b)
    assert modp.decode_matrix(ca, c, p) == a


def _check_against_oracle(m, p, ncols):
    # the relations among m's columns are m's right kernel: each column is
    # fed to relations as a packed row over m's rows, and the relations,
    # {column: value} dicts, are written out dense here
    columns = modp._pack([[(i, row[j]) for i, row in enumerate(m)] for j in range(ncols)], p)
    kernel = [
        tuple(v.get(j, 0) for j in range(ncols))
        for v in modp.relations(columns, p, len(m), range(ncols))
    ]
    assert kernel == whole_row_kernel_basis(m, p, ncols), (m, p)
    assert modp.mat_rank(m, p) == _oracle_rank(m, p), (m, p)


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


def _sparse_stack(rng, p, n, blocks):
    """sigma - id for powers sigma = tau, tau^2, ... of a random sparse tau:
    tau permutes n columns in cycles of length 1 to 4, and about one column
    in ten of each block gets a stray entry."""
    cycles, start = [], 0
    while start < n:
        length = min(rng.randint(1, 4), n - start)
        cycles.append(list(range(start, start + length)))
        start += length
    rows = []
    for power in range(1, blocks + 1):
        block = [[0] * n for _ in range(n)]
        for cycle in cycles:
            for k, j in enumerate(cycle):
                block[cycle[(k + power) % len(cycle)]][j] = 1
        for j in range(n):
            if rng.random() < 0.1:
                i = rng.randrange(n)
                block[i][j] = (block[i][j] + rng.randrange(1, p)) % p
            block[j][j] = (block[j][j] - 1) % p
        rows += [tuple(row) for row in block]
    return tuple(rows)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_rref_and_kernel_match_oracle_on_sparse_stacks(p):
    # the shape invariant_bases feeds: one sigma - id block per generator,
    # 100 to 120 columns, 1.3 to 1.9% of the entries nonzero, and a kernel
    # of a few dozen dimensions
    rng = random.Random(100 + p)
    for blocks in (1, 2, 3):
        n = rng.randint(100, 120)
        _check_against_oracle(_sparse_stack(rng, p, n, blocks), p, n)


def _oracle_rank(m, p):
    return len(whole_row_rref(m, p)[1])


def _inverse(m, p):
    """The tuple matrix m inverted by ``VectorSpace.inverse`` on its code."""
    r = len(m)
    return modp.decode_matrix(_space(p, r).inverse(encode_matrix(m, p)), r, p)


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2)])
def test_mat_inverse_and_rank_over_every_matrix(p, r):
    # every r x r matrix: GL_3(2) has 168 elements and GL_2(3) has 48
    invertible = 0
    for entries in itertools.product(range(p), repeat=r * r):
        m = tuple(tuple(entries[i * r:(i + 1) * r]) for i in range(r))
        rank = modp.mat_rank(m, p)
        assert rank == _oracle_rank(m, p), m
        if rank < r:
            with pytest.raises(ValueError, match="singular"):
                _inverse(m, p)
            continue
        invertible += 1
        inv = _inverse(m, p)
        ident = modp.identity_matrix(r)
        assert modp.mat_mul(m, inv, p) == modp.mat_mul(inv, m, p) == ident, m
    assert invertible == {2: 168, 3: 48}[p]


@pytest.mark.parametrize("p", PRIMES)
def test_in_span_matches_rank_comparison(p):
    # vectors and targets are sparse {column: value} dicts whose entries are
    # not reduced: an entry of -p, p or 2p is present yet zero mod p
    rng = random.Random(20 + p)

    def dense(vector, ncols):
        return tuple(vector.get(j, 0) for j in range(ncols))

    for _ in range(300):
        ncols = rng.randint(1, 7)
        vectors = [
            {j: rng.randint(-p, 2 * p) for j in range(ncols) if rng.random() < 0.4}
            for _ in range(rng.randint(0, 5))
        ]
        if vectors and rng.random() < 0.3:
            # a combination of the vectors, off by multiples of p
            target = {j: p * rng.randint(-1, 1) for j in range(ncols)}
            for v in vectors:
                c = rng.randrange(p)
                for j, x in v.items():
                    target[j] += c * x
        elif rng.random() < 0.1:
            target = {j: p * rng.randint(-1, 1) for j in range(ncols) if rng.random() < 0.5}
        else:
            target = {j: rng.randint(-p, 2 * p) for j in range(ncols) if rng.random() < 0.6}
        m = tuple(dense(v, ncols) for v in vectors)
        want = (
            _oracle_rank(m, p) == _oracle_rank(m + (dense(target, ncols),), p)
            if vectors
            else all(x % p == 0 for x in target.values())
        )
        assert modp.in_span(vectors, target, p) == want, (vectors, target, p)
    assert modp.in_span([], {1: p, 2: -p}, p)
    assert modp.in_span([], {}, p)
    assert not modp.in_span([], {1: 1}, p)
    assert modp.in_span([{0: 1}], {}, p)
    assert modp.in_span([{0: 1}], {0: 1 - p}, p)
    assert not modp.in_span([{0: p}], {0: 1}, p)


@pytest.mark.parametrize("n,prime", [
    (-3, False), (0, False), (1, False), (2, True), (3, True), (4, False),
    (9, False), (25, False), (97, True), (2047, False), (2053, True),
])
def test_is_prime_by_trial_division(n, prime):
    assert modp.is_prime(n) == prime


def test_rref_of_unreduced_entries():
    # p itself is zero: it must not be taken as a pivot
    assert modp.mat_rank(((3, 6, -3),), 3) == 0
    assert modp.mat_rank(((-1, 4), (4, -6)), 5) == 1
    assert _inverse(((2, 1), (1, 0)), 2) == ((0, 1), (1, 0))
    assert _inverse(((-1, 4), (5, 7)), 5) == ((4, 2), (0, 3))
    with pytest.raises(ValueError, match="singular"):
        _inverse(((3, 1), (6, 2)), 3)


def test_mat_inverse_over_each_prime():
    rng = random.Random(7)
    for p in PRIMES:
        for r in range(1, 5):
            for _ in range(20):
                m = tuple(tuple(rng.randrange(p) for _ in range(r)) for _ in range(r))
                if modp.mat_rank(m, p) < r:
                    with pytest.raises(ValueError, match="singular"):
                        _inverse(m, p)
                    continue
                ident = modp.identity_matrix(r)
                inv = _inverse(m, p)
                assert modp.mat_mul(m, inv, p) == modp.mat_mul(inv, m, p) == ident


@pytest.mark.parametrize("p, low", [(2, (1, 1, 0, 0)), (2, (1, 1, 0, 0, 0, 0)), (3, (1, 2, 0))])
def test_inverse_walks_singer_cycles(p, low):
    # the companion matrix of a primitive x^r + ... + low[1] x + low[0]
    # (x^4 + x + 1 and x^6 + x + 1 at p = 2, x^3 + 2x + 1 at p = 3) has the
    # largest order in GL_r(p), p^r - 1: the power walk must reach it
    r = len(low)
    m = tuple(
        tuple(1 if j == i - 1 else 0 for j in range(r - 1)) + (-low[i] % p,)
        for i in range(r)
    )
    assert matrix_order(m, p) == p ** r - 1
    inv = _inverse(m, p)
    assert inv == whole_row_inverse(m, p)
    assert modp.mat_mul(m, inv, p) == modp.identity_matrix(r)


@pytest.mark.parametrize("p,max_m", [(2, 8), (3, 5), (5, 3), (7, 2)])
def test_add_table_matches_digit_tuples(p, max_m):
    for m in range(max_m + 1):
        assert VectorSpace(p, m).add == digit_tuple_add_table(p, m), (p, m)
