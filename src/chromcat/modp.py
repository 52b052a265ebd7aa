"""Exact linear algebra over the prime field F_p.

Matrices are tuples of row tuples with entries in 0..p-1; vectors are plain
tuples.  The matrices range from 2 x 2 automorphisms to the stacked
(sigma - id) blocks of ``polyfp.invariant_bases``, hundreds of columns wide
and about 2% nonzero.

Every elimination runs on packed rows, which store only the nonzero
entries: at p = 2 a row is a Python int, bit j holding column j, and adding
a row is one XOR; at odd p it is a {column: value} dict.  ``_echelon``
reduces each row against the rows kept before it, keyed by pivot column
(the lowest column of a kept row), so a row's work is the pivots its
entries meet, not the width of the matrix.  ``mat_rank``, ``mat_inverse``,
``kernel_vectors`` and ``in_span`` all go through it, and ``kernel_vectors``
and ``in_span`` take sparse {column: value} rows, so that no caller writes
out a wide matrix densely: ``mat_rank`` and ``mat_inverse`` see only the
small matrices of homomorphisms.

``full_rank_matrices`` is the one walk over invertible and injective
matrices, filled in column by column under a prefix test: GL_r, the
injective homomorphisms and the searches of A^(n) and C_R all use it.
``VectorSpace(p, m)`` is F_p^m with each vector named by one integer.  Its
walk over independent r-tuples lists a colimit's full-support points, r
elements of F_q = F_p^m, and stays apart from the column walk because it
adds names by table lookups: about 8 times as fast as the column walk plus
naming on the 2,520 rank-3 and 20,160 rank-4 points at q = 16.
``is_prime`` is the package's one primality test.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import mul
from typing import Iterator, Sequence


def is_prime(p: int) -> bool:
    """Trial division in a plain loop, since every PolyFp construction asks."""
    if p < 2:
        return False
    q = 2
    while q * q <= p:
        if p % q == 0:
            return False
        q += 1
    return True


def identity_matrix(r: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def transpose(m: tuple) -> tuple:
    if not m or not m[0]:
        return ()
    return tuple(zip(*m))


def mat_vec(m: tuple, v: tuple, p: int) -> tuple:
    return tuple(sum(map(mul, row, v)) % p for row in m)


def mat_mul(a: tuple, b: tuple, p: int) -> tuple:
    """a . b; a product with b of no rows or no columns has rows ()."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, arow, col)) % p for col in cols) for arow in a)


def _pack(rows, p: int) -> list:
    """Rows given as (column, value) pairs as packed rows, entries reduced
    mod p."""
    if p == 2:
        return [sum(1 << j for j, x in row if x & 1) for row in rows]
    return [{j: x % p for j, x in row if x % p} for row in rows]


def _unpack(row, p: int, cols: range) -> tuple:
    """The entries of a packed row at ``cols``, as a dense tuple."""
    if p == 2:
        return tuple(row >> j & 1 for j in cols)
    return tuple(row.get(j, 0) for j in cols)


def _entries(row, p: int):
    """The (column, value) pairs of a packed row's nonzero entries."""
    if p == 2:
        return [(j, 1) for j, bit in enumerate(bin(row)[:1:-1]) if bit == "1"]
    return row.items()


def _axpy(row: dict, f: int, other: dict, p: int) -> None:
    """row += f * other in place, for odd-p rows and f nonzero mod p."""
    for k, v in other.items():
        x = (row.get(k, 0) + f * v) % p
        if x:
            row[k] = x
        else:
            del row[k]


def _reduce(row, basis: dict, p: int):
    """``row`` less multiples of the ``basis`` rows ({pivot column: row,
    zero left of its pivot and 1 there}) until its lowest column is no
    pivot: zero exactly when ``row`` lies in their span.  An odd-p row is
    changed in place."""
    if p == 2:
        while row:
            b = basis.get((row & -row).bit_length() - 1)
            if b is None:
                break
            row ^= b
        return row
    while row:
        c = min(row)
        b = basis.get(c)
        if b is None:
            break
        _axpy(row, -row[c], b, p)
    return row


def _echelon(rows, p: int) -> dict:
    """{pivot column: row}: each packed row is reduced against the rows kept
    before it and, if anything is left, kept scaled to 1 at its lowest
    column.  Odd-p rows are consumed."""
    basis = {}
    for row in rows:
        row = _reduce(row, basis, p)
        if not row:
            continue
        if p == 2:
            basis[(row & -row).bit_length() - 1] = row
            continue
        c = min(row)
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            row = {k: v * inv % p for k, v in row.items()}
        basis[c] = row
    return basis


def _rref(rows, p: int) -> dict:
    """The echelon basis of the packed rows, each row cleared at every other
    pivot column: the reduced row echelon form, keyed by pivot.

    Rows are cleared highest pivot first, so every row subtracted is
    already clear and changes the row at no other pivot column."""
    basis = _echelon(rows, p)
    mask = sum(1 << c for c in basis) if p == 2 else 0
    for c in sorted(basis, reverse=True):
        row = basis[c]
        if p == 2:
            hits = (row & mask) ^ (1 << c)
            while hits:
                low = hits & -hits
                row ^= basis[low.bit_length() - 1]
                hits ^= low
            basis[c] = row
        else:
            for k in [k for k in row if k != c and k in basis]:
                _axpy(row, -row[k], basis[k], p)
    return basis


def mat_rank(m: tuple, p: int) -> int:
    return len(_echelon(_pack(map(enumerate, m), p), p))


def kernel_vectors(rows: list, p: int, ncols: int) -> list[dict]:
    """Basis of the right kernel of sparse rows, {column: value} dicts of
    nonzero entries reduced mod p (odd-p rows are consumed), with the basis
    vectors as such dicts too: one vector per free column j of the RREF,
    ascending, with 1 at j and minus column j of the RREF at the pivots."""
    basis = _rref([sum(1 << j for j in row) for row in rows] if p == 2 else rows, p)
    out = {j: {j: 1} for j in range(ncols) if j not in basis}
    for c, row in basis.items():
        for j, v in _entries(row, p):
            if j != c:
                out[j][c] = -v % p
    return list(out.values())


def mat_inverse(m: tuple, p: int) -> tuple:
    r = len(m)
    rows = [enumerate(tuple(row) + e) for row, e in zip(m, identity_matrix(r))]
    basis = _rref(_pack(rows, p), p)
    if any(i not in basis for i in range(r)):
        raise ValueError("matrix is singular over F_%d" % p)
    return tuple(_unpack(basis[i], p, range(r, 2 * r)) for i in range(r))


class VectorSpace:
    """F_p^m, each vector named by its coordinates read as base-p digits
    (its index in ``itertools.product`` order), so names order vectors
    lexicographically.

    A point of rank r is a tuple of r vector names; its point index reads
    them as base-q digits, q = p^m.  The addition table has q^2 entries and
    is built on first use: a walk over single vectors never needs it.
    """

    def __init__(self, p: int, m: int):
        self.p, self.m, self.q = p, m, p ** m
        self.digits = tuple(itertools.product(range(p), repeat=m))
        self._index = {e: k for k, e in enumerate(self.digits)}
        self.scale = [
            [self._index[tuple(c * x % p for x in a)] for a in self.digits]
            for c in range(p)
        ]

    @cached_property
    def add(self) -> list:
        # built one leading digit at a time: with S = p^k and T the table of
        # k digits, a0*S + lo plus b0*S + x is (a0 + b0)*S + T[lo][x]
        p, table, size = self.p, [[0]], 1
        for _ in range(self.m):
            table = [
                [(a0 + b0) % p * size + x for b0 in range(p) for x in table[lo]]
                for a0 in range(p)
                for lo in range(size)
            ]
            size *= p
        return table

    def apply(self, matrix: tuple, pt: tuple) -> tuple:
        """The point matrix . pt."""
        add, scale = self.add, self.scale
        out = []
        for row in matrix:
            acc = 0
            for c, x in zip(row, pt):
                if c:
                    acc = add[acc][scale[c][x]]
            out.append(acc)
        return tuple(out)

    def independent_tuples(self, r: int) -> Iterator[tuple]:
        """Every r-tuple of F_p-independent vectors, lexicographically."""
        q, p = self.q, self.p

        def extend(prefix, span):
            if len(prefix) == r - 1:
                for x in range(q):
                    if x not in span:
                        yield prefix + (x,)
                return
            add, scale = self.add, self.scale
            for x in range(q):
                if x not in span:
                    wider = {add[s][scale[c][x]] for s in span for c in range(p)}
                    yield from extend(prefix + (x,), wider)

        return extend((), {0}) if r else iter([()])

    def point_index(self, pt: tuple) -> int:
        k = 0
        for x in pt:
            k = k * self.q + x
        return k


def full_rank_matrices(rows: int, choices: Sequence, p: int, keep=None) -> Iterator[tuple]:
    """The rows x len(choices) matrices of full column rank with column j
    drawn from choices[j], lazily and depth-first in the choices' order.  A
    column in the span of the earlier ones is skipped, and a prefix (a tuple
    of columns) failing ``keep`` cuts every matrix below it.  A rows x 0
    matrix is ((),) * rows; past rows columns nothing is walked."""
    cols = len(choices)
    if cols > rows:
        return iter(())

    def extend(prefix, span):
        if len(prefix) == cols:
            yield tuple(zip(*prefix)) if cols else ((),) * rows
            return
        for c in choices[len(prefix)]:
            if c in span:
                continue
            longer = prefix + (c,)
            if keep is None or keep(longer):
                wider = span if len(longer) == cols else {
                    tuple((x + a * y) % p for x, y in zip(v, c)) for v in span for a in range(p)
                }
                yield from extend(longer, wider)

    return extend((), {(0,) * rows})


def enumerate_subspaces(ambient: int, dim: int, p: int) -> Iterator[tuple]:
    """All dim-dimensional subspaces of F_p^ambient as canonical RREF row bases."""
    if dim == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(ambient), dim):
        free_pos = [
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, ambient)
            if j not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free_pos)):
            rows = [[0] * ambient for _ in range(dim)]
            for i in range(dim):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free_pos, values):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def in_span(vectors: list[dict], target: dict, p: int) -> bool:
    """Is ``target`` in the span of ``vectors``?  Each is a sparse
    {column: value} dict, as ``kernel_vectors`` takes, its entries reduced
    mod p here.  One elimination: the target is reduced against the echelon
    form of the vectors."""
    rows = _pack([v.items() for v in vectors] + [target.items()], p)
    return not _reduce(rows.pop(), _echelon(rows, p), p)
