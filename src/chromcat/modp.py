"""Exact linear algebra over the prime field F_p.

Matrices are tuples of row tuples with entries in 0..p-1; vectors are plain
tuples.  Everything here is tiny and allocation-happy by design: the ambient
vector spaces never exceed rank 5 or so.

``VectorSpace(p, m)`` is F_p^m with each vector named by one integer, so that
a walk over many vectors adds and scales by table lookups.  Its walk over
the r-tuples of independent vectors is the one enumeration of injective
linear maps F_p^r -> F_p^m: read as columns they are the injective
matrices, and read as r elements of F_q = F_p^m they are the full-support
points of a colimit.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator


def identity_matrix(r: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def transpose(m: tuple) -> tuple:
    if not m or not m[0]:
        return ()
    return tuple(zip(*m))


def mat_vec(m: tuple, v: tuple, p: int) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) % p for row in m)


def mat_mul(a: tuple, b: tuple, p: int) -> tuple:
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(arow[k] * b[k][j] for k in range(len(b))) % p for j in range(cols))
        for arow in a
    )


def mat_rank(m: tuple, p: int) -> int:
    return len(rref(m, p)[1])


def rref(m: tuple, p: int) -> tuple[tuple, tuple]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Entries are reduced mod p on entry.  From then on the rows without a
    pivot yet are zero left of the current column, the new pivot row among
    them, so scaling it and eliminating with it touch only the columns from
    the pivot on.
    """
    rows = [[x % p for x in r] for r in m]
    ncols = len(m[0]) if m else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        tail = rows[rank][col:]
        if tail[0] != 1:
            inv = pow(tail[0], -1, p)
            tail = [(x * inv) % p for x in tail]
            rows[rank][col:] = tail
        for i, row in enumerate(rows):
            c = row[col]
            if c and i != rank:
                row[col:] = [(x - c * y) % p for x, y in zip(row[col:], tail)]
        pivots.append(col)
        rank += 1
    return tuple(tuple(r) for r in rows[:rank]), tuple(pivots)


def kernel_basis(m: tuple, p: int, ncols: int) -> list[tuple]:
    """Deterministic basis of the right kernel of m (echelon-derived)."""
    reduced, pivots = rref(m, p)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced[i][j]) % p
        basis.append(tuple(v))
    return basis


def mat_inverse(m: tuple, p: int) -> tuple:
    r = len(m)
    aug = [list(m[i]) + [1 if j == i else 0 for j in range(r)] for i in range(r)]
    reduced, pivots = rref(tuple(tuple(row) for row in aug), p)
    if pivots[:r] != tuple(range(r)):
        raise ValueError("matrix is singular over F_%d" % p)
    return tuple(tuple(row[r:]) for row in reduced[:r])


def matrix_order(m: tuple, p: int) -> int:
    ident = identity_matrix(len(m))
    acc, k = m, 1
    while acc != ident:
        acc = mat_mul(acc, m, p)
        k += 1
        if k > p ** (len(m) ** 2):
            raise ValueError("matrix is not invertible")
    return k


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


def enumerate_injective_matrices(rows: int, cols: int, p: int) -> Iterator[tuple]:
    """All full-column-rank rows x cols matrices, columns chosen in lex order:
    column j holds the digits of the j-th vector of an independent tuple."""
    if cols > rows:
        return
    space = VectorSpace(p, rows)
    digits = space.digits
    for vectors in space.independent_tuples(cols):
        yield tuple(tuple(digits[v][i] for v in vectors) for i in range(rows))


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


def in_span(vectors: list[tuple], target: tuple, p: int) -> bool:
    if not vectors:
        return all(x % p == 0 for x in target)
    m = tuple(vectors)
    return mat_rank(m, p) == mat_rank(m + (target,), p)
