"""Exact linear algebra over the prime field F_p.

One integer code names every vector of F_p^r: its coordinates read as
base-p digits, the first coordinate most significant.  That is its index in
``itertools.product`` order and its name in ``VectorSpace(p, m)`` for every
m >= r, so codes order vectors lexicographically.  A matrix on the request
path is the tuple of its row codes, and such tuples of one shape sort
exactly as the tuples of row tuples they encode.  ``VectorSpace.mul``
multiplies them: each digit d of a row of a adds d times one row of b, by
one XOR at p = 2 and through the space's addition and scaling tables at odd
p.  ``VectorSpace.inverse`` inverts one by its powers, never leaving the
coded form.  ``from_columns`` writes column codes as row codes,
``leading_columns`` cuts rows to the columns they read, and ``encode``,
``decode`` and ``decode_matrix`` cross to the tuple form at the boundaries
that return or print a matrix.

Tuple matrices, tuples of row tuples with entries in 0..p-1, remain at
those boundaries and for library callers: ``mat_mul``, ``mat_vec``,
``mat_rank`` and ``transpose`` take them.  The matrices eliminated range
from 2 x 2 automorphisms to the rows of
``polyfp.invariant_bases``, one per monomial, which hold (sigma - id) of
the monomial for every generator sigma side by side, hundreds to
thousands of columns wide.

Every elimination runs on packed rows, which store only the nonzero
entries: at p = 2 a row is a Python int, bit j holding column j, and adding
a row is one XOR; at odd p it is a {column: value} dict.  ``_echelon``
reduces each row against the rows kept before it, keyed by pivot column
(the lowest column of a kept row), so a row's work is the pivots its
entries meet, not the width of the matrix.  It is the one elimination:
``mat_rank``, ``relations`` and ``in_span`` all go through it.
``relations`` finds the linear relations among packed rows in one forward
elimination, each row tagged past its own columns, and returns them
already in echelon form;
``shift_sum`` multiplies a packed row by a form whose terms move its
columns, which is how ``polyfp`` multiplies monomial images by linear
forms.  ``in_span`` takes sparse {column: value} rows, so that no caller
writes out a wide matrix densely.

``full_rank_matrices`` is the one walk over invertible and injective
matrices, filled in column code by column code under a prefix test: GL_r,
the injective homomorphisms and the searches of A^(n) and C_R all use it.
``VectorSpace(p, m)`` is also F_q = F_p^m for the colimits: a point of rank
r is r vectors of F_q, named by its point index, their codes read as
base-q digits, and ``apply`` and ``independent_tuples`` work on that index,
so a colimit walk handles ints only.  ``is_prime`` is the package's one
primality test.
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


def _echelon(rows, p: int, width=None, relations=None) -> dict:
    """{pivot column: row}: each packed row is reduced against the rows kept
    before it and, if anything is left below ``width`` (anywhere, when
    width is None), kept scaled to 1 at its lowest column; a row with
    nothing left below width is appended to ``relations``.  Odd-p rows are
    consumed."""
    basis = {}
    for row in rows:
        row = _reduce(row, basis, p)
        if not row:
            continue
        c = (row & -row).bit_length() - 1 if p == 2 else min(row)
        if width is not None and c >= width:
            relations.append(row)
            continue
        if p != 2 and row[c] != 1:
            inv = pow(row[c], -1, p)
            row = {k: v * inv % p for k, v in row.items()}
        basis[c] = row
    return basis


def mat_rank(m: tuple, p: int) -> int:
    return len(_echelon(_pack(map(enumerate, m), p), p))


def relations(rows, p: int, width: int, labels: Sequence) -> list[dict]:
    """The linear relations among packed rows whose columns lie below
    ``width``: for each row j in the span of the rows before it, the one
    vector c with c_j = 1, zero at every other such row and
    sum_i c_i row_i = 0, as {labels[i]: c_i} over its nonzero entries, in
    order of j.  Odd-p rows are consumed.

    One forward elimination: row j is tagged with a 1 at column width + j,
    past its own columns.  Pivots are lowest columns, so every kept row
    pivots on one of its own columns and its tag only names independent
    rows; a row whose own columns reduce to nothing holds its relation in
    its tag, and no relation is reduced any further."""
    if p == 2:
        tagged = (row | 1 << width + j for j, row in enumerate(rows))
    else:
        tagged = ({**row, width + j: 1} for j, row in enumerate(rows))
    found = []
    _echelon(tagged, p, width, found)
    if p != 2:
        return [{labels[k - width]: v for k, v in row.items()} for row in found]
    out = []
    for row in found:
        row, vec = row >> width, {}
        while row:
            low = row & -row
            vec[labels[low.bit_length() - 1]] = 1
            row ^= low
        out.append(vec)
    return out


def shift_sum(row, terms, p: int):
    """The packed row sum w * (row with each column c moved to c + s) over
    the (s, w) of ``terms``, each w nonzero mod p: a row over monomial
    names times a linear form, where multiplying by a variable adds a
    shift to a name."""
    if p == 2:
        acc = 0
        for s, _ in terms:
            acc ^= row << s
        return acc
    acc = {}
    for c, v in row.items():
        for s, w in terms:
            acc[c + s] = acc.get(c + s, 0) + v * w
    return {c: v % p for c, v in acc.items() if v % p}


def encode(v: Sequence[int], p: int) -> int:
    """The code of the vector v, its entries reduced mod p."""
    k = 0
    for x in v:
        k = k * p + x % p
    return k


def decode(k: int, r: int, p: int) -> tuple:
    """The r coordinates of the vector with code k."""
    out = [0] * r
    for i in range(r - 1, -1, -1):
        k, out[i] = divmod(k, p)
    return tuple(out)


def decode_matrix(m: tuple, cols: int, p: int) -> tuple:
    """The tuple form of the coded matrix m with ``cols`` columns."""
    return tuple(decode(row, cols, p) for row in m)


def identity_code(r: int, p: int) -> tuple:
    return tuple(p ** i for i in range(r - 1, -1, -1))


def from_columns(cols: Sequence[int], rows: int, p: int) -> tuple:
    """The rows x len(cols) matrix whose columns have the codes ``cols``, as
    row codes: each column adds the last digit of every row."""
    out = [0] * rows
    for c in cols:
        for i in range(rows - 1, -1, -1):
            c, d = divmod(c, p)
            out[i] = out[i] * p + d
    return tuple(out)


def leading_columns(m: tuple, cols: int, p: int) -> tuple:
    """(k, cut): the number k of leading columns the coded rows of m, each
    with ``cols`` columns, read (all but their shared trailing zero
    columns), and the rows cut to those k columns."""
    zeros = 0
    while zeros < cols and not any(c // p ** zeros % p for c in m):
        zeros += 1
    return cols - zeros, [c // p ** zeros for c in m]


class VectorSpace:
    """F_p^m, each vector named by its code, so a vector of F_p^r, r <= m,
    has its F_p^r name here too.

    A point of rank r is r vectors, named by its point index: their codes
    read as base-q digits, q = p^m.  The addition table has q^2 entries and
    the scaling table pq; both are built on first use, and at p = 2, where
    adding is XOR and scaling by 0 or 1 needs no table, never.
    """

    def __init__(self, p: int, m: int):
        self.p, self.m, self.q = p, m, p ** m

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

    @cached_property
    def scale(self) -> list:
        # scale[c]: each code times c, built a leading digit at a time too
        p, tables = self.p, []
        for c in range(p):
            table, size = [0], 1
            for _ in range(self.m):
                table = [c * a0 % p * size + x for a0 in range(p) for x in table]
                size *= p
            tables.append(table)
        return tables

    def _combine(self, a, back) -> list:
        """x . b for each row x of a, the rows of b listed last first in
        ``back``: the digit of x at place j, units first, adds that multiple
        of back[j]."""
        out = []
        if self.p == 2:
            for row in a:
                acc = 0
                while row:
                    low = row & -row
                    acc ^= back[low.bit_length() - 1]
                    row ^= low
                out.append(acc)
            return out
        p, add, scale = self.p, self.add, self.scale
        for row in a:
            acc = j = 0
            while row:
                row, d = divmod(row, p)
                if d:
                    acc = add[acc][scale[d][back[j]]]
                j += 1
            out.append(acc)
        return out

    def mul(self, a: tuple, b: tuple) -> tuple:
        """The coded product a . b: b's rows are vectors of this space and
        a's rows have len(b) digits."""
        return tuple(self._combine(a, b[::-1]))

    def inverse(self, m: tuple) -> tuple:
        """The inverse of the coded square matrix m, whose rows are vectors
        of this space: the power of m before the first power that is the
        identity.  An element of GL_r(p) has order at most p^r - 1, a Singer
        cycle's, so m is singular when none of its first p^r powers is."""
        one, back = identity_code(len(m), self.p), m[::-1]
        before, power = one, m
        for _ in range(self.p ** len(m)):
            if power == one:
                return before
            before, power = power, tuple(self._combine(power, back))
        raise ValueError("matrix is singular over F_%d" % self.p)

    def apply(self, matrix: tuple, pt: int) -> int:
        """The point matrix . pt, by point index: the coded matrix combines
        pt's r vectors, which the index lists last first by divmod."""
        q, back = self.q, []
        for _ in matrix:
            pt, x = divmod(pt, q)
            back.append(x)
        k = 0
        for x in self._combine(matrix, back):
            k = k * q + x
        return k

    def wider(self, span: set, x: int) -> set:
        """The span of ``span``, a subspace, and the vector x."""
        if self.p == 2:
            return span | {s ^ x for s in span}
        add, scale = self.add, self.scale
        return {add[s][scale[c][x]] for s in span for c in range(self.p)}

    def independent_tuples(self, r: int) -> Iterator[int]:
        """The point index of every r-tuple of F_p-independent vectors, in
        increasing order, which is lexicographic order."""
        q = self.q

        def extend(base, span, left):
            if left == 1:
                for x in range(q):
                    if x not in span:
                        yield base + x
                return
            for x in range(q):
                if x not in span:
                    yield from extend((base + x) * q, self.wider(span, x), left - 1)

        return extend(0, {0}, r) if r else iter([0])


def full_rank_matrices(
    space: VectorSpace, rows: int, choices: Sequence, keep=None
) -> Iterator[tuple]:
    """The rows x len(choices) matrices of full column rank with column j
    drawn from choices[j], codes of F_p^rows (rows at most space.m), as row
    codes, lazily and depth-first in the choices' order.  A column in the
    span of the earlier ones is skipped, and a prefix (a tuple of column
    codes) failing ``keep`` cuts every matrix below it.  A rows x 0 matrix
    is (0,) * rows; past rows columns nothing is walked."""
    cols, p = len(choices), space.p
    if cols > rows:
        return iter(())

    def extend(prefix, span):
        if len(prefix) == cols:
            yield from_columns(prefix, rows, p)
            return
        for c in choices[len(prefix)]:
            if c in span:
                continue
            longer = prefix + (c,)
            if keep is None or keep(longer):
                yield from extend(longer, span if len(longer) == cols else space.wider(span, c))

    return extend((), {0})


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
    {column: value} dict, its entries reduced mod p here.  One
    elimination: the target is reduced against the echelon form of the
    vectors."""
    rows = _pack([v.items() for v in vectors] + [target.items()], p)
    return not _reduce(rows.pop(), _echelon(rows, p), p)
