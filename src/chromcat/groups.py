"""Exact finite group arithmetic on Cayley tables.

Groups are materialized as full multiplication tables over element indices
0..order-1 with the identity fixed at index 0.  Elements of a group are plain
integers; every operation here is pure and instances never mutate after
construction (internal caches are idempotent).

Conjugation convention: ``conjugate(g, h) = h * g * h**-1`` throughout the
package.  A tuple witness g for simultaneous conjugacy satisfies
``g a_i g**-1 = b_i`` for all i.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

DEFAULT_ORDER_CAP = 2048

# Associativity is checked exhaustively up to this order, by sampling above it.
_EXHAUSTIVE_ASSOC_LIMIT = 64
_ASSOC_SAMPLES = 10_000


class GroupError(ValueError):
    """Raised for malformed group data or violated construction limits."""


class FiniteGroup:
    """A finite group given by a closed Cayley table.

    ``table[a][b]`` is the index of the product a*b; index 0 is the identity.
    ``labels`` are display strings (cycle notation for permutation groups).
    """

    def __init__(self, table: Sequence[Sequence[int]], labels=None, name="G"):
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        self.name = name
        if labels is None:
            labels = tuple(str(i) for i in range(self.order))
        self.labels = tuple(labels)
        self._validate()
        self.inverse = tuple(self._find_inverse(a) for a in range(self.order))
        self._order_cache: dict[int, int] = {}
        self._centralizer_cache: dict[tuple, tuple] = {}
        self._simconj_cache: dict[tuple, Optional[int]] = {}

    def _validate(self):
        n = self.order
        if n == 0:
            raise GroupError("empty Cayley table")
        if len(self.labels) != n:
            raise GroupError("label count does not match order")
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupError("Cayley table is not closed")
        for a in range(n):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise GroupError("index 0 is not a two-sided identity")
        if n <= _EXHAUSTIVE_ASSOC_LIMIT:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(0)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(_ASSOC_SAMPLES)
            )
        t = self.table
        for a, b, c in triples:
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise GroupError("multiplication table is not associative")

    def _find_inverse(self, a: int) -> int:
        for b in range(self.order):
            if self.table[a][b] == 0 and self.table[b][a] == 0:
                return b
        raise GroupError("element %d has no inverse" % a)

    # -- basic arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, g: int, h: int) -> int:
        """h g h^-1."""
        return self.table[self.table[h][g]][self.inverse[h]]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        cached = self._order_cache.get(g)
        if cached is not None:
            return cached
        x, k = g, 1
        while x != 0:
            x = self.table[x][g]
            k += 1
        self._order_cache[g] = k
        return k

    def exponent(self) -> int:
        e = 1
        for g in range(self.order):
            k = self.element_order(g)
            e = e * k // _gcd(e, k)
        return e

    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[a][b] == t[b][a] for a in range(self.order) for b in range(a + 1, self.order)
        )

    def center(self) -> tuple:
        t = self.table
        return tuple(
            g for g in range(self.order) if all(t[g][h] == t[h][g] for h in range(self.order))
        )

    def conjugacy_class_count(self) -> int:
        seen = set()
        count = 0
        for g in range(self.order):
            if g in seen:
                continue
            count += 1
            seen.update(self.conjugate(g, h) for h in range(self.order))
        return count

    # -- conjugacy search ---------------------------------------------------

    def centralizer(self, elements: Sequence[int]) -> tuple:
        """Pointwise centralizer of a tuple of elements, as sorted indices."""
        key = tuple(elements)
        cached = self._centralizer_cache.get(key)
        if cached is not None:
            return cached
        t = self.table
        result = tuple(
            g for g in range(self.order) if all(t[g][x] == t[x][g] for x in key)
        )
        self._centralizer_cache[key] = result
        return result

    def simultaneous_conjugacy(self, a: Sequence[int], b: Sequence[int]) -> Optional[int]:
        """Least g with g a_i g^-1 = b_i for all i, or None.

        The scan is pruned to the coset of witnesses for a_1 -> b_1, the
        first such witness times the centralizer of a_1.
        """
        a, b = tuple(a), tuple(b)
        if len(a) != len(b):
            raise GroupError("tuples must have equal length")
        key = (a, b)
        if key in self._simconj_cache:
            return self._simconj_cache[key]
        result = self._simconj_pruned(a, b)
        self._simconj_cache[key] = result
        return result

    def _simconj_pruned(self, a, b):
        if not a:
            return 0
        g0 = next(
            (g for g in range(self.order) if self.conjugate(a[0], g) == b[0]), None
        )
        if g0 is None:
            return None
        # Full witness set for a_1 -> b_1 is the coset g0 * C(a_1).
        candidates = sorted(self.table[g0][c] for c in self.centralizer((a[0],)))
        rest = list(zip(a[1:], b[1:]))
        for g in candidates:
            if all(self.conjugate(x, g) == y for x, y in rest):
                return g
        return None


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# -- permutation closure ------------------------------------------------------


def _compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(i) = p(q(i)): apply q first."""
    return tuple(p[q[i]] for i in range(len(q)))


def cycle_string(perm: Sequence[int]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        parts.append("(" + " ".join(str(i) for i in cyc) + ")")
    return "".join(parts) if parts else "()"


def group_from_permutations(
    degree: int,
    generators: Sequence[Sequence[int]],
    name: str = "G",
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    """Close a set of permutations (image arrays on 0..degree-1) into a group.

    Elements are discovered breadth-first from the identity, so the element
    order (and hence every downstream report) is deterministic.
    """
    if degree < 1:
        raise GroupError("degree must be positive")
    gens = []
    for g in generators:
        g = tuple(g)
        if sorted(g) != list(range(degree)):
            raise GroupError("generator %r is not a bijection on 0..%d" % (g, degree - 1))
        gens.append(g)

    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            nxt = _compose(cur, g)
            if nxt not in index:
                if len(elements) >= order_cap:
                    raise GroupError("closure exceeds order cap %d" % order_cap)
                index[nxt] = len(elements)
                elements.append(nxt)
                queue.append(nxt)

    table = tuple(
        tuple(index[_compose(a, b)] for b in elements) for a in elements
    )
    labels = tuple(cycle_string(e) for e in elements)
    return FiniteGroup(table, labels=labels, name=name)
