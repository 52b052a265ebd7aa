"""Exact finite group arithmetic on Cayley tables.

Groups are materialized as full multiplication tables over element indices
0..order-1 with the identity fixed at index 0.  Elements of a group are plain
integers; every operation here is pure and instances never mutate after
construction (internal caches are idempotent).

A permutation group's table is read off its closure.  The breadth-first
closure records x * gen_j for every element x and generator gen_j, and the
generator step by which each element k was first reached from its parent;
then a * k = (a * parent_k) * gen_j, so every table entry is one integer
lookup and no permutation is composed after the closure.

Every table is checked for associativity exhaustively by Light's test: the
elements s with (x s) y = x (s y) for all x, y are closed under products, so
it suffices to test the s of a generating set, |S| * order^2 products in all.

Each walk of a listed group lives here once, over elements and a ``mul``:
``orbit_walk`` and ``closure`` (classes, orbits, the Hopf-ring Weyl
action), the Dimino-style ``greedy_generators`` (Light's test, skeletons,
Weyl groups), ``group_exponent`` and ``commute`` (``FiniteGroup``,
skeletons).  A matrix group acting on polynomials is never closed: it
stays its generators.

Conjugation convention: ``conjugate(g, h) = h * g * h**-1`` throughout the
package.  A tuple witness g for simultaneous conjugacy satisfies
``g a_i g**-1 = b_i`` for all i.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import itemgetter
from typing import Optional, Sequence

DEFAULT_ORDER_CAP = 2048


class GroupError(ValueError):
    """Raised for malformed group data or violated construction limits."""


def orbit_walk(items, group, act) -> tuple:
    """The orbits of a listed group on ``items``, walked in order.

    An item not yet reached leads a new orbit and is given its id, and so
    is act(a, x) for every a in ``group``; as the lead needs no act, the
    listed group may leave out the identity.  Returns the leads in order
    and {reached item: orbit id}; walked in sorted order, each lead is the
    least member of its orbit.
    """
    leads, ids = [], {}
    for x in items:
        if x in ids:
            continue
        ids[x] = len(leads)
        for a in group:
            ids[act(a, x)] = len(leads)
        leads.append(x)
    return leads, ids


def closure(identity, generators, mul, cap) -> Optional[list]:
    """Every mul(x, g) reachable from ``identity``, depth-first: each element
    is appended when it is found.  None once more than ``cap`` are found."""
    elements, seen, stack = [identity], {identity}, [identity]
    while stack:
        cur = stack.pop()
        for g in generators:
            nxt = mul(cur, g)
            if nxt not in seen:
                if len(elements) >= cap:
                    return None
                seen.add(nxt)
                elements.append(nxt)
                stack.append(nxt)
    return elements


def greedy_generators(elements, identity, mul) -> list:
    """Each of ``elements``, in order, outside the span H of those picked
    before.  H grows Dimino-style: a new generator g adds the cosets H e, e
    running over g and each coset representative times each generator, so
    each element is made once.  Raises AssertionError when the elements are
    not closed under ``mul`` or are not a group."""
    members = set(elements)
    span, gens = {identity}, []
    for g in elements:
        if g in span:
            continue
        gens.append(g)
        subgroup, reps = tuple(span), []
        for e in itertools.chain([g], (mul(r, s) for r in reps for s in gens)):
            if e not in span:
                coset = [mul(h, e) for h in subgroup]
                if not members.issuperset(coset):
                    raise AssertionError("the elements are not closed under products")
                span.update(coset)
                reps.append(e)
    if len(span) != len(members):
        raise AssertionError("the elements are not a group")
    return gens


def group_exponent(elements, identity, mul) -> int:
    """The lcm of the element orders; the powers of each element walked are
    marked as seen, so each cyclic subgroup is walked once."""
    seen, exponent = set(), 1
    for a in (x for x in elements if x not in seen):
        powers = [a]
        while powers[-1] != identity:
            powers.append(mul(powers[-1], a))
        seen.update(powers)
        exponent = math.lcm(exponent, len(powers))
    return exponent


def commute(generators, mul) -> bool:
    """Do the generators commute pairwise, that is, is their group abelian?"""
    return all(mul(a, b) == mul(b, a) for a, b in itertools.combinations(generators, 2))


class FiniteGroup:
    """A finite group given by a closed Cayley table.

    ``table[a][b]`` is the index of the product a*b; index 0 is the identity.
    ``labels`` are display strings, the indices when none are given.
    """

    _permutations = None  # a permutation group's closure, which labels it

    def __init__(self, table: Sequence[Sequence[int]], labels=None, name="G"):
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        self.name = name
        self._labels = None if labels is None else tuple(labels)
        self._validate()
        self.inverse = tuple(self._find_inverse(a) for a in range(self.order))
        self._order_cache: dict[int, int] = {}

    def _validate(self):
        """Closure, identity, and associativity by Light's test, which needs
        every element to be a product of generators: the greedy picker gives
        that even for a non-associative table, as each element is picked or
        formed as a product."""
        n = self.order
        if n == 0:
            raise GroupError("empty Cayley table")
        if self._labels is not None and len(self._labels) != n:
            raise GroupError("label count does not match order")
        t = self.table
        for row in t:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise GroupError("Cayley table is not closed")
        if t[0] != tuple(range(n)) or any(t[a][0] != a for a in range(n)):
            raise GroupError("index 0 is not a two-sided identity")
        for s in greedy_generators(range(n), 0, self.mul):
            times_row_s = itemgetter(*t[s])  # row_x -> x (s y) for every y
            for row_x in t:
                if t[row_x[s]] != times_row_s(row_x):
                    raise GroupError("multiplication table is not associative")

    def _find_inverse(self, a: int) -> int:
        row = self.table[a]
        if 0 in row:
            b = row.index(0)
            if self.table[b][a] == 0:
                return b
        raise GroupError("element %d has no inverse" % a)

    @cached_property
    def labels(self) -> tuple:
        """The labels given, else cycle notation for a permutation group,
        else the indices; formed on first read, as only reports on
        elementary abelian subgroups print them."""
        if self._labels is not None:
            return self._labels
        if self._permutations is not None:
            return tuple(map(cycle_string, self._permutations))
        return tuple(map(str, range(self.order)))

    # -- basic arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conjugate(self, g: int, h: int) -> int:
        """h g h^-1."""
        return self.table[self.table[h][g]][self.inverse[h]]

    def conjugate_tuple(self, xs, h: int) -> tuple:
        """h x h^-1 for each x of ``xs``, reading h's row and h^-1 once."""
        t, row, h_inv = self.table, self.table[h], self.inverse[h]
        return tuple([t[row[x]][h_inv] for x in xs])

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
        return group_exponent(self.elements(), 0, self.mul)

    def is_abelian(self) -> bool:
        return commute(greedy_generators(self.elements(), 0, self.mul), self.mul)

    def center(self) -> tuple:
        t = self.table
        return tuple(
            g for g in range(self.order) if all(t[g][h] == t[h][g] for h in range(self.order))
        )

    def conjugacy_class_count(self) -> int:
        elements = self.elements()
        return len(orbit_walk(elements, elements, lambda h, g: self.conjugate(g, h))[0])

    # -- conjugacy search ---------------------------------------------------

    def simultaneous_conjugacy(self, a: Sequence[int], b: Sequence[int]) -> Optional[int]:
        """Least g with g a_i g^-1 = b_i for all i, or None (a plain scan)."""
        a, b = tuple(a), tuple(b)
        if len(a) != len(b):
            raise GroupError("tuples must have equal length")
        t, pairs = self.table, list(zip(a, b))
        for g, (row, g_inv) in enumerate(zip(t, self.inverse)):
            if all(t[row[x]][g_inv] == y for x, y in pairs):
                return g
        return None


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
    order (and hence every downstream report) is deterministic.  The group
    keeps the permutations and forms its labels, their cycle notation, on
    first read.
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
    right = [[] for _ in gens]  # right[j][x]: index of x * gens[j]
    reached_by = [None]  # (parent, j): element k is parent * gens[j]
    x = 0
    while x < len(elements):
        cur = elements[x]
        for j, g in enumerate(gens):
            nxt = _compose(cur, g)
            k = index.get(nxt)
            if k is None:
                if len(elements) >= order_cap:
                    raise GroupError("closure exceeds order cap %d" % order_cap)
                k = index[nxt] = len(elements)
                elements.append(nxt)
                reached_by.append((x, j))
            right[j].append(k)
        x += 1

    # columns[k][a] = a * k = (a * parent) * gens[j]
    columns = [tuple(range(len(elements)))]
    for parent, j in reached_by[1:]:
        columns.append(itemgetter(*columns[parent])(right[j]))
    group = FiniteGroup(tuple(zip(*columns)), name=name)
    group._permutations = elements
    return group
