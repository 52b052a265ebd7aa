"""Exact finite permutation groups and their Cayley tables.

Every group enters as permutation generators through
``group_from_permutations``, the only builder of a ``FiniteGroup``: it
checks the degree, that each generator is a bijection and the order cap.
A caller holding a Cayley table passes its rows, the left-regular
permutations (Cayley's theorem).  A closure of bijections is a group, so
the table read off it is never checked.  No other module reads the table:
``elemab`` asks for its order-p elements, walks and commuting candidates.

Tables are over element indices 0..order-1 with the identity at index 0.
Elements of a group are plain integers; every operation here is pure and
instances never mutate after construction, save ``labels`` and
``conjugation_maps``, each formed once on first read.

The breadth-first closure reads every element x through every generator
gen_j with one ``operator.itemgetter`` (x * gen_j is x o gen_j), and
records x * gen_j and the step by which each element k was first reached
from its parent.  The table is then built a row at a time: for k = parent
* gen_j, row k is row parent read through left_j, the map a -> gen_j * a,
which comes from the recorded steps, so each row is one itemgetter call
and no permutation is composed after the closure.  The group keeps its
generators' indices, without the identity or repeats, and lends one
conjugation map x -> g x g^-1 per generator g, a tuple over the elements:
the conjugation scan of ``categories`` walks each G-class of subgroups as
a Schreier orbit under these maps, and the class count closes each
conjugacy class under them, so neither lists G per class.

Each walk of a listed group lives here once: ``orbit_walk`` over one map
per element (colimit orbits), and over elements and a ``mul``,
``closure`` (conjugacy classes, the Hopf-ring Weyl action), the
Dimino-style ``greedy_generators`` (skeletons, Weyl groups),
``group_exponent`` and ``commute`` (``FiniteGroup``, skeletons).
A matrix group acting on polynomials is never closed: it stays its
generators.

Conjugation convention: conjugation by g is x -> g * x * g**-1 throughout
the package.  A tuple witness g for simultaneous conjugacy satisfies
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


def orbit_walk(items, maps) -> tuple:
    """The orbits of a listed group on ``items``, walked in order.

    The group is given as ``maps``, one map x -> a.x per element a.  An
    item not yet reached leads a new orbit and is given its id, and so is
    each map's image of it; as the lead needs no map, the listed group may
    leave out the identity.  Returns the leads in order and {reached item:
    orbit id}; walked in sorted order, each lead is the least member of its
    orbit.
    """
    leads, ids = [], {}
    for x in items:
        if x in ids:
            continue
        ids[x] = len(leads)
        for a in maps:
            ids[a(x)] = len(leads)
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
    """A finite permutation group, held as the closure of its generators.

    ``table[a][b]`` is the index of the product a*b; index 0 is the
    identity.  Only ``group_from_permutations`` builds one.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a FiniteGroup is built by group_from_permutations")

    @classmethod
    def _closed(cls, permutations, table, generators: tuple, name: str):
        """The group whose elements are ``permutations``, in closure order,
        generated by the elements ``generators`` (no identity, no repeats)."""
        group = cls.__new__(cls)
        group.order = len(table)
        group.table = table
        group.generators = generators
        group.name = name
        group._permutations = permutations
        return group

    @cached_property
    def labels(self) -> tuple:
        """The cycle notation of each element, formed on first read, as only
        reports on elementary abelian subgroups print them."""
        return tuple(map(cycle_string, self._permutations))

    # -- basic arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def conjugation_maps(self) -> tuple:
        """One map per generator g, as the tuple x -> g x g^-1."""
        t, maps = self.table, []
        for g in self.generators:
            g_inv = t[g].index(0)
            by_inverse = [row[g_inv] for row in t]
            maps.append(tuple([by_inverse[y] for y in t[g]]))
        return tuple(maps)

    def elements(self) -> range:
        return range(self.order)

    def exponent(self) -> int:
        return group_exponent(self.elements(), 0, self.mul)

    def is_abelian(self) -> bool:
        return commute(self.generators, self.mul)

    def center(self) -> tuple:
        t = self.table
        return tuple(
            g for g in range(self.order) if all(t[g][h] == t[h][g] for h in range(self.order))
        )

    def conjugacy_class_count(self) -> int:
        """One closure per class under the conjugation maps."""
        seen, count = set(), 0
        for x in self.elements():
            if x not in seen:
                seen.update(closure(x, self.conjugation_maps, lambda y, m: m[y], self.order))
                count += 1
        return count

    def elements_of_order(self, p: int) -> list:
        """The g != 1 with g^p = 1, in index order (p - 1 products each)."""
        t, out = self.table, []
        for g in range(1, self.order):
            x = g
            for _ in range(p - 1):
                x = t[x][g]
            if x == 0:
                out.append(g)
        return out

    def times_powers(self, elements: Sequence[int], e: int, p: int) -> list:
        """a, a e, ..., a e^(p-1) for each a of ``elements`` in turn."""
        t, out = self.table, []
        for a in elements:
            for _ in range(p):
                out.append(a)
                a = t[a][e]
        return out

    def commuting_with(self, x: int, candidates: Sequence[int]) -> list:
        """The candidates that commute with x, in order."""
        t = self.table
        row = t[x]
        return [y for y in candidates if row[y] == t[y][x]]

    # -- conjugacy search ---------------------------------------------------

    def simultaneous_conjugacy(self, a: Sequence[int], b: Sequence[int]) -> Optional[int]:
        """Least g with g a_i = b_i g for all i, or None (a plain scan)."""
        a, b = tuple(a), tuple(b)
        if len(a) != len(b):
            raise GroupError("tuples must have equal length")
        t, pairs = self.table, list(zip(a, b))
        for g, row in enumerate(t):
            if all(row[x] == t[y][g] for x, y in pairs):
                return g
        return None


# -- permutation closure ------------------------------------------------------


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
    first read.  Raises ``GroupError`` for a degree below 1, a generator
    that is not a bijection, or a closure past ``order_cap``.
    """
    if degree < 1:
        raise GroupError("degree must be positive")
    ident, gens = tuple(range(degree)), []  # the identity and repeats reach nothing
    for g in map(tuple, generators):
        if sorted(g) != list(ident):
            raise GroupError("generator %r is not a bijection on 0..%d" % (g, degree - 1))
        if g != ident and g not in gens:
            gens.append(g)

    elements = [ident]
    index = {ident: 0}
    steps = [itemgetter(*g) for g in gens]  # x * gens[j] = x o gens[j]
    right = [[] for _ in gens]  # right[j][x]: index of x * gens[j]
    reached_by = [None]  # (parent, j): element k is parent * gens[j]
    x = 0
    while x < len(elements):
        cur = elements[x]
        for j, step in enumerate(steps):
            nxt = step(cur)
            k = index.get(nxt)
            if k is None:
                if len(elements) >= order_cap:
                    raise GroupError("closure exceeds order cap %d" % order_cap)
                k = index[nxt] = len(elements)
                elements.append(nxt)
                reached_by.append((x, j))
            right[j].append(k)
        x += 1

    # left[j][k] = gens[j] * k = (gens[j] * parent) * gens[i] for k = parent
    # * gens[i]; then k = parent * gens[j] has row parent read through left[j]
    lefts = []
    for g in gens:
        left = [index[g]]
        for parent, i in reached_by[1:]:
            left.append(right[i][left[parent]])
        lefts.append(itemgetter(*left))
    rows = [tuple(range(len(elements)))]
    for parent, j in reached_by[1:]:
        rows.append(lefts[j](rows[parent]))
    generators = tuple(index[g] for g in gens)
    return FiniteGroup._closed(elements, tuple(rows), generators, name)
