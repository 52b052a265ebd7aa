"""Elementary abelian p-subgroups as F_p vector spaces with chosen bases.

A subgroup is identified by its element set; the stored basis is the
lexicographically least one (by parent element index), which makes every
downstream enumeration deterministic.  Group homomorphisms between elementary
abelians are exactly F_p-linear maps and are represented as matrices only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import modp
from .groups import FiniteGroup, GroupError


class ElemAbelian:
    """An elementary abelian p-subgroup of a finite group, with basis.

    ``element_at(coords)`` and ``coordinates(g)`` translate between F_p^rank
    and parent-group element indices; rank 0 is the trivial subgroup.
    """

    def __init__(self, group: FiniteGroup, p: int, elements: frozenset):
        self.group = group
        self.p = p
        self.elements = frozenset(elements)
        self.basis = self._least_basis()
        self.rank = len(self.basis)
        if p ** self.rank != len(self.elements):
            raise GroupError("element set is not an elementary abelian subgroup")
        self._by_coords = {}
        self._coords = {}
        for coords in itertools.product(range(p), repeat=self.rank):
            g = 0
            for b, c in zip(self.basis, coords):
                for _ in range(c):
                    g = group.mul(g, b)
            self._by_coords[coords] = g
            self._coords[g] = coords
        if len(self._coords) != len(self.elements):
            raise GroupError("basis does not span the subgroup freely")
        for b in self.basis:
            if group.element_order(b) != p:
                raise GroupError("basis element %d does not have order %d" % (b, p))
        for b, c in itertools.combinations(self.basis, 2):
            if group.mul(b, c) != group.mul(c, b):
                raise GroupError("basis elements do not commute")

    def _least_basis(self) -> tuple:
        basis = []
        span = {0}
        for e in sorted(self.elements):
            if e not in span:
                basis.append(e)
                span = _span(self.group, basis)
        return tuple(basis)

    def element_at(self, coords: Sequence[int]) -> int:
        return self._by_coords[tuple(c % self.p for c in coords)]

    def coordinates(self, g: int) -> tuple:
        try:
            return self._coords[g]
        except KeyError:
            raise GroupError("element %d is not in the subgroup" % g) from None

    def sorted_elements(self) -> tuple:
        return tuple(sorted(self.elements))

    def __contains__(self, g: int) -> bool:
        return g in self.elements

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElemAbelian)
            and self.group is other.group
            and self.p == other.p
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((id(self.group), self.p, self.elements))

    def __repr__(self):
        return "ElemAbelian(p=%d, rank=%d, basis=%r)" % (self.p, self.rank, self.basis)


def _span(group: FiniteGroup, gens: Sequence[int]) -> set:
    span = {0}
    for g in gens:
        new = set()
        for s in span:
            x = s
            while True:
                new.add(x)
                x = group.mul(x, g)
                if x == s:
                    break
        span = new
    return span


def enumerate_elem_abelians(group: FiniteGroup, p: int) -> list[ElemAbelian]:
    """All elementary abelian p-subgroups, trivial subgroup included.

    Grown rank by rank: each rank-k subgroup is extended by every commuting
    order-p element outside it, then deduplicated by element set.  Output is
    sorted by (rank, sorted element indices).
    """
    order_p = [g for g in range(1, group.order) if group.element_order(g) == p]
    levels = [{frozenset({0})}]
    while levels[-1]:
        nxt = set()
        for s in levels[-1]:
            for x in order_p:
                if x in s:
                    continue
                if all(group.mul(x, y) == group.mul(y, x) for y in s):
                    ext = frozenset(
                        itertools.chain.from_iterable(
                            _orbit_products(group, s_elt, x, p) for s_elt in s
                        )
                    )
                    nxt.add(ext)
        levels.append(nxt)
    all_sets = [s for level in levels for s in level]
    all_sets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return [ElemAbelian(group, p, s) for s in all_sets]


def _orbit_products(group, s_elt, x, p):
    g = s_elt
    for _ in range(p):
        yield g
        g = group.mul(g, x)


def p_rank(group: FiniteGroup, p: int) -> int:
    return max(v.rank for v in enumerate_elem_abelians(group, p))


@dataclass(frozen=True)
class LinearMorphism:
    """An injective homomorphism W -> V as a full-column-rank F_p matrix.

    ``matrix`` has shape rank(V) x rank(W); column j holds the target
    coordinates of the image of W's j-th basis element.
    """

    source: ElemAbelian
    target: ElemAbelian
    matrix: tuple

    def __post_init__(self):
        if self.source.p != self.target.p:
            raise GroupError("source and target live at different primes")
        if modp.mat_rank(self.matrix, self.source.p) != self.source.rank:
            raise GroupError("matrix does not have full column rank")

    @property
    def p(self) -> int:
        return self.source.p

    def __call__(self, w: int) -> int:
        """Image of a source group element under the linear map."""
        coords = self.source.coordinates(w)
        return self.target.element_at(modp.mat_vec(self.matrix, coords, self.p))

    def compose(self, other: "LinearMorphism") -> "LinearMorphism":
        """self after other (other: U -> W, self: W -> V)."""
        if other.target != self.source:
            raise GroupError("morphisms are not composable")
        return LinearMorphism(
            other.source, self.target, modp.mat_mul(self.matrix, other.matrix, self.p)
        )


def identity_morphism(v: ElemAbelian) -> LinearMorphism:
    return LinearMorphism(v, v, modp.identity_matrix(v.rank))


def conjugation_matrix(sub: ElemAbelian, target: ElemAbelian, g: int):
    """Matrix of x -> gxg^-1 : sub -> target in basis coordinates, or None
    when g does not conjugate sub into target; g = 0 gives the inclusion."""
    group = sub.group
    cols = []
    for b in sub.basis:
        image = group.conjugate(b, g)
        if image not in target:
            return None
        cols.append(target.coordinates(image))
    return tuple(tuple(col[i] for col in cols) for i in range(target.rank))


def injective_homs(w: ElemAbelian, v: ElemAbelian) -> list[LinearMorphism]:
    """All injective homomorphisms W -> V, in lexicographic column order."""
    if w.p != v.p:
        raise GroupError("subgroups live at different primes")
    return [
        LinearMorphism(w, v, m)
        for m in modp.enumerate_injective_matrices(v.rank, w.rank, w.p)
    ]


def injective_hom_count(r_source: int, r_target: int, p: int) -> int:
    """Closed form: prod_{i<r_source} (p^r_target - p^i)."""
    if r_source > r_target:
        return 0
    n = 1
    for i in range(r_source):
        n *= p ** r_target - p ** i
    return n
