"""Elementary abelian p-subgroups as F_p vector spaces with chosen bases.

A subgroup is identified by its element set and is the span of its least
basis: scanning the elements in index order, each one outside the span of
those already taken joins the basis.  Every subgroup comes from
``enumerate_elem_abelians``, which grows each span and its coordinate
table by one order-p element with ``_extend``, so every downstream
enumeration is deterministic; a caller naming a subgroup by its elements
finds it in that list.  Group homomorphisms between elementary abelians
are exactly F_p-linear maps and are represented as matrices only.
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

    @classmethod
    def _spanned(cls, group: FiniteGroup, p: int, basis: tuple, coords: dict):
        """The subgroup whose least basis is ``basis``, with coords its
        coordinate table {element: coordinates}; nothing is checked, as
        only ``enumerate_elem_abelians`` builds one."""
        v = cls.__new__(cls)
        v.group = group
        v.p = p
        v.basis = basis
        v.rank = len(basis)
        v.elements = frozenset(coords)
        v._coords = coords
        v._by_coords = {c: g for g, c in coords.items()}
        return v

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


def _extend(group: FiniteGroup, p: int, coords: dict, e: int) -> dict:
    """The table {element: coordinates} grown by the order-p element e:
    each entry a gives a*e^k, with coordinates (coords(a), k), for k < p."""
    table, grown = group.table, {}
    for a, c in coords.items():
        for k in range(p):
            grown[a] = c + (k,)
            a = table[a][e]
    return grown


def enumerate_elem_abelians(group: FiniteGroup, p: int) -> list[ElemAbelian]:
    """All elementary abelian p-subgroups, trivial subgroup included.

    Grown rank by rank, each subgroup built once: B with least basis
    (b_1, ..., b_k, x) comes only from A = span(b_1, ..., b_k) and x.  So A
    is extended only by order-p elements x outside A, past A's last basis
    element and commuting with A's basis, for which x is the least element
    of span(A, x) outside A.  Output is sorted by (rank, sorted element
    indices).
    """
    table = group.table
    order_p = [g for g in range(1, group.order) if group.element_order(g) == p]
    level = [ElemAbelian._spanned(group, p, (), {0: ()})]
    out = []
    while level:
        out += level
        nxt = []
        for a in level:
            last = a.basis[-1] if a.basis else 0
            for x in order_p:
                if x <= last or x in a.elements:
                    continue
                if any(table[x][b] != table[b][x] for b in a.basis):
                    continue
                coords = _extend(group, p, a._coords, x)
                if min(g for g in coords if g not in a.elements) == x:
                    nxt.append(ElemAbelian._spanned(group, p, a.basis + (x,), coords))
        level = nxt
    out.sort(key=lambda v: (v.rank, v.sorted_elements()))
    return out


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
    vectors = list(itertools.product(range(w.p), repeat=v.rank))
    return [
        LinearMorphism(w, v, m)
        for m in modp.full_rank_matrices(v.rank, [vectors] * w.rank, w.p)
    ]


def injective_hom_count(r_source: int, r_target: int, p: int) -> int:
    """Closed form: prod_{i<r_source} (p^r_target - p^i)."""
    if r_source > r_target:
        return 0
    n = 1
    for i in range(r_source):
        n *= p ** r_target - p ** i
    return n
