"""Elementary abelian p-subgroups as F_p vector spaces with chosen bases.

A subgroup is identified by its element set and is the span of its least
basis: scanning the elements in index order, each one outside the span of
those already taken joins the basis.  Every subgroup comes from
``enumerate_elem_abelians``, which grows each span by one order-p element
from a candidate list that each span carries, and builds each span once
per parent, so every downstream enumeration is deterministic; a caller
naming a subgroup by its elements finds it in that list.  Coordinates are
``modp`` codes: b_1^c_1 ... b_r^c_r has the code of (c_1, ..., c_r), a
subgroup lists its elements in code order, so ``element_at`` is one index
and ``coordinates`` one dict read, and growing by e sends code k to
k * p + j for e^j, the order in which ``FiniteGroup.times_powers`` walks.
Group homomorphisms between elementary abelians are exactly F_p-linear
maps: ``inclusion_matrix`` gives an inclusion as a coded matrix, and
``LinearMorphism`` and ``injective_homs`` give maps as tuple matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import modp
from .groups import FiniteGroup, GroupError


class ElemAbelian:
    """An elementary abelian p-subgroup of a finite group, with basis.

    ``element_at(code)`` and ``coordinates(g)`` translate between the codes
    of F_p^rank and parent-group element indices; rank 0 is the trivial
    subgroup.
    """

    @classmethod
    def _spanned(cls, group: FiniteGroup, p: int, basis: tuple, elements: list):
        """The subgroup whose least basis is ``basis``, with its elements
        listed in code order; nothing is checked, as only
        ``enumerate_elem_abelians`` builds one."""
        v = cls.__new__(cls)
        v.group = group
        v.p = p
        v.basis = basis
        v.rank = len(basis)
        v.elements = frozenset(elements)
        v._at = tuple(elements)
        v._coords = {g: k for k, g in enumerate(elements)}
        return v

    def element_at(self, code: int) -> int:
        """The element with coordinate code ``code``, which must lie in
        range(p ** rank): it is one unchecked index, as the level search
        calls it for every image it tests."""
        return self._at[code]

    def coordinates(self, g: int) -> int:
        """The code of g's coordinates."""
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


def enumerate_elem_abelians(group: FiniteGroup, p: int) -> list[ElemAbelian]:
    """All elementary abelian p-subgroups, trivial subgroup included.

    Grown rank by rank, each subgroup built once: B with least basis
    (b_1, ..., b_k, x) comes only from A = span(b_1, ..., b_k) and x.  So A
    is extended only by order-p elements x outside A, past A's last basis
    element and commuting with A's basis, for which x is the least element
    of span(A, x) outside A.  These candidates are carried with A: the
    trivial group's are all order-p elements, and a kept span(A, x) gets
    A's candidates after x that commute with x, so a candidate is tested
    against the new basis element only.  Each span is built once per A:
    every x in span(A, x) outside A gives that span, so the ones a span
    built from A has reached are skipped.  Output is sorted by (rank,
    sorted element indices).
    """
    level = [(ElemAbelian._spanned(group, p, (), [0]), group.elements_of_order(p))]
    out = []
    while level:
        out += [a for a, _ in level]
        nxt = []
        for a, candidates in level:
            covered = set(a.elements)
            for at, x in enumerate(candidates):
                if x in covered:
                    continue
                elements = group.times_powers(a._at, x, p)
                outside = set(elements) - a.elements
                covered |= outside
                if min(outside) == x:
                    nxt.append((
                        ElemAbelian._spanned(group, p, a.basis + (x,), elements),
                        group.commuting_with(x, candidates[at + 1:]),
                    ))
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
        rows, cols = self.target.rank, self.source.rank
        if len(self.matrix) != rows or any(len(row) != cols for row in self.matrix):
            widths = "/".join(str(w) for w in sorted({len(row) for row in self.matrix}))
            raise GroupError(
                "matrix has shape %d x %s, not rank(target) x rank(source) = %d x %d"
                % (len(self.matrix), widths or "0", rows, cols)
            )
        if modp.mat_rank(self.matrix, self.source.p) != self.source.rank:
            raise GroupError("matrix does not have full column rank")

    @property
    def p(self) -> int:
        return self.source.p

    def __call__(self, w: int) -> int:
        """Image of a source group element under the linear map."""
        p = self.p
        coords = modp.decode(self.source.coordinates(w), self.source.rank, p)
        return self.target.element_at(modp.encode(modp.mat_vec(self.matrix, coords, p), p))


def inclusion_matrix(sub: ElemAbelian, target: ElemAbelian):
    """Coded matrix of the inclusion sub <= target in basis coordinates."""
    return modp.from_columns([target.coordinates(b) for b in sub.basis], target.rank, sub.p)


def injective_homs(w: ElemAbelian, v: ElemAbelian) -> list[LinearMorphism]:
    """All injective homomorphisms W -> V, in lexicographic column order."""
    if w.p != v.p:
        raise GroupError("subgroups live at different primes")
    p, vectors = w.p, range(w.p ** v.rank)
    return [
        LinearMorphism(w, v, modp.decode_matrix(m, w.rank, p))
        for m in modp.full_rank_matrices(modp.VectorSpace(p, v.rank), v.rank, [vectors] * w.rank)
    ]


def injective_hom_count(r_source: int, r_target: int, p: int) -> int:
    """Closed form: prod_{i<r_source} (p^r_target - p^i)."""
    if r_source > r_target:
        return 0
    n = 1
    for i in range(r_source):
        n *= p ** r_target - p ** i
    return n
