"""Categories C_R cut out by restriction of invariant-polynomial subrings.

A subring of the mod-2 cohomology of G is presented by homogeneous
Weyl-invariant polynomial generators on the variables of an elementary
abelian Sylow 2-subgroup P.  A morphism f: W -> V survives when pulling the
restriction of every generator back along f agrees with restricting it to W.
Equality is checked on generators only, which suffices because restriction
and pullback are ring maps.

The condition is checked exactly, not modulo the nilradical: the two versions
agree for subrings closed under the Steenrod algebra, Steenrod operations are
out of scope here, and the shipped generator sets are meant exactly.

Scope guard: every elementary abelian subgroup must be conjugate into P, and
p must be 2 (odd primes would need the exterior part of the cohomology).
Violations raise UnsupportedGroupError rather than returning silently wrong
categories.
"""

from __future__ import annotations

from typing import Sequence

from . import modp
from .categories import ChromCategory, Fusion
from .elemab import (
    ElemAbelian,
    conjugation_matrix,
    enumerate_elem_abelians,
)
from .groups import FiniteGroup, GroupError
from .polyfp import LinearAction, PolyFp


class UnsupportedGroupError(GroupError):
    """The group falls outside the elementary-abelian-Sylow, p=2 scope."""


def sylow_elem_abelian(group: FiniteGroup, p: int = 2) -> ElemAbelian:
    """The first maximal elementary abelian subgroup that is a full Sylow
    p-subgroup; raises if the Sylow p-subgroup is not elementary abelian."""
    return sylow_among(enumerate_elem_abelians(group, p))


def sylow_among(objects: Sequence[ElemAbelian]) -> ElemAbelian:
    """``sylow_elem_abelian`` read off all elementary abelians, by rank."""
    group, p = objects[0].group, objects[0].p
    part = 1
    while group.order % (part * p) == 0:
        part *= p
    for v in objects:
        if p ** v.rank == part:
            return v
    raise UnsupportedGroupError(
        "the Sylow %d-subgroup of %s is not elementary abelian" % (p, group.name)
    )


def weyl_action(group: FiniteGroup, sylow: ElemAbelian) -> LinearAction:
    """Action of N_G(P)/C_G(P) on the polynomial generators of H^*(BP).

    Conjugation by n acts on P with matrix A; the induced left action on
    degree-one cohomology is the inverse transpose of A.
    """
    mats = set()
    for g in group.elements():
        a = conjugation_matrix(sylow, sylow, g)
        if a is not None:
            mats.add(modp.transpose(modp.mat_inverse(a, sylow.p)))
    return LinearAction(sylow.p, sorted(mats))


class SubringPresentation:
    """Generators of a subring of H^*(BG), presented on the Sylow variables."""

    def __init__(
        self,
        sylow: ElemAbelian,
        weyl: LinearAction,
        generators: Sequence[PolyFp],
        name: str = "R",
    ):
        if sylow.p != 2:
            raise UnsupportedGroupError("subring categories are implemented for p = 2 only")
        self.sylow = sylow
        self.weyl = weyl
        self.generators = tuple(generators)
        self.name = name
        self.p = sylow.p
        for g in self.generators:
            if g.nvars != sylow.rank or g.p != self.p:
                raise ValueError("generator does not live on the Sylow variables")
            if not g.is_homogeneous():
                raise ValueError("generators must be homogeneous")
            for m in weyl.generators:
                if g.substitute_linear(m) != g:
                    raise ValueError(
                        "generator %s is not Weyl-invariant" % g.render()
                    )

    @classmethod
    def for_group(cls, group: FiniteGroup, generators: Sequence[PolyFp], name="R"):
        sylow = sylow_elem_abelian(group, 2)
        return cls(sylow, weyl_action(group, sylow), generators, name=name)

    def restrictions(self, v: ElemAbelian) -> tuple:
        """Res_V of every generator, along the embedding x -> gxg^-1 of V
        into P for the least g with gVg^-1 <= P.

        Any embedding gives the same restrictions: P is abelian, so by
        Burnside's fusion theorem two embeddings differ by an element of
        N_G(P), and the generators are Weyl-invariant.
        """
        for g in v.group.elements():
            emb = conjugation_matrix(v, self.sylow, g)
            if emb is not None:
                return tuple(f.substitute_linear(modp.transpose(emb)) for f in self.generators)
        raise UnsupportedGroupError(
            "object of rank %d is not conjugate into the Sylow subgroup" % v.rank
        )


def restriction(sylow: ElemAbelian, sub: ElemAbelian, f: PolyFp) -> PolyFp:
    """Restrict a polynomial on P's variables along an actual inclusion
    sub <= P (dual linear substitution by the transposed coordinate matrix)."""
    inclusion = conjugation_matrix(sub, sylow, 0)
    if inclusion is None:
        raise GroupError("subgroup is not contained in the ambient Sylow subgroup")
    return f.substitute_linear(modp.transpose(inclusion))


def build_CR(group: FiniteGroup, presentation: SubringPresentation) -> ChromCategory:
    """The category C_R: objects all elementary abelians, morphisms the
    injective f with f^* Res_V = Res_W on every generator.

    Fusion in the abelian P is controlled by N_G(P) and the generators are
    Weyl-invariant, so every conjugation embedding into P gives the same
    restrictions, each inclusion U <= V pulls Res_V back to Res_U, and C_R
    contains the Quillen category.  ``Fusion.subring`` joins its classes,
    matching the restriction keys of each class's least member only.
    """
    return Fusion(group, presentation.p).subring(presentation)

