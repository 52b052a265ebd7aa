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

P, its Weyl group and the embeddings into P are all read off one ``Fusion``
and its conjugation scan, which walks orbits from G's generators; nothing
here walks G or conjugates by an element of it.  P is the least object of
top rank, so it leads its G-class (``sylow_class``), whose stored Aut is
Aut_G(P) and whose transports t_P' carry P onto every other Sylow subgroup
P'.  The Weyl action is held by generators only; its order is the length
of the listed Aut_G(P).

Scope guard: every elementary abelian subgroup must be conjugate into P, and
p must be 2 (odd primes would need the exterior part of the cohomology).
Violations raise UnsupportedGroupError rather than returning silently wrong
categories.
"""

from __future__ import annotations

from typing import Sequence

from . import modp
from .categories import ChromCategory, Fusion
from .elemab import ElemAbelian, inclusion_matrix
from .groups import FiniteGroup, GroupError, greedy_generators
from .polyfp import LinearAction, PolyFp


class UnsupportedGroupError(GroupError):
    """The group falls outside the elementary-abelian-Sylow, p=2 scope."""


def sylow_among(objects: Sequence[ElemAbelian]) -> ElemAbelian:
    """The first elementary abelian subgroup, of all of them listed by rank,
    that is a full Sylow p-subgroup; raises if the Sylow p-subgroup is not
    elementary abelian."""
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


def sylow_class(fusion: Fusion) -> tuple:
    """(Aut_G(P), {P': t_P'}): the scanned G-class that P leads.  Aut_G(P)
    is listed, so |W| is its length: the Weyl action a -> (a^-1)^T is
    injective."""
    lead = fusion.objects.index(sylow_among(fusion.objects))
    return next(c for c in fusion.scan.classes if lead in c[1])


def weyl_action(fusion: Fusion) -> LinearAction:
    """Action of N_G(P)/C_G(P) on the polynomial generators of H^*(BP).

    Conjugation acts on P by the matrices a of Aut_G(P); the induced left
    action on degree-one cohomology is a -> (a^-1)^T, a homomorphism, so the
    images of Aut's greedy generators generate it (the identity when the
    Weyl group is trivial).
    """
    p, (aut, _) = fusion.p, sylow_class(fusion)
    r = len(aut[0])
    gens = greedy_generators(aut, modp.identity_code(r, p), fusion.space.mul)
    return LinearAction(p, [
        modp.transpose(modp.decode_matrix(fusion.space.inverse(a), r, p)) for a in gens
    ] or [modp.identity_matrix(r)])


class SubringPresentation:
    """Generators of a subring of H^*(BG), presented on the Sylow variables
    of the Fusion that holds G's objects and conjugation scan."""

    def __init__(self, fusion: Fusion, generators: Sequence[PolyFp], name: str = "R"):
        if fusion.p != 2:
            raise UnsupportedGroupError("subring categories are implemented for p = 2 only")
        self.fusion, self.p, self.name = fusion, fusion.p, name
        self.sylow = sylow_among(fusion.objects)
        self.weyl = weyl_action(fusion)
        self.generators = tuple(generators)
        for g in self.generators:
            if g.nvars != self.sylow.rank or g.p != self.p:
                raise ValueError("generator does not live on the Sylow variables")
            if not g.is_homogeneous():
                raise ValueError("generators must be homogeneous")
            for m in self.weyl.generators:
                if g.substitute_linear(m) != g:
                    raise ValueError(
                        "generator %s is not Weyl-invariant" % g.render()
                    )

    def restrictions(self, v: ElemAbelian) -> tuple:
        """Res_V of every generator, along t_P'^-1 incl(V <= P'): V lies in
        the first Sylow subgroup P' above it, which the scanned t_P' carries
        P onto, so this is a conjugation embedding of V into P.

        Any embedding gives the same restrictions: P is abelian, so by
        Burnside's fusion theorem two embeddings differ by an element of
        N_G(P), and the generators are Weyl-invariant.
        """
        fusion, p, transports = self.fusion, self.p, sylow_class(self.fusion)[1]
        for j in fusion.above[fusion.objects.index(v)]:
            if j in transports:
                back = fusion.space.inverse(transports[j])
                emb = fusion.space.mul(back, inclusion_matrix(v, fusion.objects[j]))
                pullback = modp.transpose(modp.decode_matrix(emb, v.rank, p))
                return tuple(f.substitute_linear(pullback) for f in self.generators)
        raise UnsupportedGroupError(
            "object of rank %d is not conjugate into the Sylow subgroup" % v.rank
        )


def build_CR(group: FiniteGroup, presentation: SubringPresentation) -> ChromCategory:
    """The category C_R: objects all elementary abelians, morphisms the
    injective f with f^* Res_V = Res_W on every generator, built on the
    presentation's Fusion, so G's objects and scan are made once.

    Fusion in the abelian P is controlled by N_G(P) and the generators are
    Weyl-invariant, so every conjugation embedding into P gives the same
    restrictions, each inclusion U <= V pulls Res_V back to Res_U, and C_R
    contains the Quillen category.  ``Fusion.subring`` joins its classes,
    matching the restriction keys of each class's least member only.
    """
    if group is not presentation.fusion.group:
        raise GroupError("the presentation is on another group's Sylow subgroup")
    return presentation.fusion.subring(presentation)
