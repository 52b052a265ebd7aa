from __future__ import annotations

import pytest

from chromcat import (
    Fusion,
    LinearMorphism,
    SubringPresentation,
    UnsupportedGroupError,
    build_CR,
    build_category,
    builtin_names,
    enumerate_elem_abelians,
    group_from_permutations,
    invariant_bases,
    modp,
    parse_poly,
    quillen_category,
    weyl_action,
)
from chromcat.groups import GroupError
from chromcat.subrings import sylow_among, sylow_class
from capture_cli_golden import _primes_dividing
from conftest import category, group, stretch_group
from oracles import (
    all_pairs_CR,
    class_lead_oracle,
    distinguishing_generator,
    embeddings_into,
    matrix_group_elements,
    subring_iso_test,
    whole_row_inverse,
)

D1 = parse_poly("x^2 + x*y + y^2", 2, 2)
D0 = parse_poly("x^2*y + x*y^2", 2, 2)
ETA = parse_poly("x^3 + x^2*y + y^3", 2, 2)


def a4_presentation(gens, name="R"):
    return SubringPresentation(Fusion(group("a4"), 2), gens, name=name)


def sylow_of(g):
    """The elementary abelian Sylow 2-subgroup P that C_R is presented on."""
    return sylow_among(Fusion(g, 2).objects)


def test_sylow_and_weyl():
    fusion = Fusion(group("a4"), 2)
    assert sylow_among(fusion.objects).rank == 2
    elements = matrix_group_elements(weyl_action(fusion))
    assert len(elements) == 3
    # the order-3 action is the unique C_3 in GL_2(F_2)
    assert ((0, 1), (1, 1)) in elements


def _elementary_abelian_sylows():
    """(label, Fusion) for every bundled and test-only group and every prime
    dividing its order where the Sylow subgroup is elementary abelian."""
    named = [(name, group(name)) for name in builtin_names()]
    named += [(name, stretch_group(name)) for name in ("agl32", "agl116", "f33h")]
    for name, g in named:
        for p in _primes_dividing(g.order):
            try:
                sylow_among(enumerate_elem_abelians(g, p))
            except UnsupportedGroupError:
                continue
            yield "%s-p%d" % (name, p), Fusion(g, p)


def test_weyl_action_lists_the_walk_of_g():
    # W is generated from Aut_G(P) as the scan stores it; walking all of G
    # for the g with gPg^-1 = P lists the same group, with as many elements
    # as the scan's Aut_G(P), which ``invariants`` reports as the Weyl order
    seen = []
    for label, fusion in _elementary_abelian_sylows():
        seen.append(label)
        sylow, p = sylow_among(fusion.objects), fusion.p
        walk = embeddings_into(fusion.group, sylow, sylow)
        inverse_transposes = {modp.transpose(whole_row_inverse(a, p)) for a in walk}
        assert matrix_group_elements(weyl_action(fusion)) == inverse_transposes, label
        assert len(sylow_class(fusion)[0]) == len(inverse_transposes), label
    assert len(seen) == 26 and "agl116-p2" in seen and "s6-p3" in seen


def test_weyl_groups_are_held_by_generators():
    # greedy generators of Aut_G(P), never the listed group; the identity
    # when W is trivial, as for the rank-0 P of C_3 at p = 2
    pins = {
        "a4": (2, 1, 3), "a5": (2, 1, 3), "agl116": (2, 1, 15), "s6": (3, 2, 8), "c3": (2, 1, 1),
    }
    for name, (p, gens, order) in pins.items():
        g = stretch_group(name) if name == "agl116" else group(name)
        weyl = weyl_action(Fusion(g, p))
        assert (len(weyl.generators), len(matrix_group_elements(weyl))) == (gens, order), name
    assert weyl_action(Fusion(group("c3"), 2)).generators == ((),)


def test_sylow_not_elementary_abelian_rejected():
    for name in ("d8", "q8"):
        with pytest.raises(UnsupportedGroupError):
            sylow_of(group(name))
        with pytest.raises(UnsupportedGroupError):
            SubringPresentation(Fusion(group(name), 2), [])


def test_build_cr_refuses_a_presentation_on_another_group():
    with pytest.raises(GroupError):
        build_CR(group("a5"), a4_presentation([D1]))


def test_fusion_subring_refuses_a_presentation_on_another_group():
    # the keys are looked up by the presentation's own objects, which the
    # other group's Fusion does not hold
    with pytest.raises(GroupError, match="another group"):
        Fusion(group("a5"), 2).subring(a4_presentation([]))


def test_generators_must_be_invariant():
    with pytest.raises(ValueError):
        a4_presentation([parse_poly("x^2", 2, 2)])


def test_restriction_values():
    zero = parse_poly("0", 2, 2)
    presentation = a4_presentation([D1, D0, ETA, zero])
    sylow = presentation.sylow
    w1 = category("a4", 2, None).objects[1]
    assert sylow.coordinates(w1.basis[0]) == modp.encode((1, 0), 2)
    d1, d0, eta, z = presentation.restrictions(w1)
    assert d1 == parse_poly("t^2", 2, 1)
    assert d0.is_zero()
    assert eta == parse_poly("t^3", 2, 1)
    assert z.is_zero()
    assert presentation.restrictions(sylow) == (D1, D0, ETA, zero)  # identity on P


def test_cr_recovers_quillen_and_level_one():
    a4 = group("a4")
    cr_full = build_CR(a4, a4_presentation([D1, D0, ETA], "H*(BA4)"))
    assert cr_full.equals(quillen_category(a4, 2))
    cr_chern = build_CR(a4, a4_presentation([D1 ** 2, D0 ** 2], "Ch(A4)"))
    assert cr_chern.equals(build_category(a4, 2, 1))
    cr_unit = build_CR(a4, a4_presentation([], "unit"))
    assert cr_unit.equals(build_category(a4, 2, 0))


def test_cr_contains_conjugation_morphisms():
    a4 = group("a4")
    quillen = quillen_category(a4, 2)
    for gens in ([D1, D0, ETA], [D1 ** 2, D0 ** 2], [D1]):
        cr = build_CR(a4, a4_presentation(gens))
        for i in range(len(quillen.objects)):
            for j in range(len(quillen.objects)):
                assert set(quillen.hom(i, j)) <= set(cr.hom(i, j))


def test_cr_monotone_in_generators():
    a4 = group("a4")
    nested = [[], [D1], [D1, D0], [D1, D0, ETA]]
    cats = [build_CR(a4, a4_presentation(g)) for g in nested]
    for smaller, larger in zip(cats[1:], cats):
        for i in range(len(smaller.objects)):
            for j in range(len(smaller.objects)):
                assert set(smaller.hom(i, j)) <= set(larger.hom(i, j))


def test_cr_pulls_back_one_key_per_class_and_matrix():
    # A_5 at p = 2 has three C_R classes: the trivial group, the 15
    # involutions and the 5 Klein fours.  The column search pulls back
    # along 1 prefix for the involutions and, for the Klein fours, 3 first
    # columns and the 2 columns outside each one's span, 10 prefixes in all;
    # the GL pullback table took 1 + |GL_1| + |GL_2| = 8, one key per object
    # 1 + 15 * 1 + 5 * 6 = 46, and every equal-rank pair 1 + 15^2 + 5^2 * 6
    # = 376.  C_R joins the Quillen classes, so it runs the one scan
    a5 = group("a5")
    fusion = Fusion(a5, 2)
    cat = fusion.subring(SubringPresentation(Fusion(a5, 2), [D1, D0, ETA]))
    assert fusion.stats["subring_pullbacks"] == 10
    assert fusion.stats["scans"] == 1
    assert cat.equals(quillen_category(a5, 2))


def test_cr_restricts_the_least_member_of_each_quillen_class(monkeypatch):
    # conjugate objects have equal keys, so A_5 restricts 3 of its 21 objects
    calls = []
    restrictions = SubringPresentation.restrictions

    def counting(self, v):
        calls.append(v)
        return restrictions(self, v)

    monkeypatch.setattr(SubringPresentation, "restrictions", counting)
    a5 = group("a5")
    fusion = Fusion(a5, 2)
    fusion.subring(SubringPresentation(Fusion(a5, 2), [D1, D0, ETA]))
    assert len(fusion.objects) == 21
    assert calls == [fusion.objects[min(ts)] for _, ts in fusion.scan.classes]
    assert len(calls) == 3


def test_cr_embedding_choice_independent():
    a4 = group("a4")
    # every rank-1 object has several conjugation embeddings into the Sylow
    sylow = sylow_of(a4)
    w1 = category("a4", 2, None).objects[1]
    assert len(embeddings_into(a4, w1, sylow)) > 1
    # C_R restricts along one embedding per object; the oracle, restricting
    # along any other, finds the same morphisms
    for gens in ([D1, D0, ETA], [D1 ** 2, D0 ** 2]):
        cat = build_CR(a4, a4_presentation(gens))
        homs = {key: set(mats) for key, mats in cat.homs.items()}
        for choice in (0, 1, 2):
            _, oracle, _ = all_pairs_CR(a4, a4_presentation(gens), choice)
            assert homs == {key: {f.matrix for f in fs} for key, fs in oracle.items()}


def _oracle_homs(g, presentation):
    _, homs, _ = all_pairs_CR(g, presentation)
    return {key: {f.matrix for f in fs} for key, fs in homs.items()}


@pytest.mark.parametrize("top", [0, 2, 4])
@pytest.mark.parametrize("name", ["a4", "a5", "c2", "c6", "s3", "k4", "e8"])
def test_cr_matches_all_pairs_oracle(name, top):
    # every bundled group whose Sylow 2-subgroup is elementary abelian and
    # nontrivial, with the Weyl-invariant forms of degrees 1..top (top = 0
    # is the unit subring)
    g = group(name)
    weyl = SubringPresentation(Fusion(g, 2), []).weyl
    gens = [f for basis in invariant_bases(weyl, range(1, top + 1)).values() for f in basis]
    presentation = SubringPresentation(Fusion(g, 2), gens)
    cat = build_CR(g, presentation)
    assert {key: set(mats) for key, mats in cat.homs.items()} == _oracle_homs(g, presentation)


def test_cr_joins_some_quillen_classes_and_equals_no_level():
    e8 = group("e8")
    presentation = SubringPresentation(
        Fusion(e8, 2), [parse_poly("x^2", 2, 3), parse_poly("y^2 + z^2", 2, 3)]
    )
    fusion = Fusion(e8, 2)
    cat = fusion.subring(presentation)
    assert {key: set(mats) for key, mats in cat.homs.items()} == _oracle_homs(e8, presentation)
    quillen = fusion.scan.classes
    assert len(cat.classes) == 10 < len(quillen) == len(fusion.objects)
    # some classes are one Quillen class, others join several
    sizes = sorted(len(ts) for _, ts in cat.classes)
    assert sizes[0] == 1 and sizes[-1] > 1
    assert not any(cat.equals(fusion.category(n)) for n in [*range(fusion.rank + 1), None])


def _invariant_presentation(g, top):
    """C_R's presentation by the Weyl-invariant forms of degrees 1..top."""
    weyl = SubringPresentation(Fusion(g, 2), []).weyl
    gens = [f for basis in invariant_bases(weyl, range(1, top + 1)).values() for f in basis]
    return SubringPresentation(Fusion(g, 2), gens)


def _psl_2_8():
    """PSL(2,8) on the projective line F_8 and oo = 8: x -> x + 1, x -> a x
    and x -> 1/x, F_8 = F_2[a]/(a^3 + a + 1) as bitmasks; order 504."""

    def times(u, v):
        out = 0
        for i in range(3):
            if v >> i & 1:
                out ^= u << i
        for i in (4, 3):
            if out >> i & 1:
                out ^= 0b1011 << (i - 3)
        return out

    inverse = {u: next(v for v in range(1, 8) if times(u, v) == 1) for u in range(1, 8)}
    return group_from_permutations(9, [
        [v ^ 1 for v in range(8)] + [8],
        [times(2, v) for v in range(8)] + [8],
        [8] + [inverse[v] for v in range(1, 8)] + [0],
    ], "PSL(2,8)")


def test_restrictions_follow_transports_that_are_not_involutions():
    # PSL(2,8) has nine Sylow 2-subgroups, each of rank 3, and W = C_7; the
    # scan carries P onto five of them by matrices that are not their own
    # inverses, so restricting along t_P' in place of t_P'^-1 shows
    g = _psl_2_8()
    presentation = _invariant_presentation(g, 4)
    weyl_order = len(matrix_group_elements(presentation.weyl))
    assert (g.order, weyl_order, len(presentation.generators)) == (504, 7, 4)
    fusion = presentation.fusion
    lead = fusion.objects.index(presentation.sylow)
    transports = next(ts for _, ts in fusion.scan.classes if lead in ts).values()
    assert len(transports) == 9
    assert sum(fusion.space.inverse(t) != t for t in transports) == 5
    for v in fusion.objects:
        for emb in embeddings_into(g, v, presentation.sylow):
            along = tuple(f.substitute_linear(modp.transpose(emb)) for f in presentation.generators)
            assert presentation.restrictions(v) == along, (v.rank, emb)


def test_cr_matches_class_lead_oracle_on_e8():
    # the 34 monomials of degrees 1..4 in three variables: every class's Aut
    # is GL_rank filtered by the full pullback, each transport pulls Res
    # back, and no matrix joins two class leads
    e8 = group("e8")
    presentation = _invariant_presentation(e8, 4)
    assert len(presentation.generators) == 34
    cat = build_CR(e8, presentation)
    assert class_lead_oracle(cat, subring_iso_test(cat, presentation)) == []


def test_cr_on_agl116_is_level_two():
    # AGL(1,16) at p = 2, rank 4, Weyl group C_15: its 5 invariants of
    # degree <= 5 cut out A^(2) = A^(3) = A^(4) = Quillen.  The column search
    # tests 641 prefixes where the GL_4(2) pullback table took 20,348, and
    # the build took about 105 s
    g = stretch_group("agl116")
    presentation = _invariant_presentation(g, 5)
    assert len(presentation.generators) == 5
    fusion = Fusion(g, 2)
    cat = fusion.subring(presentation)
    assert fusion.stats["subring_pullbacks"] == 641
    assert cat.morphism_count() == 6757
    assert [len(aut) for aut, _ in cat.classes] == [1, 1, 1, 1, 3, 1, 15]
    assert [cat.equals(fusion.category(n)) for n in (0, 1, 2, 3, 4, None)] == [
        False, False, True, True, True, True,
    ]


def test_distinguishing_generator():
    a4 = group("a4")
    sylow = sylow_of(a4)
    swap = LinearMorphism(sylow, sylow, ((0, 1), (1, 0)))
    hit = distinguishing_generator(a4_presentation([D1, D0, ETA]), swap)
    assert hit == ETA  # sigma(eta) = eta + D0
    assert distinguishing_generator(a4_presentation([D1 ** 2, D0 ** 2]), swap) is None
    ident = LinearMorphism(sylow, sylow, ((1, 0), (0, 1)))
    assert distinguishing_generator(a4_presentation([D1, D0, ETA]), ident) is None


def test_k4_subring_categories():
    # elementary abelian group: Sylow is the whole group, Weyl is trivial
    k4 = group("k4")
    fusion = Fusion(k4, 2)
    assert sylow_among(fusion.objects).rank == 2
    assert len(matrix_group_elements(weyl_action(fusion))) == 1
    x2 = parse_poly("x^2", 2, 2)
    cr = build_CR(k4, SubringPresentation(fusion, [x2]))
    # x^2 separates: only maps preserving the first coordinate survive
    assert not cr.equals(build_category(k4, 2, 0))
