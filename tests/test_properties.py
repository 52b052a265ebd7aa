"""Library-wide structural properties of the categories.

These suites run over every bundled group of order <= 64 at p in {2, 3}:
agreement of the factorized builders with the all-pairs oracle, category
axioms at every level, monotonicity of hom-sets in the level,
agreement with the conjugation category at the p-rank, the elementwise
characterization of level 1, and agreement of the subgroup-reduction level
test with the all-tuples brute force (order <= 32, n <= 3).  The lazily
composed hom-sets, morphism counts, isomorphism classes, equality and
witnesses are checked against every composite multiplied out, at every
level, Quillen and C_R for A_4 and A_5, and the all-pairs oracle also runs
at A^(1) and Quillen on three groups beyond order 64.  C_R is checked
against its all-pairs oracle, restricting along embedding choices 0-2, on
every bundled group with an elementary abelian Sylow 2-subgroup, and there
every object's restrictions must be the same along each of its embeddings
into the Sylow subgroup.  Hypothesis properties compare the builders and
C_R with the all-pairs oracles on random permutation groups of degree <= 6,
beyond the fixed library, and another compares their colimits and towers
at q = p^2 with the union-find oracle.

The check_* functions are plain callables so the acceptance gate can drive
the whole battery in one timed pass.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from chromcat import (
    Fusion,
    UnsupportedGroupError,
    build_CR,
    build_category,
    colim_points,
    enumerate_elem_abelians,
    filtration_tower,
    group_from_permutations,
    injective_homs,
    invariant_basis,
    is_level_n_morphism,
    modp,
    p_rank,
    parse_poly,
    quillen_category,
)
from chromcat.subrings import SubringPresentation, sylow_among
from conftest import (
    LEVEL_JOIN_GENERATORS,
    ORACLE_LIBRARY,
    SMALL_LIBRARY,
    category,
    group,
    small_permutation_groups,
)
from oracles import (
    a1_elementwise,
    all_pairs_CR,
    all_pairs_category,
    colim_dict,
    conjugate,
    embeddings_into,
    inverse_iso_classes,
    level_oracle_all_tuples,
    tower_dict,
    union_find_colim,
    tuple_classes,
    union_find_tower,
    whole_row_inverse,
    with_inclusions,
    witness,
)

PRIMES = (2, 3)

D1 = parse_poly("x^2 + x*y + y^2", 2, 2)
D0 = parse_poly("x^2*y + x*y^2", 2, 2)
ETA = parse_poly("x^3 + x^2*y + y^3", 2, 2)

# composable-pair budget above which closure checking switches to a stride
CLOSURE_BUDGET = 200_000


def _p_rank_of(name, p):
    cat = category(name, p, 0)
    return max(v.rank for v in cat.objects)


def _levels(name, p):
    rank = _p_rank_of(name, p)
    return list(range(0, rank + 2))


def _cases():
    return [
        (name, p)
        for name in SMALL_LIBRARY
        for p in PRIMES
        if group(name).order % p == 0
    ]


def _hom_sets(cat):
    """{(i, j): set of Hom(objects[i], objects[j]) matrices} over every pair
    of objects, empty hom-sets included."""
    size = len(cat.objects)
    homs = cat.homs
    return {
        (i, j): set(homs.get((i, j), ()))
        for i in range(size)
        for j in range(size)
    }


def _check_axioms(cat, label):
    """Identities present and composition closed, composable pairs checked
    at a stride above the budget."""
    size = len(cat.objects)
    mats = _hom_sets(cat)
    for i, v in enumerate(cat.objects):
        assert modp.identity_matrix(v.rank) in mats[(i, i)], (label, i)
    total = sum(
        len(mats[(i, j)]) * len(mats[(j, k)])
        for i in range(size)
        for j in range(size)
        for k in range(size)
    )
    stride = max(1, total // CLOSURE_BUDGET)
    count = 0
    for j in range(size):
        incoming = [(i, f) for i in range(size) for f in sorted(mats[(i, j)])]
        outgoing = [(k, g) for k in range(size) for g in sorted(mats[(j, k)])]
        for (i, f), (k, g) in itertools.product(incoming, outgoing):
            count += 1
            if count % stride:
                continue
            assert modp.mat_mul(g, f, cat.p) in mats[(i, k)], (label, i, j, k)


def check_identities_present(name, p):
    for n in _levels(name, p) + [None]:
        cat = category(name, p, n)
        for i, v in enumerate(cat.objects):
            assert modp.identity_matrix(v.rank) in cat.hom(i, i), (name, p, n, i)


def check_composition_closure(name, p):
    for n in _levels(name, p) + [None]:
        _check_axioms(category(name, p, n), (name, p, n))


def check_conjugation_morphisms_present(name, p):
    quillen = _hom_sets(category(name, p, None))
    for n in _levels(name, p):
        homs = _hom_sets(category(name, p, n))
        for key, mats in quillen.items():
            assert mats <= homs[key], (name, p, n, key)


def check_monotonicity_and_sandwich(name, p):
    levels = _levels(name, p)
    cats = {n: _hom_sets(category(name, p, n)) for n in levels}
    quillen = _hom_sets(category(name, p, None))
    for n in levels[:-1]:
        hi, lo = cats[n + 1], cats[n]
        for key in quillen:
            assert hi[key] <= lo[key], (name, p, n)
    for n in levels[1:]:
        for key, mats in cats[n].items():
            assert quillen[key] <= mats
            assert mats <= cats[1][key]


def check_equality_at_p_rank(name, p):
    rank = _p_rank_of(name, p)
    quillen = category(name, p, None)
    assert category(name, p, max(rank, 1)).equals(quillen), (name, p, rank)
    assert category(name, p, rank + 1).equals(quillen)


def check_level_one_elementwise(name, p):
    cat1 = category(name, p, 1)
    objects = cat1.objects
    for i, w in enumerate(objects):
        for j, v in enumerate(objects):
            if w.rank > v.rank:
                continue
            members = set(cat1.hom(i, j))
            for f in injective_homs(w, v):
                assert (f.matrix in members) == a1_elementwise(f), (name, p, i, j)


def check_oracle_agreement(name, p):
    g = group(name)
    objects = category(name, p, 0).objects
    for w in objects:
        for v in objects:
            if w.rank > v.rank:
                continue
            for f in injective_homs(w, v):
                for n in (1, 2, 3):
                    assert (
                        is_level_n_morphism(f, n).ok
                        == level_oracle_all_tuples(f, n)
                    ), (name, p, w.rank, v.rank, f.matrix, n)


def run_full_battery():
    """Everything above over the whole small library; used by the acceptance
    gate, which times it."""
    for name, p in _cases():
        check_identities_present(name, p)
        check_composition_closure(name, p)
        check_conjugation_morphisms_present(name, p)
        check_monotonicity_and_sandwich(name, p)
        check_equality_at_p_rank(name, p)
        check_level_one_elementwise(name, p)
    for name in ORACLE_LIBRARY:
        for p in PRIMES:
            if group(name).order % p == 0 and group(name).order <= 32:
                check_oracle_agreement(name, p)


# -- pytest wiring ------------------------------------------------------------


@pytest.mark.parametrize("name,p", _cases())
def test_identities_present(name, p):
    check_identities_present(name, p)


@pytest.mark.parametrize("name,p", _cases())
def test_composition_closure(name, p):
    check_composition_closure(name, p)


@pytest.mark.parametrize("name,p", _cases())
def test_conjugation_morphisms_present_at_every_level(name, p):
    check_conjugation_morphisms_present(name, p)


@pytest.mark.parametrize("name,p", _cases())
def test_monotonicity_and_sandwich(name, p):
    check_monotonicity_and_sandwich(name, p)


@pytest.mark.parametrize("name,p", _cases())
def test_equality_at_p_rank(name, p):
    check_equality_at_p_rank(name, p)


@pytest.mark.parametrize("name,p", _cases())
def test_level_one_elementwise_characterization(name, p):
    check_level_one_elementwise(name, p)


@pytest.mark.parametrize("name", ORACLE_LIBRARY)
@pytest.mark.parametrize("p", PRIMES)
def test_rank_reduction_matches_all_tuples_oracle(name, p):
    g = group(name)
    if g.order % p:
        pytest.skip("prime does not divide the order")
    if g.order > 32:
        pytest.skip("outside the oracle budget")
    check_oracle_agreement(name, p)


def _check_against_all_pairs(cat, objects, homs, witnesses):
    assert cat.objects == tuple(objects)
    composed = cat.homs
    assert set(composed) == set(homs)
    for key, mats in composed.items():
        assert list(mats) == sorted(set(mats)), key  # sorted, without repeats
        assert set(mats) == {f.matrix for f in homs[key]}, key
    found = {
        (i, j, m): witness(cat, i, j, m)
        for (i, j), mats in composed.items()
        for m in mats
    }
    assert {key: g for key, g in found.items() if g is not None} == witnesses


@pytest.mark.parametrize("name,p", _cases())
def test_factorized_builders_match_all_pairs_oracle(name, p):
    g = group(name)
    for n in list(range(_p_rank_of(name, p) + 1)) + [None]:
        _check_against_all_pairs(category(name, p, n), *all_pairs_category(g, p, n))


# Beyond the order-64 library; each costs 0.5-3 s per level in the all-pairs
# oracle, so only A^(1), the first level that tests candidates, and Quillen.
@pytest.mark.parametrize("name,p", [("s5", 2), ("e9sl23", 3), ("c3wrc3", 3)])
def test_factorized_builders_match_all_pairs_oracle_beyond_order_64(name, p):
    g = group(name)
    for n in (1, None):
        _check_against_all_pairs(category(name, p, n), *all_pairs_category(g, p, n))


# Only the LEVEL_JOIN_GENERATORS group sees the join's transports t_U f
# differ from the t_U it starts from.
def test_level_join_through_a_non_identity_candidate_matches_all_pairs_oracle():
    g = group_from_permutations(8, LEVEL_JOIN_GENERATORS)
    assert g.order == 64
    for n in (1, 2, None):
        cat = quillen_category(g, 2) if n is None else build_category(g, 2, n)
        _check_against_all_pairs(cat, *all_pairs_category(g, 2, n))


def _agl_1_8():
    """AGL(1, 8): x -> x + 1 and x -> a x on F_8 = F_2[a]/(a^3 + a + 1),
    field elements as bitmasks; order 56, Sylow 2-subgroup the translations."""
    times_a = [(v << 1) ^ (0b1011 if v & 4 else 0) for v in range(8)]
    return group_from_permutations(8, [[v ^ 1 for v in range(8)], times_a], "AGL(1,8)")


def test_subring_transports_match_all_pairs_oracle_on_agl_1_8():
    # the Weyl invariants of degrees 1-4 cut C_R down to the Quillen
    # category, where a Klein four's automorphisms are trivial: each
    # transport is the one isomorphism from the class's least member, and
    # some have order 3, so a matched m stored in place of m^-1 shows
    g = _agl_1_8()
    assert g.order == 56
    weyl = SubringPresentation(Fusion(g, 2), []).weyl
    gens = [f for d in range(1, 5) for f in invariant_basis(weyl, d)]
    presentation = SubringPresentation(Fusion(g, 2), gens)
    cat = build_CR(g, presentation)
    assert cat.equals(quillen_category(g, 2))
    for choice in (0, 1, 2):
        _check_against_all_pairs(cat, *all_pairs_CR(g, presentation, embedding_choice=choice))


def _materialized(cat):
    """{(i, j): sorted composite matrices} multiplied out by the oracle,
    after checking the lazy category against it: every hom-set in order
    and without repeats, the morphism count, the isomorphism classes, and
    each composite's witness, which must induce it."""
    triples = [
        (i, k, m) for i, c in cat.class_of.items()
        for k in cat.classes[c][1] for m in cat.hom(i, k)
    ]
    # each isomorphism's own witness, which with_inclusions passes on to
    # its composites
    conjugations = {(i, k, m): witness(cat, i, k, m) for i, k, m in triples}
    homs, witnesses = with_inclusions(cat.p, cat.objects, triples, conjugations)
    size = len(cat.objects)
    for i in range(size):
        for j in range(size):
            lazy = list(cat.hom(i, j))
            assert lazy == [f.matrix for f in homs.get((i, j), ())], (i, j)
            assert lazy == sorted(set(lazy)), (i, j)
    assert cat.morphism_count() == sum(len(fs) for fs in homs.values())
    classes = [sorted(transports) for _, transports in cat.classes]
    assert classes == inverse_iso_classes(cat.objects, homs, cat.p)
    for (i, j), fs in homs.items():
        for f in fs:
            g = witnesses.get((i, j, f.matrix))
            assert witness(cat, i, j, f.matrix) == g, (i, j, f.matrix)
            if g is not None:
                assert all(
                    conjugate(cat.group, x, g) == f(x) for x in f.source.elements
                )
    return {key: [f.matrix for f in fs] for key, fs in homs.items()}


# Composites g f checked per (i, k, l) triple: every f in Iso(i, k) after
# the first few g in Iso(k, l), on at most five members of each class.
COMPOSE_SAMPLE = 4


def _check_groupoid_laws(cat):
    """For i, k, l in one class: Iso(k, l) Iso(i, k) lies in Iso(i, l),
    Iso(k, i) is exactly the inverses of Iso(i, k), and |Iso(i, k)| is
    |Aut(R)| of the class's least member R."""
    p = cat.p
    for aut, transports in tuple_classes(cat.classes, cat.objects, p):
        members = sorted(transports)
        sample = sorted(set(members[:3] + members[-2:]))
        isos = {(i, k): cat.hom(i, k) for i in sample for k in sample}
        assert isos[(members[0], members[0])] == aut, members
        for (i, k), mats in isos.items():
            assert len(mats) == len(aut), (i, k)
            assert sorted(whole_row_inverse(m, p) for m in mats) == list(isos[(k, i)])
        for i, k, l in itertools.product(sample, repeat=3):
            into = set(isos[(i, l)])
            for g in isos[(k, l)][:COMPOSE_SAMPLE]:
                assert all(modp.mat_mul(g, f, p) in into for f in isos[(i, k)]), (i, k, l)


@pytest.mark.parametrize("name,p", _cases())
def test_isomorphisms_form_a_groupoid(name, p):
    for n in _levels(name, p) + [None]:
        _check_groupoid_laws(category(name, p, n))


@pytest.mark.parametrize("name", ["a4", "a5"])
def test_subring_isomorphisms_form_a_groupoid(name):
    g = group(name)
    for gens in ([], [D1 ** 2, D0 ** 2], [D1, D0, ETA]):
        _check_groupoid_laws(build_CR(g, SubringPresentation(Fusion(g, 2), gens)))


def _check_equals_against_materialized(cats):
    composed = [_materialized(cat) for cat in cats]
    for (a, ha), (b, hb) in itertools.combinations(zip(cats, composed), 2):
        assert a.equals(b) == (ha == hb), (a, b)


@pytest.mark.parametrize("name,p", [
    (name, p)
    for name in SMALL_LIBRARY
    for p in (2, 3, 5)
    if group(name).order % p == 0
])
def test_lazy_homs_match_materialized_composites(name, p):
    levels = list(range(_p_rank_of(name, p) + 1)) + [None]
    _check_equals_against_materialized([category(name, p, n) for n in levels])


@pytest.mark.parametrize("name", ["a4", "a5"])
def test_lazy_subring_homs_match_materialized_composites(name):
    g = group(name)
    cats = [category(name, 2, n) for n in range(p_rank(g, 2) + 1)] + [
        category(name, 2, None)
    ]
    for gens in ([], [D1 ** 2, D0 ** 2], [D1, D0, ETA]):
        cats.append(build_CR(g, SubringPresentation(Fusion(g, 2), gens)))
    _check_equals_against_materialized(cats)


@settings(max_examples=40, deadline=None)
@given(small_permutation_groups())
def test_builders_match_all_pairs_oracle_on_random_groups(g):
    for p in PRIMES:
        for n in list(range(p_rank(g, p) + 2)) + [None]:
            cat = quillen_category(g, p) if n is None else build_category(g, p, n)
            _check_against_all_pairs(cat, *all_pairs_category(g, p, n))


@settings(max_examples=40, deadline=None)
@given(small_permutation_groups())
def test_colimits_match_union_find_on_random_groups(g):
    for p in PRIMES:
        q = p * p
        for n in list(range(p_rank(g, p) + 2)) + [None]:
            cat = quillen_category(g, p) if n is None else build_category(g, p, n)
            assert colim_dict(colim_points(cat, q)) == colim_dict(union_find_colim(cat, q))
        assert tower_dict(filtration_tower(g, p, q)) == tower_dict(union_find_tower(g, p, q))


def _invariant_bases(g):
    """The Weyl-invariant bases of degrees 1, 2 and 3 on g's Sylow 2-subgroup."""
    weyl = SubringPresentation(Fusion(g, 2), []).weyl
    return [invariant_basis(weyl, d) for d in (1, 2, 3)]


def _check_subrings_against_all_pairs(g, extra=()):
    """C_R against the all-pairs oracle for the unit subring, the Weyl-invariant
    basis of each degree 1-3 and of all three together, and ``extra``
    generator sets.  The oracle restricts along embedding choices 0, 1 and
    2, and the one category the library builds must equal each."""
    bases = _invariant_bases(g)
    for gens in ([], *bases, [f for b in bases for f in b], *extra):
        presentation = SubringPresentation(Fusion(g, 2), gens)
        cat = build_CR(g, presentation)
        for choice in (0, 1, 2):
            _check_against_all_pairs(
                cat, *all_pairs_CR(g, presentation, embedding_choice=choice)
            )


# Every bundled group whose Sylow 2-subgroup is elementary abelian: nontrivial
# in the first seven, trivial in the last five.
ELEMENTARY_ABELIAN_SYLOW_2 = [
    "a4", "a5", "c2", "c6", "e8", "k4", "s3", "c1", "c3", "e9", "h27", "c3wrc3",
]


@pytest.mark.parametrize("name", ELEMENTARY_ABELIAN_SYLOW_2)
def test_factorized_subring_categories_match_all_pairs_oracle(name):
    extra = ([D1 ** 2, D0 ** 2], [D1, D0, ETA]) if name in ("a4", "a5") else ()
    _check_subrings_against_all_pairs(group(name), extra)


@pytest.mark.parametrize("name", ELEMENTARY_ABELIAN_SYLOW_2)
def test_restrictions_agree_along_every_embedding(name):
    # the library restricts along the scan's transport of P onto the first
    # Sylow subgroup above V; every other conjugation embedding must give the
    # same restrictions
    g = group(name)
    gens = [f for b in _invariant_bases(g) for f in b]
    presentation = SubringPresentation(Fusion(g, 2), gens)
    for v in enumerate_elem_abelians(g, 2):
        embs = embeddings_into(g, v, presentation.sylow)
        assert embs, (name, v.rank)
        for emb in embs:
            along = tuple(f.substitute_linear(modp.transpose(emb)) for f in gens)
            assert presentation.restrictions(v) == along, (name, v.rank, emb)


@settings(max_examples=40, deadline=None)
@given(small_permutation_groups())
def test_subring_categories_match_all_pairs_oracle_on_random_groups(g):
    try:
        sylow_among(enumerate_elem_abelians(g, 2))
    except UnsupportedGroupError:
        return  # C_R needs an elementary abelian Sylow 2-subgroup
    _check_subrings_against_all_pairs(g)


def test_subring_category_axioms():
    # C_R instances satisfy the same categorical axioms
    a4 = group("a4")
    for gens in ([D1, D0, ETA], [D1 ** 2, D0 ** 2], []):
        _check_axioms(build_CR(a4, SubringPresentation(Fusion(a4, 2), gens)), gens)
