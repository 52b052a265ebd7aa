from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from chromcat import (
    ElemAbelian,
    FiniteGroup,
    GroupError,
    LinearMorphism,
    builtin_names,
    enumerate_elem_abelians,
    injective_hom_count,
    injective_homs,
    modp,
    p_rank,
)
from conftest import ORACLE_LIBRARY, STRETCH, group, small_permutation_groups, stretch_group
from oracles import (
    brute_elem_abelian_count,
    compose,
    extend_and_dedupe_elem_abelians,
    identity_morphism,
    rank_injective_matrices,
)


def test_a4_enumeration():
    a4 = group("a4")
    subs = enumerate_elem_abelians(a4, 2)
    assert [v.rank for v in subs] == [0, 1, 1, 1, 2]
    subs3 = enumerate_elem_abelians(a4, 3)
    assert [v.rank for v in subs3] == [0, 1, 1, 1, 1]
    assert p_rank(a4, 2) == 2
    assert p_rank(a4, 3) == 1


def test_trivial_group():
    c1 = group("c1")
    subs = enumerate_elem_abelians(c1, 2)
    assert len(subs) == 1 and subs[0].rank == 0
    assert p_rank(c1, 5) == 0


def test_prime_not_dividing_order():
    s3 = group("s3")
    subs = enumerate_elem_abelians(s3, 5)
    assert len(subs) == 1 and subs[0].rank == 0


def test_subgroup_closure_and_tables():
    for name in ("a4", "d8", "q8", "s4"):
        g = group(name)
        for v in enumerate_elem_abelians(g, 2):
            for a in v.elements:
                for b in v.elements:
                    assert g.mul(a, b) in v.elements
            # coordinates round-trip; the code of e_j is 2^(rank - 1 - j)
            for code in range(2 ** v.rank):
                assert v.coordinates(v.element_at(code)) == code
            assert v.coordinates(0) == 0
            for j, b in enumerate(v.basis):
                assert v.element_at(2 ** (v.rank - 1 - j)) == b


def test_least_basis_choice():
    a4 = group("a4")
    rank2 = enumerate_elem_abelians(a4, 2)[-1]
    elems = sorted(rank2.elements)
    # basis is the greedy lexicographically least one
    assert rank2.basis == (elems[1], elems[2])
    u, v = rank2.basis
    assert rank2.coordinates(a4.mul(u, v)) == modp.encode((1, 1), 2) == 3


@pytest.mark.parametrize("name", ORACLE_LIBRARY)
@pytest.mark.parametrize("p", [2, 3])
def test_counts_match_subset_scan(name, p):
    g = group(name)
    if g.order % p:
        pytest.skip("prime does not divide the order")
    subs = enumerate_elem_abelians(g, p)
    by_rank = {}
    for v in subs:
        by_rank[v.rank] = by_rank.get(v.rank, 0) + 1
    for rank in range(0, max(by_rank) + 1):
        expected = brute_elem_abelian_count(g, p, rank)
        if expected is None:
            continue  # scan over budget
        assert by_rank.get(rank, 0) == expected


def test_elements_not_in_subgroup_rejected():
    a4 = group("a4")
    v = enumerate_elem_abelians(a4, 2)[1]
    outside = next(g for g in a4.elements() if g not in v.elements)
    with pytest.raises(GroupError):
        v.coordinates(outside)


def test_morphism_refuses_a_matrix_of_the_wrong_shape():
    # a line into the Klein four of A_4 is a 2 x 1 matrix; a 1 x 1 or a
    # 3 x 1 matrix used to be accepted and then fail on its first call
    subs = enumerate_elem_abelians(group("a4"), 2)
    line, klein = subs[1], subs[4]
    for matrix, shape in [
        (((1,),), "1 x 1"), (((1,), (0,), (0,)), "3 x 1"), (((1, 0), (0,)), "2 x 1/2"),
        ((), "0 x 0"),
    ]:
        with pytest.raises(GroupError, match="shape %s, not .* = 2 x 1" % shape):
            LinearMorphism(line, klein, matrix)
    with pytest.raises(GroupError, match="shape 1 x 2, not .* = 2 x 2"):
        LinearMorphism(klein, klein, ((1, 0),))
    f = LinearMorphism(line, klein, ((1,), (0,)))
    assert f(line.basis[0]) == klein.basis[0]


def test_each_span_is_built_once_per_parent(monkeypatch):
    # every x in span(A, x) outside A builds the same span, so an x that
    # an earlier build from A reached is skipped: one span walk per span
    # tried from each A, where trying every x made 447, 194, 968 and 229
    calls = []
    real = FiniteGroup.times_powers
    monkeypatch.setattr(FiniteGroup, "times_powers", lambda *args: calls.append(1) or real(*args))
    counts = {}
    for name, p in [("c3wrc3", 3), ("x32", 2), ("s6", 2), ("a6", 3)]:
        calls.clear()
        enumerate_elem_abelians(group(name), p)
        counts[name, p] = len(calls)
    assert counts == {("c3wrc3", 3): 99, ("x32", 2): 121, ("s6", 2): 585, ("a6", 3): 78}


def test_injective_hom_counts():
    a4 = group("a4")
    subs = enumerate_elem_abelians(a4, 2)
    w, v = subs[1], subs[4]
    assert len(injective_homs(w, w)) == 1
    assert len(injective_homs(w, v)) == 3
    assert len(injective_homs(v, v)) == 6
    assert injective_homs(v, w) == []


def test_count_formula_against_enumeration():
    e8 = group("e8")
    subs = enumerate_elem_abelians(e8, 2)
    by_rank = {}
    for v in subs:
        by_rank.setdefault(v.rank, v)
    for r_w in range(0, 4):
        for r_v in range(0, 4):
            w, v = by_rank[r_w], by_rank[r_v]
            assert len(injective_homs(w, v)) == injective_hom_count(r_w, r_v, 2)
    # p = 3 up to rank 3, using the base of the wreath product
    c3wrc3 = group("c3wrc3")
    subs9 = enumerate_elem_abelians(c3wrc3, 3)
    by_rank9 = {}
    for v in subs9:
        by_rank9.setdefault(v.rank, v)
    assert max(by_rank9) == 3
    for r_w in range(0, 4):
        for r_v in range(0, 4):
            w, v = by_rank9[r_w], by_rank9[r_v]
            assert len(injective_homs(w, v)) == injective_hom_count(r_w, r_v, 3)


def test_span_enumeration_matches_rank_oracle():
    # the column walk over every vector per column is the rank oracle's list,
    # from the rows x 0 matrix ((),) * rows up to one column past rows, which
    # must list nothing without walking GL_rows(p) for a column that cannot
    # exist; a prefix test cuts exactly the matrices with a failing prefix
    # the walk takes and gives codes: columns are codes of F_p^rows, listed
    # in itertools.product order, and matrices are row codes
    def keep_columns(cols):
        return cols[-1][0] != cols[0][-1]

    def prefixes(m):
        columns = tuple(zip(*m))
        return [columns[:j] for j in range(1, len(columns) + 1)]

    for p in (2, 3, 5):
        for rows in range(6):
            space = modp.VectorSpace(p, rows)

            def keep(cols):
                return keep_columns([modp.decode(c, rows, p) for c in cols])

            for cols in range(rows + 2):
                if injective_hom_count(cols, rows, p) > 20_000:
                    continue
                choices = [range(p ** rows)] * cols
                oracle = list(rank_injective_matrices(rows, cols, p))
                walk = modp.full_rank_matrices(space, rows, choices)
                assert [modp.decode_matrix(m, cols, p) for m in walk] == oracle, (rows, cols, p)
                cut = [m for m in oracle if all(map(keep_columns, prefixes(m)))]
                walk = modp.full_rank_matrices(space, rows, choices, keep)
                assert [modp.decode_matrix(m, cols, p) for m in walk] == cut
    space = modp.VectorSpace(2, 3)
    assert list(modp.full_rank_matrices(space, 3, [])) == [(0,) * 3]
    assert list(modp.full_rank_matrices(space, 0, [])) == [()]
    assert list(modp.full_rank_matrices(space, 1, [[0, 1]] * 2)) == []


def test_morphism_application_and_composition():
    a4 = group("a4")
    subs = enumerate_elem_abelians(a4, 2)
    w, v = subs[1], subs[4]
    ident = identity_morphism(v)
    for g in v.elements:
        assert ident(g) == g
    for f in injective_homs(w, v):
        # the induced map respects multiplication
        for a in w.elements:
            for b in w.elements:
                assert f(a4.mul(a, b)) == a4.mul(f(a), f(b))
        back = compose(ident, f)
        assert back.matrix == f.matrix


def _assert_matches_reference(g, p):
    subs = enumerate_elem_abelians(g, p)
    reference = extend_and_dedupe_elem_abelians(g, p)
    assert [v.sorted_elements() for v in subs] == [r.elements for r in reference]
    for v, r in zip(subs, reference):
        assert v.basis == r.basis
        assert v.rank == len(r.basis)
        # the oracle's tables are keyed by coordinate tuples, the library's
        # by their codes, which list the tuples in the same order
        assert [v.element_at(k) for k in range(p ** v.rank)] == list(r.by_coords.values())
        assert list(v._coords.items()) == [(g, modp.encode(c, p)) for g, c in r.coords.items()]
        assert list(r.by_coords) == list(itertools.product(range(p), repeat=v.rank))


@pytest.mark.parametrize("name", builtin_names() + list(STRETCH))
def test_enumeration_matches_extend_and_dedupe_oracle(name):
    g = stretch_group(name) if name in STRETCH else group(name)
    for p in (d for d in range(2, g.order + 1) if g.order % d == 0):
        if all(p % d for d in range(2, p)):
            _assert_matches_reference(g, p)


@settings(max_examples=40, deadline=None)
@given(small_permutation_groups())
def test_enumeration_matches_extend_and_dedupe_oracle_on_random_groups(g):
    for p in (2, 3):
        _assert_matches_reference(g, p)


def test_subgroups_come_only_from_the_enumerator():
    # no constructor takes an element set; a subgroup named by its elements
    # is looked up in the enumeration, where no other set appears
    s3, c4, d8 = group("s3"), group("c4"), group("d8")
    with pytest.raises(TypeError):
        ElemAbelian(d8, 2, {0})
    u, v = (s3.labels.index(x) for x in ("(0 1)", "(1 2)"))
    a, b = (d8.labels.index(x) for x in ("(1 3)", "(0 1)(2 3)"))
    for g, p, elements in (
        (s3, 2, {0, u, v}),                # not closed: u*v is missing
        (c4, 2, set(c4.elements())),       # its generator has order 4
        (s3, 2, {0, u, v, s3.mul(u, v)}),  # the involutions do not commute
        (d8, 2, {0, a, b, d8.mul(a, b)}),  # the span of its least basis, not abelian
    ):
        assert all(w.elements != elements for w in enumerate_elem_abelians(g, p))
    c, d = (d8.labels.index(x) for x in ("(1 3)", "(0 2)"))
    klein = {0, c, d, d8.mul(c, d)}
    (found,) = [w for w in enumerate_elem_abelians(d8, 2) if w.elements == klein]
    assert c < d8.mul(c, d) < d  # so the least basis is (c, cd)
    assert found.basis == (c, d8.mul(c, d))
