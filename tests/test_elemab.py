from __future__ import annotations

import itertools

import pytest

from chromcat import (
    GroupError,
    enumerate_elem_abelians,
    identity_morphism,
    injective_hom_count,
    injective_homs,
    modp,
    p_rank,
)
from conftest import ORACLE_LIBRARY, group
from oracles import brute_elem_abelian_count, rank_injective_matrices


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
            # coordinates round-trip
            for coords in itertools.product(range(2), repeat=v.rank):
                assert v.coordinates(v.element_at(coords)) == coords
            assert v.coordinates(0) == (0,) * v.rank


def test_least_basis_choice():
    a4 = group("a4")
    rank2 = enumerate_elem_abelians(a4, 2)[-1]
    elems = sorted(rank2.elements)
    # basis is the greedy lexicographically least one
    assert rank2.basis == (elems[1], elems[2])
    u, v = rank2.basis
    assert rank2.coordinates(a4.mul(u, v)) == (1, 1)


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
    for p in (2, 3):
        for rows in range(6):
            for cols in range(rows + 2):
                if injective_hom_count(cols, rows, p) > 20_000:
                    continue
                assert list(modp.enumerate_injective_matrices(rows, cols, p)) == list(
                    rank_injective_matrices(rows, cols, p)
                ), (rows, cols, p)


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
        back = ident.compose(f)
        assert back.matrix == f.matrix
