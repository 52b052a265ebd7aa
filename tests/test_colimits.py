from __future__ import annotations

import pytest

from chromcat import (
    builtin_names,
    colim_points,
    component_count,
    enumerate_elem_abelians,
    filtration_tower,
    group_from_permutations,
    p_rank,
    quillen_category,
)
from chromcat.colimits import FqError, q_to_pm
from chromcat import modp
from chromcat.modp import VectorSpace
from capture_cli_golden import _primes_dividing
from conftest import LEVEL_JOIN_GENERATORS, SMALL_LIBRARY, category, group
from oracles import (
    colim_classes,
    colim_dict,
    colim_size_naive,
    fq_points,
    tower_dict,
    union_find_colim,
    union_find_tower,
)


def test_q_must_be_power_of_p():
    with pytest.raises(FqError):
        q_to_pm(6, 2)
    with pytest.raises(FqError):
        q_to_pm(9, 2)


def test_fq_point_counts():
    subs = enumerate_elem_abelians(group("a4"), 2)
    assert len(fq_points(subs[0], 2)) == 1
    assert len(fq_points(subs[1], 2)) == 2
    assert len(fq_points(subs[4], 4)) == 16


def test_a4_colim_counts():
    q_cat = category("a4", 2, None)
    c1 = category("a4", 2, 1)
    assert colim_points(q_cat, 4).size == 6
    assert colim_points(c1, 4).size == 5
    assert colim_points(q_cat, 2).size == 2
    assert colim_points(c1, 2).size == 2
    assert colim_points(category("c1", 2, None), 2).size == 1
    # at q = 32: 1 + 31 + 31*30/3 and 1 + 31 + 31*30/6
    assert filtration_tower(group("a4"), 2, 32).sizes() == [342, 187]


@pytest.mark.parametrize("name,p,q", [
    ("a4", 2, 4), ("a4", 2, 2), ("d8", 2, 2), ("d8", 2, 4),
    ("s3", 3, 3), ("e9", 3, 9), ("q8", 2, 4),
])
def test_union_find_matches_naive_closure(name, p, q):
    for level in (1, None):
        cat = category(name, p, level)
        assert colim_points(cat, q).size == colim_size_naive(cat, q)


def test_tower_a4():
    tower = filtration_tower(group("a4"), 2, 4)
    assert [n for n, _ in tower.levels] == [2, 1]
    assert tower.sizes() == [6, 5]
    assert len(tower.surjections) == 1
    mapping = tower.surjections[0]
    assert set(mapping) == set(range(5))  # surjective onto level-1 classes
    assert filtration_tower(group("a4"), 2, 2).sizes() == [2, 2]


def test_tower_top_matches_quillen():
    for name, p, q in [("a4", 2, 4), ("d8", 2, 4), ("s4", 2, 4), ("e9", 3, 3)]:
        tower = filtration_tower(group(name), p, q)
        top = tower.levels[0][1].size
        assert top == colim_points(quillen_category(group(name), p), q).size


def test_tower_rank_one_group():
    tower = filtration_tower(group("q8"), 2, 4)
    assert len(tower.levels) == 1
    assert tower.surjections == []


def test_monotone_in_level():
    for name, p, q in [("a4", 2, 4), ("s4", 2, 4), ("x32", 2, 4)]:
        sizes = filtration_tower(group(name), p, q).sizes()
        assert sizes == sorted(sizes, reverse=True)


def test_component_counts():
    assert component_count(category("a4", 2, None)) == 1
    assert component_count(category("a4", 2, 1)) == 1
    assert component_count(category("k4", 2, None)) == 1
    # D8 has two non-conjugate Klein four subgroups
    assert component_count(category("d8", 2, None)) == 2
    # A5's five Klein fours are all conjugate: one class of maximal objects
    assert component_count(category("a5", 2, None)) == 1
    assert component_count(category("s4", 2, None)) == 2
    # at level 0 the rank-2 subgroups of C3 wr C3 not in the rank-3 base
    # are isomorphic to those in it, so they are not maximal: only the base
    # counts
    assert component_count(category("c3wrc3", 3, 0)) == 1


def _oracle_cases():
    """(group, p, q) for every bundled group of order <= 64 and p in {2, 3}
    dividing its order, at q = p, p^2 and p^3 (x32 up to p^2), and a few
    fields past p^3."""
    for name in SMALL_LIBRARY:
        for p in (2, 3):
            if group(name).order % p:
                continue
            for e in (1, 2) if name == "x32" else (1, 2, 3):
                yield name, p, p ** e
    yield from [("a4", 2, 32), ("d8", 2, 32), ("s3", 3, 81), ("a5", 5, 125)]


@pytest.mark.parametrize("name,p,q", list(_oracle_cases()))
def test_closed_form_matches_union_find(name, p, q):
    g = group(name)
    for level in list(range(p_rank(g, p) + 1)) + [None]:
        cat = category(name, p, level)
        assert colim_dict(colim_points(cat, q)) == colim_dict(union_find_colim(cat, q)), level
    assert tower_dict(filtration_tower(g, p, q)) == tower_dict(union_find_tower(g, p, q))


def test_class_counts_follow_the_closed_form():
    # each isomorphism class [U] of rank r contributes prod (q - p^i) / |Aut U|;
    # in the Quillen category of A_4 the three lines are conjugate and the
    # Klein four group has Aut = C_3
    res = colim_points(category("a4", 2, None), 16)
    assert res.size == 1 + 15 // 1 + (15 * 14) // 3
    assert sum(c["size"] for c in colim_classes(res)) == sum(res.object_counts) == 1 + 3 * 16 + 256


def _count_field_work(monkeypatch, q) -> dict:
    """Count full-support points walked, ``apply`` calls and fields F_q
    built, told by their size q from the Fusion's F_p^rank, whose tables
    multiply matrices; in the cases pinned below the two sizes differ."""
    counts = {"points": 0, "applies": 0, "fields": 0}
    walk, apply, init = (
        VectorSpace.independent_tuples, VectorSpace.apply, VectorSpace.__init__
    )

    def counting_walk(self, r):
        for pt in walk(self, r):
            counts["points"] += 1
            yield pt

    def counting_apply(self, matrix, pt):
        counts["applies"] += 1
        return apply(self, matrix, pt)

    def counting_init(self, p, m):
        counts["fields"] += p ** m == q
        init(self, p, m)

    monkeypatch.setattr(VectorSpace, "independent_tuples", counting_walk)
    monkeypatch.setattr(VectorSpace, "apply", counting_apply)
    monkeypatch.setattr(VectorSpace, "__init__", counting_init)
    return counts


@pytest.mark.parametrize("name,p,q,expected", [
    # e8: every Aut is trivial, so one walk per rank, no matrix applied and
    # the maps are ranges
    ("e8", 2, 16, {"points": 15 * 14 * 12 + 15 * 14 + 15 + 1, "applies": 0, "fields": 1}),
    # h27: both levels share one walk per rank; each orbit's lead is given
    # its id and the other Aut elements are applied to it
    ("h27", 3, 27, {"points": 26 * 24 + 26 + 1, "applies": 416, "fields": 1}),
    ("e9", 3, 27, {"points": 26 * 24 + 26 + 1, "applies": 0, "fields": 1}),
    ("a5", 2, 16, {"applies": 315, "fields": 1}),
])
def test_tower_walks_each_aut_once(monkeypatch, name, p, q, expected):
    counts = _count_field_work(monkeypatch, q)
    for _ in range(2):
        # a second request repeats the work: nothing outlives a call
        for key in counts:
            counts[key] = 0
        filtration_tower(group(name), p, q)
        assert {key: counts[key] for key in expected} == expected


def test_no_walk_or_map_applies_the_identity(monkeypatch):
    # an orbit's lead takes its id without an apply, and a tower maps the
    # points of a class joined through the identity matrix as they are
    applied = []
    apply = VectorSpace.apply

    def recording(self, matrix, pt):
        applied.append((matrix, self.p))
        return apply(self, matrix, pt)

    monkeypatch.setattr(VectorSpace, "apply", recording)
    for name in builtin_names():
        g = group(name)
        for p in _primes_dividing(g.order):
            filtration_tower(g, p, p * p)
            colim_points(category(name, p, 0), p * p)
    assert applied and all(m != modp.identity_code(len(m), p) for m, p in applied)


@pytest.mark.parametrize("name,p,q", [
    ("level-join", 2, 4), ("level-join", 2, 8), ("a6", 2, 4), ("s6", 2, 4),
])
def test_tower_maps_by_class_match_union_find(name, p, q):
    # each of these towers has a class whose least member R is joined, one
    # level down, to a class with a smaller least member
    g = (
        group_from_permutations(8, LEVEL_JOIN_GENERATORS)
        if name == "level-join" else group(name)
    )
    tower = filtration_tower(g, p, q)
    assert any(
        lo._to_least[r][0] != r
        for (_, hi), (_, lo) in zip(tower.levels, tower.levels[1:])
        for r in hi._walks
    )
    assert tower_dict(tower) == tower_dict(union_find_tower(g, p, q))


@pytest.mark.parametrize("name", ["s6", "a6"])
def test_tower_inverts_each_joined_lead_once(monkeypatch, name):
    # a colimit stores each transport t_U as it is; only the tower inverts,
    # once for each level-(n+1) lead joined to a smaller level-n lead
    cats = [category(name, 2, n) for n in (None, 0, 1, 2)]
    inverted = []
    real = modp.VectorSpace.inverse

    def counting(space, m):
        inverted.append(m)
        return real(space, m)

    monkeypatch.setattr(modp.VectorSpace, "inverse", counting)
    for cat in cats:
        colim_points(cat, 4)
    assert inverted == []
    tower = filtration_tower(group(name), 2, 4)
    joined = [
        r for (_, hi), (_, lo) in zip(tower.levels, tower.levels[1:])
        for r in hi._walks if lo._to_least[r][0] != r
    ]
    assert len(inverted) == len(joined) > 0
