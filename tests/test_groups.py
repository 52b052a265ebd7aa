from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chromcat import (
    FiniteGroup,
    GroupError,
    builtin_names,
    cycle_string,
    enumerate_elem_abelians,
    group_from_permutations,
    groups,
    load_builtin,
)
from chromcat.groups import greedy_generators
from chromcat.library import LIBRARY_DIR
from chromcat.modp import is_prime
from conftest import STRETCH, group, small_permutation_groups, stretch_group
from oracles import (
    abelian_all_pairs,
    brute_simultaneous_conjugacy,
    canonical_tuple_class,
    centralizer,
    class_count_by_all_conjugators,
    conjugate,
    element_order_by_powers,
    exponent_by_powers,
    naive_cayley_table,
    naive_closure,
    product_span,
    span_by_powers,
)


def test_closure_orders():
    assert group_from_permutations(4, [(1, 2, 0, 3), (1, 0, 3, 2)]).order == 12
    assert group_from_permutations(3, [(1, 2, 0), (1, 0, 2)]).order == 6
    assert group_from_permutations(1, []).order == 1


def test_non_bijective_generator_rejected():
    with pytest.raises(GroupError, match=r"^generator \(0, 0, 1\) is not a bijection on 0\.\.2$"):
        group_from_permutations(3, [(0, 0, 1)])
    with pytest.raises(GroupError, match="^degree must be positive$"):
        group_from_permutations(0, [])


def test_order_cap():
    with pytest.raises(GroupError, match="^closure exceeds order cap 50$"):
        group_from_permutations(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], order_cap=50)


def test_a_table_enters_as_its_rows():
    # no constructor takes a table; its rows are the left-regular
    # permutations b -> a * b, which close to the same group (Cayley)
    s3 = group("s3")
    for args in [(), (s3.table,)]:
        with pytest.raises(TypeError, match="built by group_from_permutations"):
            FiniteGroup(*args)
    regular = group_from_permutations(s3.order, s3.table)
    assert regular.order == 6
    assert not regular.is_abelian()
    assert regular.conjugacy_class_count() == 3


def test_identity_first_and_labels():
    a4 = group("a4")
    assert a4.labels[0] == "()"
    assert "(0 1)(2 3)" in a4.labels


def test_loading_writes_no_labels(monkeypatch):
    # labels are formed on first read, and loading reads none
    calls = []

    def counting(perm):
        calls.append(perm)
        return cycle_string(perm)

    monkeypatch.setattr(groups, "cycle_string", counting)
    for name in builtin_names():
        load_builtin(name)
    assert calls == []
    a4 = load_builtin("a4")
    assert a4.labels[0] == "()"
    a4.labels
    assert len(calls) == a4.order


@pytest.mark.parametrize("name", builtin_names())
def test_labels_are_cycle_notation_of_the_closure(name):
    doc = json.loads((LIBRARY_DIR / (name + ".json")).read_text())
    closure = naive_closure(doc["degree"], doc["generators"])
    assert group(name).labels == tuple(cycle_string(e) for e in closure)


def test_cycle_string():
    assert cycle_string((0, 1, 2)) == "()"
    assert cycle_string((1, 2, 0)) == "(0 1 2)"
    assert cycle_string((1, 0, 3, 2)) == "(0 1)(2 3)"


@pytest.mark.parametrize("name", builtin_names())
def test_closure_table_matches_all_pairs_composition(name):
    doc = json.loads((LIBRARY_DIR / (name + ".json")).read_text())
    orders = [doc["generators"]]
    if name in ("s5", "x32"):
        orders.append(doc["generators"][::-1])
    for gens in orders:
        g = group_from_permutations(doc["degree"], gens)
        assert g.table == naive_cayley_table(doc["degree"], gens)
        _assert_inverses(g)


def _assert_inverses(g):
    # the inverse read off each row is two-sided
    t = g.table
    for a, row in enumerate(t):
        assert row.count(0) == 1 and t[row.index(0)][a] == 0, a


def _stretch_doc(name):
    return json.loads((Path(__file__).parent / "golden" / "groups" / (name + ".json")).read_text())


def test_closure_table_matches_all_pairs_composition_on_agl116():
    doc = _stretch_doc("agl116")
    g = stretch_group("agl116")
    assert g.order == 240
    assert g.table == naive_cayley_table(doc["degree"], doc["generators"])
    _assert_inverses(g)


@pytest.mark.parametrize("name, order", [("agl32", 1344), ("f33h", 1944)])
def test_closure_table_matches_composition_by_generators_and_sampled_pairs(name, order):
    # every product by a generator, on either side, and 20,000 seeded pairs
    doc = _stretch_doc(name)
    elements = naive_closure(doc["degree"], doc["generators"])
    index = {e: k for k, e in enumerate(elements)}
    g = stretch_group(name)
    assert g.order == len(elements) == order
    gens = [index[tuple(s)] for s in doc["generators"]]
    rng = random.Random(30)
    pairs = [pair for a in g.elements() for s in gens for pair in ((a, s), (s, a))]
    pairs += [(rng.randrange(order), rng.randrange(order)) for _ in range(20000)]
    for a, b in pairs:
        assert g.table[a][b] == index[tuple(elements[a][i] for i in elements[b])], (a, b)
    _assert_inverses(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_table_matches_all_pairs_composition_on_random_groups(data):
    # the draw of conftest.small_permutation_groups, keeping the generators
    degree = data.draw(st.integers(1, 6))
    gens = data.draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    try:
        g = group_from_permutations(degree, gens, order_cap=120)
    except GroupError:
        assume(False)
    assert g.table == naive_cayley_table(degree, gens)
    _assert_inverses(g)


def test_conjugate_convention():
    a4 = group("a4")
    u = a4.labels.index("(0 1)(2 3)")
    r = a4.labels.index("(0 1 2)")
    # h g h^-1 computed against the permutation model
    assert a4.labels[conjugate(a4, u, r)] == "(0 3)(1 2)"
    assert conjugate(a4, u, 0) == u
    assert conjugate(a4, 0, r) == 0


@pytest.mark.parametrize("name", builtin_names())
def test_conjugate_tuple_matches_conjugate(name):
    # the scan conjugates tuples through the generators' conjugation maps
    g = group(name)
    assert len(g.conjugation_maps) == len(g.generators)
    for h, conjugation in zip(g.generators, g.conjugation_maps):
        assert conjugation == tuple(conjugate(g, x, h) for x in g.elements()), h


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generators_drop_the_identity_and_repeats(data):
    degree = data.draw(st.integers(1, 6))
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=4))
    gens += data.draw(st.lists(st.sampled_from(gens + [list(range(degree))]), max_size=3))
    try:
        g = group_from_permutations(degree, gens, order_cap=120)
    except GroupError:
        assume(False)
    distinct = []
    for perm in map(tuple, gens):
        if perm != tuple(range(degree)) and perm not in distinct:
            distinct.append(perm)
    assert [g.labels[k] for k in g.generators] == [cycle_string(perm) for perm in distinct]
    assert product_span(g, g.generators) == set(g.elements())


def test_element_order_and_centralizer():
    a4 = group("a4")
    u = a4.labels.index("(0 1)(2 3)")
    assert element_order_by_powers(a4, 0) == 1
    assert element_order_by_powers(a4, u) == 2
    assert len(centralizer(a4, (u,))) == 4
    assert len(centralizer(a4, (0,))) == a4.order


def test_simultaneous_conjugacy_a4():
    a4 = group("a4")
    u = a4.labels.index("(0 1)(2 3)")
    v = a4.labels.index("(0 2)(1 3)")
    assert a4.simultaneous_conjugacy((u,), (v,)) is not None
    # the pair swap has no witness: conjugation 3-cycles the involutions
    assert a4.simultaneous_conjugacy((u, v), (v, u)) is None
    assert a4.simultaneous_conjugacy((u, v), (u, v)) is not None
    assert a4.simultaneous_conjugacy((), ()) == 0


@pytest.mark.parametrize("name", ["s3", "d8", "q8", "a4", "sd16", "s4", "h27", "x32", "a5"])
def test_pruned_matches_brute(name):
    g = group(name)
    rng = random.Random(7)
    tuples = [
        tuple(rng.randrange(g.order) for _ in range(k))
        for k in (1, 2, 3)
        for _ in range(40)
    ]
    for a in tuples:
        b = tuple(conjugate(g, x, rng.randrange(g.order)) for x in a)
        shuffled = tuple(reversed(b))
        for target in (b, shuffled):
            assert g.simultaneous_conjugacy(a, target) == brute_simultaneous_conjugacy(
                g, a, target
            )


@pytest.mark.parametrize("name", ["c2", "k4", "s3", "q8", "d8", "a4", "s4"])
def test_witness_inverse_and_transitivity_exhaustive(name):
    g = group(name)
    tuples = [(x,) for x in g.elements()] + list(
        itertools.product(g.elements(), repeat=2)
    )
    canon = {t: canonical_tuple_class(g, t) for t in tuples}
    to_rep = {}
    for t in tuples:
        w = g.simultaneous_conjugacy(canon[t], t)
        assert w is not None  # same class must always produce a witness
        to_rep[t] = w
    for a in tuples:
        for b in tuples:
            if len(a) != len(b) or canon[a] != canon[b]:
                continue
            # compose witnesses through the canonical representative
            w = g.mul(to_rep[b], g.table[to_rep[a]].index(0))
            assert all(conjugate(g, x, w) == y for x, y in zip(a, b))
            # and the inverse witness, read off w's row, goes back
            winv = g.table[w].index(0)
            assert all(conjugate(g, y, winv) == x for x, y in zip(a, b))
    # cross-class pairs have no witness
    rng = random.Random(3)
    sample = rng.sample(tuples, min(len(tuples), 30))
    for a in sample:
        for b in sample:
            if len(a) == len(b) and canon[a] != canon[b]:
                assert g.simultaneous_conjugacy(a, b) is None


def _group_and_primes(name):
    g = stretch_group(name) if name in STRETCH else group(name)
    primes = [p for p in range(2, g.order + 1) if g.order % p == 0 and is_prime(p)]
    return g, primes


@pytest.mark.parametrize("name", builtin_names() + list(STRETCH))
def test_elements_of_order_match_orders_by_powers(name):
    g, primes = _group_and_primes(name)
    for p in primes:
        assert g.elements_of_order(p) == [
            x for x in g.elements() if element_order_by_powers(g, x) == p
        ], p


@pytest.mark.parametrize("name", builtin_names() + list(STRETCH))
def test_commuting_filter_matches_centralizers(name):
    # each order-p x against every element, listed in a seeded shuffle
    g, primes = _group_and_primes(name)
    candidates = list(g.elements())
    random.Random(42).shuffle(candidates)
    for p in primes:
        for x in g.elements_of_order(p):
            commuting = set(centralizer(g, (x,)))
            assert g.commuting_with(x, candidates) == [
                y for y in candidates if y in commuting
            ], (p, x)


@pytest.mark.parametrize("name", builtin_names() + list(STRETCH))
def test_span_walk_lists_each_span_in_code_order(name):
    # span(A, e) from A's code order, for A the span of all but the last
    # basis element of each enumerated subgroup
    g, primes = _group_and_primes(name)
    for p in primes:
        for v in enumerate_elem_abelians(g, p)[1:]:
            walked = g.times_powers(span_by_powers(g, p, v.basis[:-1]), v.basis[-1], p)
            assert walked == span_by_powers(g, p, v.basis), (p, v.basis)
            assert walked == [v.element_at(k) for k in range(p ** v.rank)]


def test_exponent_center():
    q8 = group("q8")
    assert q8.exponent() == 4
    assert len(q8.center()) == 2
    assert q8.conjugacy_class_count() == 5
    x32 = group("x32")
    assert x32.order == 32
    assert len(x32.center()) == 2
    assert sum(1 for g in x32.elements() if element_order_by_powers(x32, g) == 2) == 19


def _check_group_routines(g):
    # the shared routines against the slow oracles: exponent and abelian test
    # over every element, and each greedy generator the least element
    # outside the products of the ones before it
    assert g.exponent() == exponent_by_powers(g)
    assert g.is_abelian() == abelian_all_pairs(g)
    gens = greedy_generators(g.elements(), 0, g.mul)
    for j, s in enumerate(gens):
        span = product_span(g, gens[:j])
        assert s == min(x for x in g.elements() if x not in span)
    assert product_span(g, gens) == set(g.elements())


@pytest.mark.parametrize("name", builtin_names())
def test_group_routines_match_oracles(name):
    _check_group_routines(group(name))


@settings(max_examples=40, deadline=None)
@given(small_permutation_groups())
def test_group_routines_match_oracles_on_random_groups(g):
    _check_group_routines(g)


@pytest.mark.parametrize("name", builtin_names() + ["agl116", "agl32", "f33h"])
def test_class_count_and_abelian_test_match_oracles(name):
    # both read G's generators; the oracles conjugate by and multiply with
    # every element
    g = stretch_group(name) if name in ("agl116", "agl32", "f33h") else group(name)
    assert g.conjugacy_class_count() == class_count_by_all_conjugators(g)
    assert g.is_abelian() == abelian_all_pairs(g)
