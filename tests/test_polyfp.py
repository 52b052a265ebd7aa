from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromcat import (
    CycRing,
    Fusion,
    LinearAction,
    PolyFp,
    UnsupportedGroupError,
    builtin_names,
    invariant_bases,
    invariant_basis,
    load_builtin,
    modp,
    parse_poly,
    subring_membership,
    weyl_action,
)
from chromcat.hopf import RingElt
from chromcat.modp import mat_mul, mat_rank
from chromcat.polyfp import _monomials_of_degree, graded_piece, sum_of_products
from oracles import (
    graded_piece_by_powers,
    linear_substitution,
    matrix_group_elements,
    naive_truncated_composition,
    naive_truncated_power,
    naive_truncated_product,
    render_by_items,
    substitute_invariant_basis,
)

C3 = LinearAction(2, [((0, 1), (1, 1))])  # x -> y -> x+y
SWAP = ((0, 1), (1, 0))

X = PolyFp.variable(2, 2, 0)
Y = PolyFp.variable(2, 2, 1)
D1 = X * X + X * Y + Y * Y
D0 = X * X * Y + X * Y * Y
ETA = X ** 3 + X * X * Y + Y ** 3


def random_polys(p, nvars, max_degree=4):
    mons = [
        e
        for d in range(max_degree + 1)
        for e in _monomials_of_degree(nvars, d)
    ]
    return st.builds(
        lambda cs: PolyFp(p, nvars, dict(zip(mons, cs))),
        st.lists(
            st.integers(min_value=0, max_value=p - 1),
            min_size=len(mons),
            max_size=len(mons),
        ),
    )


@settings(max_examples=150, deadline=None)
@given(random_polys(2, 2), random_polys(2, 2), random_polys(2, 2))
def test_ring_axioms_f2(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_ring_axioms_bulk_random():
    # a seeded thousand-triple sweep on top of the shrinking hypothesis run
    import random

    rng = random.Random(11)
    mons = [e for d in range(4) for e in _monomials_of_degree(2, d)]

    def rand_poly(p):
        return PolyFp(p, 2, {m: rng.randrange(p) for m in mons})

    for p in (2, 3):
        for _ in range(500):
            f, g, h = rand_poly(p), rand_poly(p), rand_poly(p)
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f


@settings(max_examples=60, deadline=None)
@given(random_polys(3, 2, max_degree=3), random_polys(3, 2, max_degree=3))
def test_substitution_is_ring_hom(f, g):
    m = ((1, 2), (1, 1))  # invertible over F_3
    assert (f + g).substitute_linear(m) == f.substitute_linear(m) + g.substitute_linear(m)
    assert (f * g).substitute_linear(m) == f.substitute_linear(m) * g.substitute_linear(m)


def test_frobenius_and_substitution_examples():
    assert (X + Y) ** 2 == X ** 2 + Y ** 2
    assert X.substitute_linear(((1, 0), (0, 1))) == X
    m = ((0, 1), (1, 1))
    assert (X * X * Y).substitute_linear(m) == parse_poly("x*y^2 + y^3", 2, 2)


def test_invariant_bases():
    assert invariant_basis(C3, 2) == [D1]
    assert invariant_basis(C3, 1) == []
    deg3 = invariant_basis(C3, 3)
    assert len(deg3) == 2
    span_checks = [D0, ETA]
    for f in span_checks:
        # f lies in the span of the computed basis
        combos = [
            sum(rest, PolyFp.zero(2, 2))
            for k in range(len(deg3) + 1)
            for rest in itertools.combinations(deg3, k)
        ]
        assert any(f == c for c in combos)
    for f in deg3:
        for m in C3.generators:
            assert f.substitute_linear(m) == f


# GL(3, 2): a transvection and the coordinate 3-cycle
GL32 = LinearAction(2, [
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
])


def _check_against_oracle(action, degrees, matrices=None):
    bases = invariant_bases(action, degrees)
    assert list(bases) == sorted(set(degrees))
    for d, basis in bases.items():
        assert basis == substitute_invariant_basis(action, d, matrices), d
        assert invariant_basis(action, d) == basis, d


def test_gl32_invariant_bases_match_substitution_oracle():
    assert len(matrix_group_elements(GL32)) == 168
    _check_against_oracle(GL32, range(15))
    # the Dickson invariants of degrees 4, 6 and 7 are the first ones
    dims = [len(b) for b in invariant_bases(GL32, range(8)).values()]
    assert dims == [1, 0, 0, 0, 1, 0, 1, 1]


def _weyl_actions():
    for name in builtin_names():
        group = load_builtin(name)
        for p in (2, 3, 5):
            if group.order % p:
                continue
            try:
                action = weyl_action(Fusion(group, p))
            except UnsupportedGroupError:
                continue
            yield "%s-p%d" % (name, p), action


def test_weyl_invariant_bases_match_substitution_oracle():
    # the Weyl actions hold generators only; the oracle fixes every element
    # of the group they list
    seen = []
    for label, action in _weyl_actions():
        seen.append(label)
        _check_against_oracle(action, range(9), sorted(matrix_group_elements(action)))
    # every group of the library whose Sylow subgroup is elementary abelian
    assert "a6-p3" in seen and "s6-p3" in seen and "e8-p2" in seen
    assert len(seen) == 21


def test_degrees_empty_unsorted_or_repeated():
    assert invariant_bases(C3, []) == {}
    assert invariant_bases(C3, iter(())) == {}
    bases = invariant_bases(C3, [3, 1, 3, 0, 2])
    assert list(bases) == [0, 1, 2, 3]
    assert bases[2] == [D1] and bases[1] == []
    assert bases[0] == [PolyFp.constant(2, 2, 1)]
    for d in range(4):
        assert bases[d] == invariant_basis(C3, d)
    # a negative degree has no forms
    assert invariant_bases(C3, [-1, 2]) == {-1: [], 2: [D1]}
    assert invariant_basis(C3, -1) == []


def test_degrees_must_be_ints():
    # a float is no degree, even a whole one, and a bool is not taken as 0 or 1
    for bad in (2.0, True, False, "2", None):
        with pytest.raises(ValueError, match="degree %r is not an integer" % (bad,)):
            invariant_bases(C3, [1, bad])
        with pytest.raises(ValueError, match="is not an integer"):
            invariant_basis(C3, bad)


def test_one_elimination_per_wanted_degree(monkeypatch):
    # names stand in for monomial lists, and each distinct wanted degree
    # is one forward elimination of its rows: 1, 10, 21 and 36 monomials
    # of degree 0, 3, 5 and 7 in three variables
    want = invariant_bases(GL32, range(8))
    calls, eliminations = [], []
    relations, echelon = modp.relations, modp._echelon

    def counted_relations(rows, p, width, labels):
        calls.append(len(labels))
        return relations(rows, p, width, labels)

    def counted_echelon(*args):
        eliminations.append(args[1])
        return echelon(*args)

    def refuse(*args):
        raise AssertionError("a monomial list was built")

    monkeypatch.setattr("chromcat.polyfp._monomials_of_degree", refuse)
    monkeypatch.setattr(modp, "relations", counted_relations)
    monkeypatch.setattr(modp, "_echelon", counted_echelon)
    bases = invariant_bases(GL32, [7, 3, -2, 7, 0, 5])
    assert calls == [1, 10, 21, 36]
    assert eliminations == [2] * 4
    assert bases == {-2: [], **{d: want[d] for d in (0, 3, 5, 7)}}


@st.composite
def invertible_actions(draw):
    """p in {2, 3, 5, 7}, 0 to 4 variables and 1 to 3 generators, each
    P . L . U: a permutation, a unit lower and an invertible upper
    triangular matrix, so that every draw is invertible."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(min_value=0, max_value=4))
    entry, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        perm = draw(st.permutations(range(n)))
        factors = [
            tuple(tuple(int(perm[i] == j) for j in range(n)) for i in range(n)),
            tuple(
                tuple(1 if i == j else draw(entry) if i > j else 0 for j in range(n))
                for i in range(n)
            ),
            tuple(
                tuple(draw(unit) if i == j else draw(entry) if i < j else 0 for j in range(n))
                for i in range(n)
            ),
        ]
        gens.append(mat_mul(mat_mul(factors[0], factors[1], p), factors[2], p))
    return LinearAction(p, gens)


@settings(max_examples=40, deadline=None)
@given(invertible_actions(), st.lists(st.integers(min_value=-3, max_value=8), max_size=5))
def test_invariant_bases_match_oracle_on_any_degree_set(action, degrees):
    # unsorted, repeated and negative degrees, one call against the
    # substitution oracle and against one call per degree
    _check_against_oracle(action, degrees)


def _assert_stored_clean(poly):
    """Every stored coefficient is nonzero and reduced, keyed by an nvars-tuple
    inside the polynomial's truncations."""
    for e, c in poly.coeffs.items():
        assert type(e) is tuple and len(e) == poly.nvars, e
        assert c != 0, e
        if poly.p is not None:
            assert 0 < c < poly.p, (e, c)
        if poly.bound is not None:
            assert sum(e) <= poly.bound, e
        if poly.cap is not None:
            assert max(e, default=0) < poly.cap, e


@st.composite
def matrix_groups(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(min_value=1, max_value=3 if p == 2 else 2))
    entry = st.integers(min_value=-p, max_value=2 * p)
    square = st.tuples(*[st.tuples(*[entry] * n)] * n)
    invertible = square.filter(lambda m: mat_rank(m, p) == n)
    gens = draw(st.lists(invertible, min_size=1, max_size=3))
    return LinearAction(p, gens)


@settings(max_examples=40, deadline=None)
@given(
    matrix_groups(),
    st.lists(st.integers(min_value=0, max_value=6), max_size=5),
)
def test_random_matrix_groups_match_substitution_oracle(action, degrees):
    _check_against_oracle(action, degrees)
    for d, basis in invariant_bases(action, degrees).items():
        for f in basis:
            assert all(f.substitute_linear(g) == f for g in action.generators), d
            _assert_stored_clean(f)


def test_linear_action_refuses_what_is_not_a_matrix_group():
    # a singular matrix "closes" to a semigroup of 3 elements over F_2
    with pytest.raises(ValueError, match="singular"):
        LinearAction(2, [((1, 1), (1, 1))])
    # invertible over Z, singular mod p
    with pytest.raises(ValueError, match="singular"):
        LinearAction(3, [((3, 0), (0, 1))])
    with pytest.raises(ValueError, match="2 x 2"):
        LinearAction(2, [((0, 1), (1, 1)), ((1,),)])
    with pytest.raises(ValueError, match="1 x 1"):
        LinearAction(2, [((1,),), ((0, 1), (1, 0))])
    with pytest.raises(ValueError, match="2 x 2"):
        LinearAction(2, [((1, 0, 0), (0, 1, 0))])
    with pytest.raises(ValueError, match="2 x 2"):
        LinearAction(2, [((1, 0), (1,))])
    with pytest.raises(ValueError, match="at least one"):
        LinearAction(2, [])
    # F_4 is not Z/4: the identity is invertible mod 4, yet no field acts
    with pytest.raises(ValueError, match="4 is not a prime"):
        LinearAction(4, [((1, 0), (0, 1))])
    with pytest.raises(ValueError, match="0 is not a prime"):
        LinearAction(0, [((1,),)])


def test_gl42_is_held_by_its_two_generators():
    # a transvection and the coordinate 4-cycle generate GL_4(2), 20,160
    # matrices; the action never lists them, so no size of the group
    # stops it, and the first invariants are the Dickson ones of degree 8
    transvection = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    cycle = ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    action = LinearAction(2, [transvection, cycle])
    assert action.generators == (transvection, cycle)
    bases = invariant_bases(action, range(3))
    assert bases == {0: [PolyFp.constant(2, 4, 1)], 1: [], 2: []}
    assert len(matrix_group_elements(action)) == 20160


def test_polynomials_refuse_a_p_that_is_not_prime():
    # each of these once raised a bare ZeroDivisionError, stored 0 for the
    # constant 1, or stored the coefficient -1
    for p in (0, 1, -3, 4, 6):
        with pytest.raises(ValueError, match="is not a prime"):
            PolyFp.constant(p, 2, 5)
        with pytest.raises(ValueError, match="is not a prime"):
            PolyFp.zero(p, 2)
    # None is the exact ring, and its coefficients stay as given
    assert PolyFp.constant(None, 2, -3).coefficient((0, 0)) == -3


def test_polynomials_check_every_exponent_tuple():
    # the zero-coefficient skip once ran before the length check, and a
    # negative exponent gave degree -1 and rendered as ""
    for p, nvars, exps in ((2, 2, (1, 2, 3)), (2, 2, (1,)), (None, 1, (1, 1))):
        for c in (0, 1, 2):
            with pytest.raises(ValueError, match="wrong length"):
                PolyFp(p, nvars, {exps: c})
    for c in (0, 1, 2, 3):
        with pytest.raises(ValueError, match="negative"):
            PolyFp(2, 1, {(-1,): c})
        with pytest.raises(ValueError, match="negative"):
            PolyFp(3, 2, {(5, -1): c}, bound=2, cap=3)
    # a zero coefficient on a well-formed tuple is still dropped
    assert PolyFp(2, 2, {(1, 2): 2}).is_zero()


def test_polynomials_check_exponent_and_coefficient_types():
    # a float exponent once gave degree 1.5 and rendered as "t^1", and a
    # float coefficient was stored and rendered as "1.5*t"
    for p in (2, 3, None):
        for c in (0, 1):
            with pytest.raises(ValueError, match="integer exponents"):
                PolyFp(p, 1, {(1.5,): c})
            with pytest.raises(ValueError, match="integer exponents"):
                PolyFp(p, 2, {(1, Fraction(1)): c}, bound=3)
            with pytest.raises(ValueError, match="integer exponents"):
                PolyFp(p, 1, {("1",): c})
    for c in (1.5, 2.0, 0.0, "1"):
        for p in (2, None):
            with pytest.raises(ValueError, match="integer coefficient"):
                PolyFp(p, 1, {(1,): c})
    with pytest.raises(ValueError, match="integer coefficient"):
        PolyFp(3, 1, {(1,): Fraction(1, 2)})
    # exact values of other integer types enter as ints, and Fractions stay
    # exact when p is None
    f = PolyFp(2, 2, {(True, 2): 3})
    assert f.coeffs == {(1, 2): 1} and type(next(iter(f.coeffs))[0]) is int
    assert PolyFp(None, 1, {(2,): Fraction(1, 2)}).coefficient((2,)) == Fraction(1, 2)


def test_linear_action_stores_generators_reduced():
    action = LinearAction(5, [((6, -5), (10, -1))])
    assert action.generators == (((1, 0), (0, 4)),)
    assert len(matrix_group_elements(action)) == 2
    assert invariant_basis(action, 2) == substitute_invariant_basis(action, 2)


def test_dickson_full_gl_invariance():
    gl2 = LinearAction(2, [((0, 1), (1, 1)), SWAP])
    elements = matrix_group_elements(gl2)
    assert len(elements) == 6
    for f in (D1, D0):
        for m in elements:
            assert f.substitute_linear(m) == f
    # eta is C_3-invariant but the swap moves it by D_0
    assert ETA.substitute_linear(SWAP) == ETA + D0


def test_relation_and_membership():
    assert ETA ** 2 + ETA * D0 + D1 ** 3 + D0 ** 2 == PolyFp.zero(2, 2)
    assert D1 ** 2 == parse_poly("x^4 + x^2*y^2 + y^4", 2, 2)
    assert subring_membership(PolyFp.zero(2, 2), [D1 ** 2, D0 ** 2])
    assert not subring_membership(ETA, [D1 ** 2, D0 ** 2])
    assert not subring_membership(ETA ** 2, [D1 ** 2, D0 ** 2])
    assert subring_membership(ETA ** 2, [D1, D0, ETA])
    assert subring_membership(D1 ** 3 * D0 ** 2, [D1, D0])
    # degree-6 piece of the Chern generators is spanned by D0^2 alone
    piece = graded_piece([D1 ** 2, D0 ** 2], 6)
    assert piece == [D0 ** 2]


def test_membership_requires_homogeneous():
    with pytest.raises(ValueError):
        subring_membership(X + X * Y, [D1])


def test_membership_rejects_degree_past_the_bound():
    assert subring_membership(D1 ** 6, [D1])  # degree 12, the bound itself
    with pytest.raises(ValueError, match="degree 13 exceeds bound 12"):
        subring_membership(X ** 13, [D1])


def test_membership_refuses_generators_from_another_ring():
    # a generator in three variables, or over F_3, is not in f's ring: the
    # first once raised a bare KeyError and the second answered mod 2
    with pytest.raises(ValueError, match="polynomial domains do not match"):
        subring_membership(D1, [PolyFp.variable(2, 3, 0)])
    with pytest.raises(ValueError, match="polynomial domains do not match"):
        subring_membership(X ** 2 + Y ** 2, [PolyFp(3, 2, {(1, 0): 1, (0, 1): 1})])
    with pytest.raises(ValueError, match="polynomial domains do not match"):
        subring_membership(PolyFp.zero(2, 2), [PolyFp.variable(3, 2, 0)])


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("nvars", [0, 1, 2, 3])
def test_constants_are_members_whatever_the_generators(p, nvars):
    # 1 lies in every subring, the one no generator generates too; a
    # nonconstant f stays outside that one
    gens = [PolyFp.variable(p, nvars, 0) ** 2] if nvars else []
    for c in range(1, p):
        assert subring_membership(PolyFp.constant(p, nvars, c), [])
        assert subring_membership(PolyFp.constant(p, nvars, c), gens)
    assert subring_membership(PolyFp.zero(p, nvars), [])
    if nvars:
        x = PolyFp.variable(p, nvars, nvars - 1)
        assert not subring_membership(x, [])
        assert not subring_membership(x * x, [])
        assert subring_membership(x * x, [x])


@st.composite
def graded_piece_cases(draw):
    # 0..3 homogeneous generators of degree 0..3 over F_2, F_3 or F_5 in 1..3
    # variables, plain PolyFp or RingElt, each untruncated or under one shared
    # bound, cap or both; a weighted degree from -1 to 8
    p = draw(st.sampled_from((2, 3, 5)), label="p")
    nvars = draw(st.integers(min_value=1, max_value=3), label="nvars")
    bound, cap = draw(st.sampled_from([(None, None), (6, None), (None, 3), (5, 3)]))
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=3), label="generators")):
        k = draw(st.integers(min_value=0, max_value=3), label="degree")
        coeffs = draw(st.dictionaries(
            st.sampled_from(_monomials_of_degree(nvars, k)),
            st.integers(min_value=1, max_value=p - 1), min_size=1, max_size=4,
        ))
        cls = draw(st.sampled_from((PolyFp, RingElt)), label="class")
        plain = draw(st.booleans(), label="untruncated")
        gens.append(cls(p, nvars, coeffs, *((None, None) if plain else (bound, cap))))
    gens = [g for g in gens if not g.is_zero()]
    return gens, draw(st.integers(min_value=-1, max_value=8), label="d")


@settings(max_examples=200, deadline=None)
@given(graded_piece_cases())
def test_graded_piece_matches_products_of_powers(case):
    # one expansion per monomial gives the oracle's list: same order,
    # coefficients, class, bound and cap
    gens, d = case
    got, want = graded_piece(gens, d), graded_piece_by_powers(gens, d)
    assert [g.coeffs for g in got] == [w.coeffs for w in want]
    for g, w in zip(got, want):
        _assert_stored_clean(g)
        assert (type(g), g.bound, g.cap) == (type(w), w.bound, w.cap)


def test_render_parse_round_trip():
    cases = [D1, D0, ETA, PolyFp.zero(2, 2), PolyFp.constant(2, 2, 1), ETA ** 2]
    for f in cases:
        assert parse_poly(f.render(), 2, 2) == f
    f3 = PolyFp(3, 2, {(2, 1): 2, (0, 0): 1})
    assert parse_poly(f3.render(), 3, 2) == f3
    assert D0.render() == "x^2*y + x*y^2"
    assert ETA.render() == "x^3 + x^2*y + y^3"


def _coefficients(p):
    if p is None:
        return st.builds(
            Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])
        )
    return st.integers(min_value=0, max_value=p - 1)


def _coeff_dicts(p, max_degree, constant=True, nvars=2):
    mons = [
        e
        for d in range(0 if constant else 1, max_degree + 1)
        for e in _monomials_of_degree(nvars, d)
    ]
    return st.dictionaries(st.sampled_from(mons), _coefficients(p), max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_truncated_arithmetic_matches_naive_oracle(data):
    # bounded (total degree <= 5), capped (exponents < 3), both (degree <= 3
    # and exponents < 3) and plain polynomials over F_2, F_3 and Q: products, powers and compositions
    # that truncate as they go agree with full expansion truncated at the end
    p = data.draw(st.sampled_from([2, 3, None]), label="p")
    bound, cap = data.draw(
        st.sampled_from([(None, None), (5, None), (None, 3), (3, 3)])
    )
    f = PolyFp(p, 2, data.draw(_coeff_dicts(p, 4)), bound, cap)
    g = PolyFp(p, 2, data.draw(_coeff_dicts(p, 4)), bound, cap)
    assert (f * g).coeffs == naive_truncated_product(f.coeffs, g.coeffs, p, bound, cap)
    k = data.draw(st.integers(min_value=0, max_value=5), label="k")
    assert (f ** k).coeffs == naive_truncated_power(f.coeffs, k, 2, p, bound, cap)
    # images under a degree bound need zero constant term
    images = [
        PolyFp(p, 2, data.draw(_coeff_dicts(p, 2, constant=bound is None)), bound, cap)
        for _ in range(2)
    ]
    composite = naive_truncated_composition(
        f.coeffs, [img.coeffs for img in images], 2, p, bound, cap
    )
    assert f.substitute(images).coeffs == composite


def _raised(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_substitute_linear_matches_general_substitution(data):
    # over F_2, F_3, F_5 and Q, in 0..3 variables, plain, bounded, capped or
    # both, with 0..3 matrix rows and some columns zero: the expansion equals
    # each term multiplied out in full by the oracle, in coefficients, class,
    # bound and cap; a wrong shape or a non-integer entry raises the same
    # ValueError
    p = data.draw(st.sampled_from([2, 3, 5, None]), label="p")
    nvars = data.draw(st.integers(min_value=0, max_value=3), label="nvars")
    rows = data.draw(st.integers(min_value=0, max_value=3), label="rows")
    bound, cap = data.draw(st.sampled_from([(None, None), (4, None), (None, 3), (3, 3), (2, 2)]))
    f = PolyFp(p, nvars, data.draw(_coeff_dicts(p, 4, nvars=nvars)), bound, cap)
    if data.draw(st.booleans(), label="ring element"):
        f = CycRing(p or 2, 1, nvars).elt(f.coeffs) if p is not None else f
    entry = _coefficients(p) if p is None else st.integers(min_value=-p, max_value=2 * p)
    columns = [
        [0] * rows if data.draw(st.booleans(), label="zero column")
        else [data.draw(entry, label="entry") for _ in range(rows)]
        for _ in range(nvars)
    ]
    matrix = tuple(tuple(col[k] for col in columns) for k in range(rows))
    got, want = f.substitute_linear(matrix), linear_substitution(f, matrix)
    _assert_stored_clean(got)
    assert got.coeffs == want.coeffs
    assert type(got) is type(want) is PolyFp
    assert (got.p, got.nvars, got.bound, got.cap) == (want.p, rows, f.bound, None)
    if rows and nvars:
        k, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, nvars - 1))
        bad = data.draw(st.sampled_from([0.5, "1", None, 1.0]), label="bad entry")
        broken = tuple(
            tuple(bad if (r, c) == (k, j) else matrix[r][c] for c in range(nvars))
            for r in range(rows)
        )
        message = _raised(lambda: f.substitute_linear(broken))
        assert message == _raised(lambda: linear_substitution(f, broken))
        assert "needs integer exponents and an integer coefficient" in message
    short = tuple(row[:-1] for row in matrix) if nvars else ((0,),)
    if rows or not nvars:
        message = _raised(lambda: f.substitute_linear(short))
        assert message == _raised(lambda: linear_substitution(f, short))
        assert message == "matrix shape does not match variable count"


@pytest.mark.parametrize("p", [5, None])
def test_substitute_linear_multiplies_every_factor(p):
    # terms with three variables in them, under a dense matrix with rows to
    # spare: each term's image is the product of all three forms' powers
    f = PolyFp(p, 3, {(1, 1, 1): 1, (2, 1, 2): 3, (0, 3, 1): 2, (1, 0, 0): 1})
    matrix = ((1, 2, 0), (3, 1, 4), (0, 1, 1), (2, 0, 3))
    got = f.substitute_linear(matrix)
    assert got == linear_substitution(f, matrix) and got.nvars == 4


def test_substitute_linear_has_one_variable_per_row():
    # with no variables to send, the result still lives in one variable per
    # matrix row, under the polynomial's bound
    got = PolyFp.constant(2, 0, 1).substitute_linear(((), ()))
    assert (got.nvars, got.coeffs, got.bound, got.cap) == (2, {(0, 0): 1}, None, None)
    bounded = PolyFp(None, 0, {(): Fraction(1, 2)}, bound=3).substitute_linear(((),) * 3)
    assert (bounded.nvars, bounded.coeffs, bounded.bound) == (3, {(0, 0, 0): Fraction(1, 2)}, 3)
    assert PolyFp.zero(3, 0).substitute_linear(((),)) == PolyFp.zero(3, 1)
    # and with no rows, every variable goes to zero in the ring of no variables
    assert X.substitute_linear(()) == PolyFp.zero(2, 0)
    assert (X * Y + PolyFp.constant(2, 2, 1)).substitute_linear(()) == PolyFp.constant(2, 0, 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_of_products_matches_products_and_sums(data):
    # zero to four keyed groups of one to three (a, b, c) triples over F_2,
    # F_3, F_5 and Q in one to three variables, the operands plain, bounded,
    # capped or both, and in some examples one more operand capped higher:
    # each key's one-pass sum agrees with c * a * b formed by * and added by
    # +, and with full products truncated at the end; the keys whose sum is
    # zero are left out and the others keep their order, and operands whose
    # truncations differ raise
    p = data.draw(st.sampled_from([2, 3, 5, None]), label="p")
    nvars = data.draw(st.integers(min_value=1, max_value=3), label="nvars")
    bound = data.draw(st.integers(min_value=3, max_value=5), label="bound")
    cap = data.draw(st.integers(min_value=2, max_value=3), label="cap")
    bound, cap = data.draw(st.sampled_from([(None, None), (bound, None), (None, cap), (bound, cap)]))
    operands = [
        PolyFp(p, nvars, data.draw(_coeff_dicts(p, 4, nvars=nvars)), bound, cap)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="operands"))
    ]
    if data.draw(st.booleans(), label="mixed truncations"):
        odd = PolyFp(p, nvars, data.draw(_coeff_dicts(p, 4, nvars=nvars)), bound, (cap or 2) + 1)
        with pytest.raises(ValueError, match="truncations do not match"):
            sum_of_products({0: [(odd.coeffs, odd.coeffs, 1)]}, [*operands, odd])
    operand = st.sampled_from(operands)
    groups = {
        key: [
            (data.draw(operand), data.draw(operand),
             data.draw(_coefficients(p) if p is None else st.integers(-p, 2 * p), label="c"))
            for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="triples"))
        ]
        for key in range(data.draw(st.integers(min_value=0, max_value=4), label="keys"))
    }
    got = sum_of_products(
        {key: [(a.coeffs, b.coeffs, c) for a, b, c in triples] for key, triples in groups.items()},
        operands,
    )
    want = {}
    for key, triples in groups.items():
        total = None
        naive = {}
        for a, b, c in triples:
            term = (a * b).scale(c)
            total = term if total is None else total + term
            for e, v in naive_truncated_product(a.coeffs, b.coeffs, p, total.bound, cap).items():
                naive[e] = naive.get(e, 0) + c * v
        assert total == PolyFp(p, nvars, naive)
        want[key] = total
    assert list(got) == [key for key in groups if not want[key].is_zero()]
    for key, poly in got.items():
        _assert_stored_clean(poly)
        assert poly.coeffs == want[key].coeffs
        assert (type(poly), poly.bound, poly.cap) == (PolyFp, want[key].bound, want[key].cap)


def test_sum_of_products_checks_every_operand_once():
    # one operand outside the first's ring raises, though no product names
    # it; an untruncated operand does not take the others' truncation here
    x4 = PolyFp.variable(2, 2, 0, bound=4)
    for other, message in [
        (PolyFp.variable(3, 2, 0, bound=4), "domains do not match"),
        (PolyFp.variable(2, 3, 0, bound=4), "domains do not match"),
        (PolyFp.variable(2, 2, 0), "truncations do not match"),
        (PolyFp.variable(2, 2, 0, bound=5), "truncations do not match"),
        (PolyFp(2, 2, {(1, 0): 1}, bound=4, cap=8), "truncations do not match"),
    ]:
        with pytest.raises(ValueError, match=message):
            sum_of_products({0: [(x4.coeffs, x4.coeffs, 1)]}, [x4, other])
    # x^3 * x^3 passes the bound 4 and is skipped, so that key is left out,
    # and so is a key whose two products cancel mod 2
    x3 = PolyFp.monomial(2, 2, (3, 0)).truncate(4)
    got = sum_of_products({
        "past": [(x3.coeffs, x3.coeffs, 1)],
        "x^2": [(x4.coeffs, x4.coeffs, 1)],
        "gone": [(x4.coeffs, x4.coeffs, 1), (x4.coeffs, x4.coeffs, 1)],
        "x^4": [(x3.coeffs, x4.coeffs, 1), (x4.coeffs, x3.coeffs, 1), (x4.coeffs, x3.coeffs, 1)],
    }, [x4, x3])
    assert got == {"x^2": x4 * x4, "x^4": x3 * x4} and got["x^2"].bound == 4
    assert sum_of_products({}, [x4]) == {}
    # the sums live in the first operand's ring, its class included, as
    # a * b keeps a's
    w = CycRing(2, 2, 2).variable(0)
    assert type(sum_of_products({0: [(w.coeffs, w.coeffs, 1)]}, [w])[0]) is type(w) is type(w * w)


def test_different_truncations_do_not_mix():
    x5 = PolyFp.variable(2, 2, 0, bound=5)
    x6 = PolyFp.variable(2, 2, 0, bound=6)
    capped = PolyFp(2, 2, {(1, 0): 1}, cap=4)
    with pytest.raises(ValueError, match="truncations do not match"):
        x5 * x6
    with pytest.raises(ValueError, match="truncations do not match"):
        capped + PolyFp(2, 2, {(0, 1): 1}, cap=2)
    # an operand without a truncation takes the other's
    assert (x5 * X).bound == 5
    assert (capped * X).cap == 4
    # a bound no term under the cap can pass is dropped
    assert PolyFp(2, 2, {(1, 0): 1}, bound=6, cap=4).bound is None
    assert PolyFp(2, 2, {(1, 0): 1}, bound=5, cap=4).bound == 5
    # so products under cap 3 in two variables drop bounds 4 and 5 before
    # they meet, and a later bound-3 product can follow; bounds the cap
    # leaves alive still clash
    b4, b5 = PolyFp.variable(2, 2, 0, bound=4), PolyFp.variable(2, 2, 1, bound=5)
    c3 = PolyFp(2, 2, {(1, 0): 1, (0, 2): 1}, cap=3)
    moot = b4 * c3 + b5 * c3
    assert moot == PolyFp(2, 2, {(2, 0): 1, (1, 1): 1, (1, 2): 1})
    assert (moot.bound, moot.cap) == (None, 3)
    b2, b3 = PolyFp.variable(2, 2, 0, bound=2), PolyFp.variable(2, 2, 0, bound=3)
    later = b4 * c3 + b5 * X + b3 * c3
    assert (later.bound, later.cap) == (3, 3)
    with pytest.raises(ValueError, match="truncations do not match"):
        b2 * c3 + b3 * c3


def test_substitute_keeps_the_bound_of_the_series():
    # (x + x^2) composed with an unbounded x + x^2 is only known to degree 3
    f = PolyFp(None, 1, {(1,): 1, (2,): 1}, bound=3)
    x = PolyFp.variable(None, 1, 0)
    g = f.substitute([x + x * x])
    assert g.bound == 3
    assert g == PolyFp(None, 1, {(1,): 1, (2,): 2, (3,): 2})
    with pytest.raises(ValueError, match="zero constant terms"):
        f.substitute([x + PolyFp.constant(None, 1, 1)])


def test_substitutions_store_one_polynomial_per_call(monkeypatch):
    # powers, products and the sum stay plain dicts; only the result is
    # stored, for a bounded series, a capped ring element, no variables and
    # a linear map
    stored, store = [], PolyFp._set

    def counting(self, *args):
        stored.append(self)
        return store(self, *args)

    f = PolyFp(3, 2, {(3, 1): 1, (2, 2): 2, (0, 4): 1, (1, 0): 2, (0, 0): 1}, bound=6)
    images = [PolyFp(3, 2, {(1, 0): 1, (1, 1): 2}, bound=8), PolyFp(3, 2, {(0, 1): 1, (2, 0): 1})]
    ring = CycRing(3, 1, 2)
    ring_images = [ring.variable(0) + ring.variable(1), ring.variable(1) * ring.variable(1)]
    plain, constant = PolyFp(3, 2, f.coeffs), PolyFp(3, 0, {(): 2})
    monkeypatch.setattr(PolyFp, "_set", counting)
    calls = [
        lambda: f.substitute(images),
        lambda: plain.substitute(ring_images),
        lambda: constant.substitute([]),
        lambda: f.substitute_linear(((1, 2), (2, 0), (1, 1))),
        lambda: constant.substitute_linear(((),) * 2),
    ]
    for call in calls:
        stored.clear()
        result = call()
        assert len(stored) == 1 and stored[0] is result


def _raw_sum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_results_are_stored_clean(data):
    # each result is compared with the checking constructor applied to the
    # raw coefficients, or with the naive product; one operand is sometimes
    # untruncated, so it takes the other's truncations and loses the terms
    # outside them
    p = data.draw(st.sampled_from([2, 3, None]), label="p")
    bound, cap = data.draw(st.sampled_from([(None, None), (5, None), (None, 3), (3, 3)]))
    f = PolyFp(p, 2, data.draw(_coeff_dicts(p, 4)), bound, cap)
    plain = data.draw(st.booleans(), label="plain g")
    g = PolyFp(p, 2, data.draw(_coeff_dicts(p, 4)), *((None, None) if plain else (bound, cap)))
    product = naive_truncated_product(f.coeffs, g.coeffs, p, bound, cap)
    results = {
        "mul": (f * g, PolyFp(p, 2, product, bound, cap)),
        "add": (f + g, PolyFp(p, 2, _raw_sum(f.coeffs, g.coeffs), bound, cap)),
        "sub": (g - f, PolyFp(p, 2, _raw_sum(g.coeffs, f.coeffs, -1), bound, cap)),
    }
    c = data.draw(_coefficients(p) if p is None else st.integers(-2 * p, 2 * p), label="c")
    results["scale"] = (
        f.scale(c), PolyFp(p, 2, {e: v * c for e, v in f.coeffs.items()}, bound, cap)
    )
    d = data.draw(st.integers(min_value=0, max_value=6), label="d")
    results["truncate"] = (
        g.truncate(d), PolyFp(p, 2, g.coeffs, d if g.bound is None else min(d, g.bound), g.cap)
    )
    images = [
        PolyFp(p, 2, data.draw(_coeff_dicts(p, 2, constant=bound is None)), bound, cap)
        for _ in range(2)
    ]
    composite = naive_truncated_composition(
        f.coeffs, [img.coeffs for img in images], 2, p, bound, cap
    )
    results["substitute"] = (f.substitute(images), PolyFp(p, 2, composite, bound, cap))
    if p is not None:
        entry = st.integers(min_value=-p, max_value=2 * p)
        m = data.draw(st.tuples(*[st.tuples(entry, entry)] * 3), label="matrix")
        h = PolyFp(p, 2, f.coeffs)
        images = [PolyFp(p, 3, {(1, 0, 0): m[0][j], (0, 1, 0): m[1][j], (0, 0, 1): m[2][j]})
                  for j in range(2)]
        linear = naive_truncated_composition(h.coeffs, [img.coeffs for img in images], 3, p)
        results["substitute_linear"] = (h.substitute_linear(m), PolyFp(p, 3, linear))
    for name, (got, want) in results.items():
        _assert_stored_clean(got)
        assert got.coeffs == want.coeffs, name
        assert (got.bound, got.cap) == (want.bound, want.cap), name


@st.composite
def rendered_polys(draw):
    p = draw(st.sampled_from((2, 3, 5, None)))
    n = draw(st.integers(min_value=0, max_value=4))
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * n)
    size = draw(st.sampled_from((1, 8)))
    coeffs = draw(st.dictionaries(exps, st.integers(-7, 7), max_size=size))
    names = draw(st.sampled_from((None, ("a", "b", "c", "d")[:n])))
    return PolyFp(p, n, coeffs), names


@settings(max_examples=300, deadline=None)
@given(rendered_polys())
def test_render_matches_item_sort_oracle(case):
    # one-term polynomials skip the sort; every other sorts bare exponent
    # tuples, under the default key and under RingElt's ascending one
    poly, names = case
    assert poly.render(names) == render_by_items(poly, names)
    ascending = lambda e: (sum(e), e)  # noqa: E731
    assert poly.render(names, key=ascending) == render_by_items(poly, names, ascending)
    elt = RingElt(poly.p, poly.nvars, poly.coeffs)
    assert elt.render() == render_by_items(elt, "wzuv"[: poly.nvars], ascending)
