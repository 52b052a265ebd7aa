from __future__ import annotations

import itertools
import random

import pytest

from chromcat import hopf
from chromcat import (
    CycRing,
    HopfError,
    HopfExpr,
    PolyFp,
    b_series,
    beta_pushforward,
    coefficient_of,
    honda_fgl,
    hurewicz_eval,
    mod_indecomposables,
    parse_poly,
    verify_kn_injectivity,
    weyl_orbit_restriction,
)
from oracles import (
    all_pairs_beta_pushforward,
    all_pairs_circ_mul,
    all_pairs_star_mul,
    hurewicz_by_coproduct,
    orbit_from_terms,
)

FGL22 = honda_fgl(2, 2, 8)
ST = ("s", "t")


def ring22():
    return CycRing(2, 2, 2)


def poly_st(text):
    return parse_poly(text, 2, 2, names=ST)


# -- ring model -------------------------------------------------------------------


def test_cyc_ring_truncation():
    ring = ring22()
    w = ring.variable(0)
    assert (w ** 3).coeffs == {(3, 0): 1}
    assert (w ** 4).is_zero()
    assert ring.elt({(1, 0): 2}).is_zero()  # coefficients live in F_2


def test_rings_of_different_heights_do_not_mix():
    w1, w2 = CycRing(2, 1, 2).variable(0), ring22().variable(0)
    with pytest.raises(ValueError):
        w1 * w2
    with pytest.raises(ValueError):
        w1 + w2
    # Weyl generators from the height-1 ring do not act on the height-2 law
    low = CycRing(2, 1, 2)
    swap = [low.variable(1), low.variable(0)]
    with pytest.raises(HopfError):
        weyl_orbit_restriction(w2, [swap], FGL22)


def test_fgl_in_ring_closes_the_action():
    ring = ring22()
    w, z = ring.variable(0), ring.variable(1)
    f = ring.fgl_of_variables(FGL22)
    assert f == w + z + w * w * z * z
    # sigma: w -> z -> F(w, z) has order three in the quotient ring
    sigma = [z, f]
    first = [img.substitute(sigma) for img in sigma]
    second = [img.substitute(sigma) for img in first]
    assert second == [w, z]


def test_weyl_action_closure_cap():
    from chromcat.hopf import close_weyl_action

    ring = ring22()
    w, z = ring.variable(0), ring.variable(1)
    f = ring.fgl_of_variables(FGL22)
    assert len(close_weyl_action(ring, [[z, f]])) == 3
    # [[z, f], [w + z^3, z]] closes to 48 elements, past the cap of 24
    assert hopf.WEYL_CLOSURE_CAP == 24
    with pytest.raises(HopfError, match="within 24 elements"):
        close_weyl_action(ring, [[z, f], [w + z * z * z, z]])
    # depth-first, each element listed when it is found: weyl_orbit_restriction
    # lists its terms in this order
    assert close_weyl_action(ring, [[z, f], [z, w]]) == [
        (w, z), (z, f), (z, w), (f, z), (w, f), (f, w),
    ]


# -- Mackey orbit -----------------------------------------------------------------


def test_mackey_restriction_matches_three_summands():
    ring = ring22()
    w, z = ring.variable(0), ring.variable(1)
    f = ring.fgl_of_variables(FGL22)
    orbit = weyl_orbit_restriction(w * w * z, [[z, f]], FGL22)
    assert orbit.total == w * w * z + z * z * f + f * f * w
    assert orbit.terms is not None and len(orbit.terms) == 3
    assert set(orbit.terms) == {
        (("s", 2), ("t", 1)),
        (("t", 2), ("s+t", 1)),
        (("s+t", 2), ("s", 1)),
    }


def test_orbit_of_unit_and_variable():
    ring = ring22()
    w, z = ring.variable(0), ring.variable(1)
    f = ring.fgl_of_variables(FGL22)
    unit = weyl_orbit_restriction(ring.one(), [[z, f]], FGL22)
    assert unit.total == ring.one()  # three summands collapse mod 2
    assert unit.terms == [(), (), ()]
    ow = weyl_orbit_restriction(w, [[z, f]], FGL22)
    assert ow.total == w + z + f


# -- Hopf expressions ---------------------------------------------------------------


def test_grouplike_rules():
    e1 = HopfExpr.grouplike(2, 2, 8, 1)
    e0 = HopfExpr.grouplike(2, 2, 8, 0)
    assert e1.star_mul(e1) == e0  # [1] * [1] = [2] = [0] mod 2
    assert e1.circ_mul(e1) == e1  # [1] o [1] = [1]
    assert e0.circ_mul(e1) == e0
    m = HopfExpr.omono(2, 2, 8, (1,))
    assert e0.circ_mul(m).is_zero()  # [0] o b_1 = 0
    assert e1.circ_mul(m) == m       # [1] o b_1 = b_1
    assert e0.star_mul(m) == m       # [0] is the * unit


@pytest.mark.parametrize("coeff", [
    PolyFp.constant(3, 2, 2),  # a mod-3 coefficient
    PolyFp.constant(None, 2, 1),  # an integer coefficient
    PolyFp.constant(2, 3, 1),  # three variables
    PolyFp.constant(2, 1, 1),  # one variable
    CycRing(2, 2, 2).variable(0),  # a model-ring element, under an exponent cap
    PolyFp.variable(2, 2, 0, bound=3),  # known only to degree 3
])
def test_expression_refuses_a_coefficient_outside_its_ring(coeff):
    # unchecked, a mod-3 coefficient rendered as "(2) b1" in a mod-2
    # expression and a three-variable one as "b1"
    with pytest.raises(HopfError, match=r"F_2\[s, t\] truncated above degree 8"):
        HopfExpr(2, 1, 8, {(0, ((1,),)): coeff})
    with pytest.raises(HopfError):
        HopfExpr.omono(2, 1, 8, (1,), coeff)


def test_coefficients_truncated_at_or_above_the_degree_are_kept_at_it():
    s = PolyFp.variable(2, 2, 0)
    for coeff in (s + s ** 5, (s + s ** 5).truncate(4), (s + s ** 5).truncate(6)):
        e = HopfExpr(2, 1, 4, {(0, ((1,),)): coeff})
        assert e.terms == {(0, ((1,),)): s}
        assert e.terms[(0, ((1,),))].bound == 4


def test_a_coefficient_known_to_a_lower_degree_reaches_neither_product():
    # with a coefficient bounded at 3 in a degree-8 expression the all-pairs
    # products would refuse the mixed truncations, and the kernel would skip
    # the pairs that pass the bound; the expression refuses it instead
    low = PolyFp.variable(2, 2, 0, bound=3)
    for product in (HopfExpr.star_mul, all_pairs_star_mul, HopfExpr.circ_mul, all_pairs_circ_mul):
        with pytest.raises(HopfError, match="truncated above degree 8"):
            product(HopfExpr.omono(2, 1, 8, (2,), low), HopfExpr.omono(2, 1, 8, (1,)))


@pytest.mark.parametrize("p", [4, 6, 9, 1, 0])
def test_expression_needs_a_prime(p):
    # unchecked, HopfExpr(4, ...) rendered the grouplike [3]
    with pytest.raises(HopfError, match="not a prime"):
        HopfExpr(p, 1, 4)
    # the default coefficient over F_p is built only after the check: at
    # p = 0 it once raised a bare ZeroDivisionError
    with pytest.raises(HopfError, match="not a prime"):
        HopfExpr.grouplike(p, 1, 4, 3)
    with pytest.raises(HopfError, match="not a prime"):
        HopfExpr.omono(p, 1, 4, (1,))


@pytest.mark.parametrize("indices", [(1, 0), (0,), (-3,), (2, -1, 1)])
def test_circle_monomials_need_indices_from_one(indices):
    # unchecked, (1, 0) rendered "b0ob1", and so did b1 o b0 as a product;
    # (-3,) rendered "b-3"
    with pytest.raises(HopfError, match="below 1"):
        HopfExpr.omono(2, 2, 4, indices)
    with pytest.raises(HopfError, match="below 1"):
        HopfExpr(2, 2, 4, {(1, ((1,), indices)): PolyFp.constant(2, 2, 0)})


@pytest.mark.parametrize("make", [
    lambda: HopfExpr.grouplike(2, 1, 0, 1.5),
    lambda: HopfExpr.grouplike(2, 1, 0, "1"),
    lambda: HopfExpr.omono(2, 2, 0, (1.5,)),
    lambda: HopfExpr.omono(2, 2, 0, (1, "2")),
    lambda: HopfExpr(2, 2, 4, {(None, ()): PolyFp.constant(2, 2, 1)}),
], ids=["float-tag", "str-tag", "float-index", "str-index", "none-tag"])
def test_expressions_need_integer_tags_and_b_indices(make):
    # unchecked, grouplike(2, 1, 0, 1.5) rendered "[1]" and
    # omono(2, 2, 0, (1.5,)) rendered "b1"
    with pytest.raises(HopfError, match="integer tag and b-indices"):
        make()


@pytest.mark.parametrize("element", [
    {99: 2}, {99: 1}, {-1: 2}, {4: 0}, {"a": 2}, {1.0: 2}, {1: 1.5}, {1: None},
])
def test_hurewicz_checks_every_term_before_dropping_zeros(element):
    # unchecked, a term whose coefficient is 0 mod p was dropped first, so
    # {99: 2}, {-1: 2} and {"a": 2} evaluated to zero while {99: 1} raised
    for t in (0, 1):
        with pytest.raises(HopfError, match=r"integer exponent in \[0, 4\)"):
            hurewicz_eval(element, t, 2, 2)


@pytest.mark.parametrize("height,degree", [(0, 4), (-1, 4), (1, -1)])
def test_expression_needs_positive_height_and_nonnegative_degree(height, degree):
    # unchecked, height 0 killed every b_1
    with pytest.raises(HopfError, match="height|degree"):
        HopfExpr.omono(2, height, degree, (1,))


def test_circle_power_needs_a_nonnegative_exponent():
    bs = b_series(PolyFp.variable(2, 2, 0), 2, 2, 6)
    assert bs.circ_power(0) == HopfExpr.grouplike(2, 2, 6, 1)
    assert bs.circ_power(2) == bs.circ_mul(bs)
    # unchecked, k = -1 gave the unit [1]
    with pytest.raises(HopfError, match="negative"):
        bs.circ_power(-1)


def test_circle_product_needs_atomic_operands():
    zero = HopfExpr.zero(2, 2, 8)
    e1 = HopfExpr.grouplike(2, 2, 8, 1)
    decomposable = HopfExpr.omono(2, 2, 8, (1,)).star_mul(HopfExpr.omono(2, 2, 8, (2,)))
    # a zero left operand has no term to multiply, so nothing is refused
    assert zero.circ_mul(decomposable).is_zero()
    for left, right in ((decomposable, zero), (decomposable, e1), (e1, decomposable)):
        with pytest.raises(HopfError, match="atomic operands"):
            left.circ_mul(right)


def test_circle_product_refuses_even_when_the_bound_kills_every_pair():
    s, t = PolyFp.variable(2, 2, 0), PolyFp.variable(2, 2, 1)
    atomic = HopfExpr.omono(2, 2, 4, (1,), s ** 3)
    decomposable = HopfExpr(2, 2, 4, {(0, ((1,), (2,))): t * t})
    # lowest degrees 3 + 2 pass the bound 4, so no product is formed
    assert atomic.star_mul(decomposable).is_zero()
    for left, right in ((atomic, decomposable), (decomposable, atomic)):
        with pytest.raises(HopfError, match="atomic operands"):
            left.circ_mul(right)
        with pytest.raises(HopfError, match="atomic operands"):
            all_pairs_circ_mul(left, right)
    assert HopfExpr.zero(2, 2, 4).circ_mul(decomposable).is_zero()


def _random_expr(rng, p, degree, atomic):
    """A HopfExpr whose terms have coefficients of every lowest degree from
    0 past the bound, so that some pairs straddle it."""
    monomials = [
        PolyFp.monomial(p, 2, (a, d - a)) for d in range(degree + 2) for a in range(d + 1)
    ]
    terms = []
    for _ in range(rng.randrange(1, 7)):
        width = rng.randrange(1 if atomic else 0, 2 if atomic else 4)
        star = (
            rng.randrange(p),
            tuple(
                tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 3)))
                for _ in range(width)
            ),
        )
        coeff = PolyFp.zero(p, 2)
        for mono in rng.sample(monomials, rng.randrange(1, 4)):
            coeff = coeff + mono.scale(rng.randrange(1, p))
        terms.append((star, coeff))
    return HopfExpr(p, 1, degree, terms)


@pytest.mark.parametrize(
    "p,degree", [(2, 3), (2, 6), (2, 10), (3, 4), (3, 8), (5, 5), (5, 10)]
)
def test_products_match_all_pairs_oracle_across_the_bound(p, degree):
    rng = random.Random(18_000 + 10 * p + degree)
    for _ in range(40):
        a, b = (_random_expr(rng, p, degree, atomic=False) for _ in range(2))
        assert a.star_mul(b).terms == all_pairs_star_mul(a, b).terms
        a, b = (_random_expr(rng, p, degree, atomic=True) for _ in range(2))
        assert a.circ_mul(b).terms == all_pairs_circ_mul(a, b).terms


def _assert_products_match_oracle(a, b):
    star, circ = a.star_mul(b), a.circ_mul(b)
    assert star.terms == all_pairs_star_mul(a, b).terms
    assert circ.terms == all_pairs_circ_mul(a, b).terms
    return star, circ


@pytest.mark.parametrize("p,c,d", [(3, 1, 2), (5, 2, 3), (5, 4, 1)])
def test_grouplikes_scale_circle_monomials_on_both_sides(p, c, d):
    s, t = (PolyFp.variable(p, 2, i) for i in range(2))
    # [c] s + b1 t and b1 t + [d] s: [c] o b1 and b1 o [d] both land on b1,
    # scaled by c and by d, and cancel since c + d = 0 mod p
    left = HopfExpr(p, 1, 6, {(c, ()): s, (0, ((1,),)): t})
    right = HopfExpr(p, 1, 6, {(0, ((1,),)): t, (d, ()): s})
    _, circ = _assert_products_match_oracle(left, right)
    assert circ == HopfExpr(p, 1, 6, {((c * d) % p, ()): s * s, (0, ((1, 1),)): t * t})
    # with a b2 on the right the two scaled pairs land on different stars
    right = HopfExpr(p, 1, 6, {(0, ((2,),)): t, (d, ()): s})
    _, circ = _assert_products_match_oracle(left, right)
    assert circ == HopfExpr(p, 1, 6, {
        ((c * d) % p, ()): s * s,
        (0, ((2,),)): (s * t).scale(c),
        (0, ((1,),)): (t * s).scale(d),
        (0, ((1, 2),)): t * t,
    })


def test_circle_products_drop_stars_the_pure_b1_rule_kills():
    s, t = PolyFp.variable(3, 2, 0), PolyFp.variable(3, 2, 1)
    # at p^n = 3, b1 o (b1 o b1) vanishes and b1 o b1 o b2 does not
    left = HopfExpr(3, 1, 6, {(0, ((1,),)): s, (0, ((1, 1),)): t})
    right = HopfExpr(3, 1, 6, {(0, ((1,),)): t, (0, ((2,),)): s})
    _, circ = _assert_products_match_oracle(left, right)
    assert circ == HopfExpr(3, 1, 6, {
        (0, ((1, 1),)): s * t, (0, ((1, 2),)): s * s, (0, ((1, 1, 2),)): t * s,
    })
    # at p^n = 2 the one pair vanishes
    b1 = HopfExpr.omono(2, 1, 6, (1,), PolyFp.variable(2, 2, 0))
    assert b1.circ_mul(b1).is_zero() and all_pairs_circ_mul(b1, b1).is_zero()


def test_star_products_that_cancel_across_pairs_leave_no_term():
    s = PolyFp.variable(2, 2, 0)
    # b1 * b2 comes from two pairs, each s^2, and cancels mod 2
    a = HopfExpr(2, 2, 6, {(0, ((1,),)): s, (0, ((2,),)): s})
    star, _ = _assert_products_match_oracle(a, a)
    assert star == HopfExpr(2, 2, 6, {(0, ((1,), (1,))): s * s, (0, ((2,), (2,))): s * s})
    # and a whole product can cancel
    g = HopfExpr(2, 2, 6, {(0, ()): s, (1, ()): s})
    assert g.star_mul(g).is_zero() and all_pairs_star_mul(g, g).is_zero()


def _unit_stars(a, b, product):
    """The output stars of the pairs of terms a product forms: each pair's
    all-pairs product with unit coefficients, for the pairs whose lowest
    degrees fit under the bound."""
    stars = set()
    for star1, p1 in a.terms.items():
        for star2, p2 in b.terms.items():
            if p1.min_degree() + p2.min_degree() <= a.degree:
                one = HopfExpr(a.p, a.height, a.degree, {star1: PolyFp.constant(a.p, 2, 1)})
                two = HopfExpr(a.p, a.height, a.degree, {star2: PolyFp.constant(a.p, 2, 1)})
                stars |= set(product(one, two).terms)
    return stars


@pytest.mark.parametrize("p,degree", [(2, 6), (3, 8)])
def test_products_sum_each_output_star_once(monkeypatch, p, degree):
    # the oracle's results and the stars the pairs reach are formed before
    # the counters go in; in the cancelling case the two pairs filed under
    # b1 * b2 cancel, so that star is formed but not stored
    rng = random.Random(28_000 + p)
    cases = []
    for atomic, product, oracle in (
        (False, HopfExpr.star_mul, all_pairs_star_mul),
        (True, HopfExpr.circ_mul, all_pairs_circ_mul),
    ):
        for _ in range(20):
            a, b = (_random_expr(rng, p, degree, atomic) for _ in range(2))
            cases.append((a, b, product, oracle(a, b), _unit_stars(a, b, oracle)))
    s = PolyFp.variable(2, 2, 0)
    cancel = HopfExpr(2, 2, 6, {(0, ((1,),)): s, (0, ((2,),)): s})
    cases.append((
        cancel, cancel, HopfExpr.star_mul, all_pairs_star_mul(cancel, cancel),
        _unit_stars(cancel, cancel, all_pairs_star_mul),
    ))

    counts = {"mul": 0, "sums": 0, "stored": 0, "stars": 0, "pairs": 0}
    real_mul, real_sum = PolyFp.__mul__, hopf.sum_of_products
    real_stored = PolyFp._stored.__func__

    def counting_mul(a, b):
        counts["mul"] += 1
        return real_mul(a, b)

    def counting_sum(groups, operands):
        counts["sums"] += 1
        counts["stars"] += len(groups)
        counts["pairs"] += sum(len(triples) for triples in groups.values())
        return real_sum(groups, operands)

    def counting_stored(cls, *args):
        counts["stored"] += 1
        return real_stored(cls, *args)

    monkeypatch.setattr(PolyFp, "__mul__", counting_mul)
    monkeypatch.setattr(hopf, "sum_of_products", counting_sum)
    monkeypatch.setattr(PolyFp, "_stored", classmethod(counting_stored))
    several = 0
    for a, b, product, want, stars in cases:
        counts.update(mul=0, sums=0, stored=0, stars=0, pairs=0)
        result = product(a, b)
        # one call sums every star's group, and no coefficient product is
        # formed alone
        assert counts["mul"] == 0
        assert counts["sums"] == 1
        assert counts["stars"] == len(stars)
        # each nonzero star is stored once, and no other polynomial is
        assert counts["stored"] == len(result.terms)
        assert set(result.terms) <= stars
        assert result.terms == want.terms
        several += counts["pairs"] > counts["stars"]
    # some products file several pairs under one star, so a sum per pair
    # would show
    assert several


@pytest.mark.parametrize("coeff,message", [
    (PolyFp.variable(3, 2, 0, bound=6), "domains do not match"),
    (PolyFp.variable(2, 3, 0, bound=6), "domains do not match"),
    (PolyFp.variable(2, 2, 0), "truncations do not match"),
    (PolyFp.variable(2, 2, 0, bound=7), "truncations do not match"),
    (PolyFp(2, 2, {(1, 0): 1}, bound=6, cap=8), "truncations do not match"),
])
def test_products_check_every_coefficient_once(coeff, message):
    # a coefficient put into the terms past the constructor's check is
    # refused by either product, though the bound kills its only pair
    b1 = HopfExpr.omono(2, 2, 6, (1,), PolyFp.monomial(2, 2, (6, 0)))
    tampered = HopfExpr.omono(2, 2, 6, (2,), PolyFp.monomial(2, 2, (6, 0)))
    tampered.terms[(0, ((3,),))] = coeff
    for left, right in ((b1, tampered), (tampered, b1)):
        for product in (HopfExpr.star_mul, HopfExpr.circ_mul):
            with pytest.raises(ValueError, match=message):
                product(left, right)


def test_equal_terms_are_added_before_truncation():
    one = PolyFp.constant(2, 2, 1)
    s = PolyFp.variable(2, 2, 0)
    b1 = (0, ((1,),))
    # pairs and a dict give the same expression
    assert HopfExpr(2, 2, 8, [(b1, s)]) == HopfExpr(2, 2, 8, {b1: s})
    # equal raw stars cancel mod 2, and so do stars equal once normalized
    assert HopfExpr(2, 2, 8, [(b1, s), (b1, s)]).is_zero()
    assert HopfExpr(2, 2, 8, [((2, ((1,),)), one), (b1, one)]).is_zero()
    # a coefficient that sums past the bound is truncated once
    assert HopfExpr(2, 2, 1, [(b1, s * s), (b1, s)]) == HopfExpr(2, 2, 1, {b1: s})


def test_pure_b1_weight_vanishing():
    # at p^n = 4 the cube survives and the fourth power dies
    assert not HopfExpr.omono(2, 2, 8, (1, 1, 1)).is_zero()
    assert HopfExpr.omono(2, 2, 8, (1, 1, 1, 1)).is_zero()
    # at p^n = 2 the square already dies
    assert HopfExpr.omono(2, 1, 8, (1,)).circ_mul(
        HopfExpr.omono(2, 1, 8, (1,))
    ).is_zero()
    # mixed monomials are kept formal
    assert not HopfExpr.omono(2, 1, 8, (1, 2)).is_zero()


def test_b_series_shape():
    bs = b_series(PolyFp.variable(2, 2, 0), 2, 2, 4)
    stars = dict(bs.terms)
    assert stars[(0, ())] == PolyFp.constant(2, 2, 1)
    for i in range(1, 5):
        assert stars[(0, ((i,),))] == PolyFp.monomial(2, 2, (i, 0))


def test_pushforward_single_factors():
    ring = ring22()
    bs = beta_pushforward(orbit_from_terms([(("s", 1),)], ring, FGL22), 8)
    assert bs == b_series(PolyFp.variable(2, 2, 0), 2, 2, 8)
    unit = beta_pushforward(orbit_from_terms([()], ring, FGL22), 8)
    assert unit == HopfExpr.grouplike(2, 2, 8, 1)
    empty = beta_pushforward(orbit_from_terms([], ring, FGL22), 8)
    assert empty == HopfExpr.grouplike(2, 2, 8, 0)  # empty * product


def test_worked_example_coefficient():
    ring = ring22()
    w, z = ring.variable(0), ring.variable(1)
    f = ring.fgl_of_variables(FGL22)
    orbit = weyl_orbit_restriction(w * w * z, [[z, f]], FGL22)
    push = beta_pushforward(orbit, 8)
    reduced = mod_indecomposables(push)
    # the three-factor * product reduces to [0] plus single circle-monomials
    assert (0, ()) in reduced.terms
    coeff = coefficient_of(push, (1, 1, 1), 3)
    # independently recomputed from the displayed orbit polynomial:
    s, t = PolyFp.variable(2, 2, 0), PolyFp.variable(2, 2, 1)
    by_hand = (s * s * t) + (t * t * (s + t)) + ((s + t) * (s + t) * s)
    assert by_hand == poly_st("s^3 + s^2*t + t^3")
    assert coeff == by_hand
    # degree-2 part of b1 o b1 cancels mod 2
    assert coefficient_of(push, (1, 1), 2).is_zero()


def test_worked_example_height_one_model():
    ring1 = CycRing(2, 1, 2)
    fgl1 = honda_fgl(2, 1, 8)
    terms = [
        (("s", 2), ("t", 1)),
        (("t", 2), ("s+t", 1)),
        (("s+t", 2), ("s", 1)),
    ]
    push = beta_pushforward(orbit_from_terms(terms, ring1, fgl1), 8)
    assert coefficient_of(push, (1, 1, 1), 3).is_zero()


def _assert_pushforward_matches_all_pairs_oracle(orbit, degree):
    fast = beta_pushforward(orbit, degree)
    slow = all_pairs_beta_pushforward(orbit, degree)
    assert fast.terms == slow.terms
    assert fast.render() == slow.render()


@pytest.mark.parametrize("degree", [8, 12, 14, 16])
def test_a4_pushforward_matches_all_pairs_oracle(degree):
    fgl = honda_fgl(2, 2, degree)
    ring = ring22()
    w, z = ring.variable(0), ring.variable(1)
    orbit = weyl_orbit_restriction(w * w * z, [[z, ring.fgl_of_variables(fgl)]], fgl)
    _assert_pushforward_matches_all_pairs_oracle(orbit, degree)


def test_height_one_pushforward_matches_all_pairs_oracle():
    terms = [(("s", 2), ("t", 1)), (("t", 2), ("s+t", 1)), (("s+t", 2), ("s", 1))]
    orbit = orbit_from_terms(terms, CycRing(2, 1, 2), honda_fgl(2, 1, 8))
    _assert_pushforward_matches_all_pairs_oracle(orbit, 8)


def test_single_term_pushforward():
    ring = ring22()
    push = beta_pushforward(
        orbit_from_terms([(("s", 2), ("t", 1))], ring, FGL22), 8
    )
    assert coefficient_of(push, (1, 1, 1), 3) == poly_st("s^2*t")


def test_pushforward_deeper_than_the_law_raises():
    # a law truncated at degree 6 has no coefficients to give at degree 12
    orbit = orbit_from_terms([(("s", 1),)], ring22(), honda_fgl(2, 2, 6))
    with pytest.raises(HopfError):
        beta_pushforward(orbit, 12)
    assert beta_pushforward(orbit, 6) == b_series(PolyFp.variable(2, 2, 0), 2, 2, 6)


def test_mod_indecomposables_rules():
    p1 = PolyFp.variable(2, 2, 0)
    m = HopfExpr.omono(2, 2, 8, (1,), p1)
    mm = m.star_mul(m)
    assert mod_indecomposables(mm).is_zero()  # product of two positives dies
    tagged = HopfExpr.grouplike(2, 2, 8, 1).star_mul(m)
    assert mod_indecomposables(tagged) == m   # [c] * m -> m
    g = HopfExpr.grouplike(2, 2, 8, 1)
    assert mod_indecomposables(g) == g
    # idempotent and linear
    mixed = mm + tagged + g
    once = mod_indecomposables(mixed)
    assert mod_indecomposables(once) == once
    assert once == mod_indecomposables(mm) + mod_indecomposables(tagged) + g


def test_coefficient_degree_bound():
    with pytest.raises(HopfError):
        coefficient_of(HopfExpr.grouplike(2, 2, 4, 0), (1,), 5)


def test_coefficient_of_normalizes_indices_as_hopf_expr_does():
    # indices that HopfExpr refuses raise here too; the order of the indices
    # does not matter, and a pure b_1 power at or above weight p^n = 4 reads
    # zero, as HopfExpr drops it
    s = PolyFp.variable(2, 2, 0)
    e = HopfExpr.omono(2, 2, 4, (1, 2), s) + HopfExpr.omono(2, 2, 4, (1, 1, 1), s * s)
    for bad in [(0,), (), (2, 0)]:
        with pytest.raises(HopfError):
            HopfExpr.omono(2, 2, 4, bad)
        with pytest.raises(HopfError):
            coefficient_of(e, bad, 0)
    assert coefficient_of(e, (2, 1), 1) == coefficient_of(e, (1, 2), 1) == s
    assert coefficient_of(e, (1, 1, 1), 2) == s * s
    assert HopfExpr.omono(2, 2, 4, (1, 1, 1, 1)).is_zero()
    assert coefficient_of(e, (1, 1, 1, 1), 0).is_zero()
    assert coefficient_of(e, (1, 1, 1, 1, 1), 0).is_zero()


# -- Hurewicz ----------------------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_hurewicz_table(p, n):
    q = p ** n
    for r in range(1, q):
        assert hurewicz_eval({r: 1}, r, p, n) == HopfExpr.omono(p, n, 0, (1,) * r)
        for t in range(1, r):
            assert hurewicz_eval({r: 1}, t, p, n).is_zero()
        assert hurewicz_eval({r: 1}, 0, p, n) == HopfExpr.grouplike(p, n, 0, 0)
    for e in range(1, p):
        assert hurewicz_eval({0: e}, 0, p, n) == HopfExpr.grouplike(p, n, 0, e)
        for t in range(1, q):
            assert hurewicz_eval({0: e}, t, p, n).is_zero()


def test_hurewicz_special_form():
    img = hurewicz_eval({0: 1, 3: 1}, 3, 2, 2)
    assert img == HopfExpr.omono(2, 2, 0, (1, 1, 1))
    img0 = hurewicz_eval({0: 1, 3: 1}, 0, 2, 2)
    assert img0 == HopfExpr.grouplike(2, 2, 0, 1)


def test_hurewicz_zero_element():
    assert hurewicz_eval({}, 0, 2, 2) == HopfExpr.grouplike(2, 2, 0, 0)
    assert hurewicz_eval({}, 2, 2, 2).is_zero()


def test_hurewicz_multiplicativity():
    # evaluating x^a then x^b against the convolved coproduct agrees with
    # x^(a+b), on exponents staying below p^n
    for p, n in [(2, 2), (3, 1)]:
        q = p ** n
        for a in range(1, q):
            for b in range(1, q - a):
                for t in range(q):
                    convolved = HopfExpr.zero(p, n, 0)
                    for u in range(t + 1):
                        left = hurewicz_eval({a: 1}, u, p, n)
                        right = hurewicz_eval({b: 1}, t - u, p, n)
                        if left.is_zero() or right.is_zero():
                            continue
                        convolved = convolved + left.circ_mul(right)
                    direct = hurewicz_eval({a + b: 1}, t, p, n)
                    assert mod_indecomposables(convolved) == direct


def _check_hurewicz_against_coproduct(element, p, n):
    for t in range(p ** n):
        for degree in (0, 3):
            fast = hurewicz_eval(element, t, p, n, degree)
            slow = hurewicz_by_coproduct(element, t, p, n, degree)
            assert fast == slow, (element, t, degree)
            assert fast.render() == slow.render(), (element, t, degree)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (2, 3)])
def test_hurewicz_closed_form_matches_coproduct_on_every_element(p, n):
    q = p ** n
    for coeffs in itertools.product(range(p), repeat=q):
        _check_hurewicz_against_coproduct(dict(enumerate(coeffs)), p, n)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1)])
def test_hurewicz_closed_form_matches_coproduct_on_a_sample(p, n):
    rng = random.Random(9000 + 10 * p + n)
    q = p ** n
    for _ in range(60):
        _check_hurewicz_against_coproduct(
            {k: rng.randrange(p) for k in range(q)}, p, n
        )


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_kn_injectivity(p, n):
    report = verify_kn_injectivity(p, n)
    assert report["ok"]
    # one witness row per homogeneous element plus the special forms
    assert len(report["witnesses"]) == (p ** n) * (p - 1) + (p - 1) ** 2


def test_kn_injectivity_desk_scale_guard():
    with pytest.raises(HopfError):
        verify_kn_injectivity(2, 5)


@pytest.mark.parametrize("p", [4, 6, 9, 1, 0])
def test_kn_injectivity_needs_a_prime(p):
    # unchecked, a composite p gives a plausible table and p = 0 or 1 an
    # empty one
    with pytest.raises(HopfError, match="not a prime"):
        verify_kn_injectivity(p, 1)


@pytest.mark.parametrize("n", [0, -1])
def test_kn_injectivity_needs_positive_height(n):
    with pytest.raises(HopfError, match="height"):
        verify_kn_injectivity(2, n)
