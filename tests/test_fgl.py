from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromcat.fgl
from chromcat import CycRing, PolyFp, honda_fgl, series_inverse
from oracles import rational_honda_fgl, rational_honda_log, series_inverse_by_substitution


def test_series_arithmetic():
    x = PolyFp.variable(None, 1, 0, bound=6)
    one = PolyFp(None, 1, {(0,): 1}, bound=6)
    f = x + x * x
    assert (f * f).coefficient((2,)) == 1
    assert (f * f).coefficient((3,)) == 2
    assert ((one + x) ** 3).coefficient((2,)) == 3
    # truncation drops high terms
    assert (x ** 7).is_zero()


def test_series_inverse_exact():
    # log = x + x^2/2 inverts to x - x^2/2 + x^3/2 - ... (hand computation)
    log = PolyFp(None, 1, {(1,): 1, (2,): Fraction(1, 2)}, bound=4)
    exp = series_inverse(log)
    assert exp.coefficient((1,)) == 1
    assert exp.coefficient((2,)) == Fraction(-1, 2)
    assert exp.coefficient((3,)) == Fraction(1, 2)
    # round trip both ways
    x = PolyFp.variable(None, 1, 0, bound=4)
    assert log.substitute([exp]) == x
    assert exp.substitute([log]) == x


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_series_inverse_matches_one_substitution_per_degree(data):
    # integer, Fraction and F_p series x + ... to degree 1..16, sparse and
    # dense: the one-walk inverse equals the inverse that cancels
    # coefficient k of f(g) by a full substitution at each degree k
    p = data.draw(st.sampled_from([None, "fraction", 2, 3, 5, 7]), label="p")
    d = data.draw(st.integers(min_value=1, max_value=16), label="d")
    if p == "fraction":
        p, entry = None, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    elif p is None:
        entry = st.integers(-6, 6)
    else:
        entry = st.integers(-p, 2 * p)
    density = data.draw(st.sampled_from([0.0, 0.25, 1.0]), label="density")
    coeffs = {(1,): 1}
    for k in range(2, d + 1):
        if data.draw(st.floats(0, 1), label="draw %d" % k) < density:
            coeffs[(k,)] = data.draw(entry, label="f_%d" % k)
    f = PolyFp(p, 1, coeffs, bound=d)
    got, want = series_inverse(f), series_inverse_by_substitution(f)
    assert got.coeffs == want.coeffs
    assert (type(got), got.p, got.nvars, got.bound, got.cap) == (PolyFp, p, 1, d, None)
    assert f.substitute([got]) == PolyFp.variable(p, 1, 0, bound=d)


@pytest.mark.parametrize("f", [
    PolyFp(None, 2, {(1, 0): 1}, bound=4),  # two variables
    PolyFp(None, 1, {(1,): 1}),  # no bound
    PolyFp(None, 1, {(1,): 2, (2,): 1}, bound=4),  # leading coefficient 2
    PolyFp(3, 1, {(1,): 2}, bound=4),  # -1 mod 3
    PolyFp(None, 1, {(0,): 1, (1,): 1}, bound=4),  # a constant term
    PolyFp(2, 1, {(1,): 1}, bound=0),  # x lost to the bound
    PolyFp(None, 1, {(2,): 1}, bound=4),  # no linear term
])
def test_series_inverse_refuses_what_is_not_x_plus_higher_terms(f):
    for inverse in (series_inverse, series_inverse_by_substitution):
        with pytest.raises(ValueError, match="of the form x"):
            inverse(f)


@pytest.mark.parametrize("p,n,degree", [
    (2, 1, 8), (2, 2, 8), (3, 1, 8), (3, 2, 9), (2, 2, 3),
])
def test_fgl_axioms(p, n, degree):
    fgl = honda_fgl(p, n, degree)
    assert fgl.axiom_failures() == []


@pytest.mark.parametrize("p,n,degree", [(2, 1, 8), (2, 2, 8), (3, 1, 8), (3, 2, 9)])
def test_p_series_is_height_power(p, n, degree):
    fgl = honda_fgl(p, n, degree)
    ps = fgl.p_series()
    expected = {(p ** n,): 1} if p ** n <= degree else {}
    assert ps.coeffs == expected
    assert fgl.n_series(1).coeffs == {(1,): 1}


def test_height_one_law_at_two():
    # frozen from the exact rational computation: exp = x - x^2/2 + x^3/2...
    # gives F = s + t - st + s^2 t + s t^2 + ... which reduces mod 2 to
    fgl = honda_fgl(2, 1, 3)
    assert fgl.series.coeffs == {
        (1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1, (1, 2): 1,
    }


def test_height_two_law_at_two():
    fgl = honda_fgl(2, 2, 8)
    low = {e: c for e, c in fgl.series.coeffs.items() if sum(e) < 4}
    assert low == {(1, 0): 1, (0, 1): 1}
    assert fgl.series.coefficient((2, 2)) == 1
    small = honda_fgl(2, 2, 3)
    assert small.series.coeffs == {(1, 0): 1, (0, 1): 1}


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_honda_log_and_exp_invert_each_other(p, n):
    log = rational_honda_log(p, n, 16)
    exp = series_inverse(log)
    x = PolyFp.variable(None, 1, 0, bound=16)
    assert log.substitute([exp]) == x
    assert exp.substitute([log]) == x


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_honda_matches_rational_oracle(p, n):
    for degree in range(1, 17):
        fgl = honda_fgl(p, n, degree)
        oracle = rational_honda_fgl(p, n, degree)
        assert fgl.series.coeffs == oracle.series.coeffs, degree
        assert fgl.series.bound == oracle.series.bound == degree


def test_honda_inverts_the_scaled_log_over_the_integers(monkeypatch):
    # the series handed to series_inverse is l(2x)/2, and both it and its
    # inverse carry int coefficients: no Fraction enters the construction
    seen = []

    def recording_inverse(f):
        g = series_inverse(f)
        seen.append((f, g))
        return g

    monkeypatch.setattr(chromcat.fgl, "series_inverse", recording_inverse)
    honda_fgl(2, 1, 16)
    [(scaled_log, exp)] = seen
    log = rational_honda_log(2, 1, 16)
    assert scaled_log.coeffs == {
        (d,): c * 2 ** (d - 1) for (d,), c in log.coeffs.items()
    }
    for series in (scaled_log, exp):
        assert series.p is None
        assert all(type(c) is int for c in series.coeffs.values())


def test_honda_refuses_a_law_that_is_not_p_integral(monkeypatch):
    # x^3 added to the true inverse breaks the divisibility of G by p^(a+b-1)
    def perturbed_inverse(f):
        return series_inverse(f) + PolyFp(None, 1, {(3,): 1}, bound=f.bound)

    monkeypatch.setattr(chromcat.fgl, "series_inverse", perturbed_inverse)
    with pytest.raises(ValueError, match="2-integral"):
        honda_fgl(2, 1, 8)


@pytest.mark.parametrize("p,degree", [(1, 4), (6, 5), (0, 4), (4, 8), (-3, 4)])
def test_honda_needs_a_prime(p, degree):
    # at p = 0 or 1 the logarithm's powers of p never pass the degree
    with pytest.raises(ValueError, match="not a prime"):
        honda_fgl(p, 1, degree)


def test_n_series_refuses_negative_n():
    fgl = honda_fgl(2, 1, 8)
    with pytest.raises(ValueError):
        fgl.n_series(-1)
    assert fgl.n_series(0).is_zero()


def test_degree_cap():
    with pytest.raises(ValueError):
        honda_fgl(2, 1, 17)


def test_formal_sum_in_series():
    fgl = honda_fgl(2, 2, 8)
    ring = CycRing(2, 2, 2)
    w, z = ring.variable(0), ring.variable(1)
    # w +_F z is F's series less every term with an exponent at the cap 4
    assert ring.fgl_sum(fgl, w, z) == ring.elt(
        {e: c for e, c in fgl.series.coeffs.items() if max(e) < ring.cap})
    # w +_F w = [2](w) = w^4, kept by a ring whose cap is 8
    line = CycRing(2, 3, 1)
    w = line.variable(0)
    assert line.fgl_sum(fgl, w, w) == w ** 4
