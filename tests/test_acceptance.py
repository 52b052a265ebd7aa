"""Acceptance gate: one timed test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every numeric expectation here was first confirmed by the
independent oracles in oracles.py (subset scans, all-tuples level checks,
naive equivalence closure, direct polynomial expansion) before being frozen.
Caches are cleared before timed sections so the stated bounds are honest.
"""

from __future__ import annotations

import itertools
import time

import conftest
from chromcat import (
    Fusion,
    HopfExpr,
    PolyFp,
    build_CR,
    build_category,
    colim_points,
    filtration_tower,
    hom_chain_report,
    honda_fgl,
    hurewicz_eval,
    invariant_basis,
    load_builtin,
    parse_poly,
    quillen_category,
    skeleton,
    subring_membership,
    verify_kn_injectivity,
)
from chromcat.demo import a4_demo
from chromcat.subrings import SubringPresentation, weyl_action
from oracles import colim_size_naive, skeleton_edge
from test_properties import run_full_battery


def _timed(label, limit_s, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, "%s exceeded %.0fs (took %.2fs)" % (label, limit_s, elapsed)
    print("ACCEPTANCE %s: PASS (%.2fs, limit %.0fs)" % (label, elapsed, limit_s))
    return result


def test_criterion_1_a4_skeletons():
    def body():
        a4 = load_builtin("a4")
        sk2 = skeleton(build_category(a4, 2, 2))
        assert [(c.rank, c.aut_order) for c in sk2.classes] == [(1, 1), (2, 3)]
        edge2 = skeleton_edge(sk2, 1, 2)
        assert edge2.hom_size == 3 and edge2.orbits == ((3, 1),)
        sk1 = skeleton(build_category(a4, 2, 1))
        assert [(c.rank, c.aut_order) for c in sk1.classes] == [(1, 1), (2, 6)]
        edge1 = skeleton_edge(sk1, 1, 2)
        assert edge1.orbits == ((3, 2),)

    _timed("1 (A_4 skeletons)", 1.0, body)


def test_criterion_2_stabilization():
    def body():
        a4 = load_builtin("a4")
        assert hom_chain_report(a4, 2).stabilization_rank == 2
        one = build_category(a4, 2, 1)
        two = build_category(a4, 2, 2)
        assert not one.equals(two)
        assert two.equals(quillen_category(a4, 2))

    _timed("2 (stabilization rank)", 1.0, body)


def test_criterion_3_tower_point_counts():
    def body():
        a4 = load_builtin("a4")
        tower = filtration_tower(a4, 2, 4)
        assert tower.sizes() == [6, 5]
        assert len(tower.surjections) == 1
        assert set(tower.surjections[0]) == set(range(5))
        assert filtration_tower(a4, 2, 2).sizes() == [2, 2]
        # oracle re-derivation: naive closure over all 29 points
        quillen = quillen_category(a4, 2)
        level1 = build_category(a4, 2, 1)
        assert sum(colim_points(quillen, 4).object_counts) == 29
        assert colim_size_naive(quillen, 4) == 6
        assert colim_size_naive(level1, 4) == 5
        assert colim_size_naive(quillen, 2) == 2
        assert colim_size_naive(level1, 2) == 2

    _timed("3 (chromatic tower point counts)", 1.0, body)


def test_criterion_4_invariant_theory():
    def body():
        a4 = load_builtin("a4")
        weyl = weyl_action(Fusion(a4, 2))
        d1 = parse_poly("x^2 + x*y + y^2", 2, 2)
        d0 = parse_poly("x^2*y + x*y^2", 2, 2)
        eta = parse_poly("x^3 + x^2*y + y^3", 2, 2)
        assert invariant_basis(weyl, 2) == [d1]
        deg3 = invariant_basis(weyl, 3)
        assert len(deg3) == 2
        span = {
            sum(c, PolyFp.zero(2, 2))
            for k in range(3)
            for c in itertools.combinations(deg3, k)
        }
        assert d0 in span and eta in span
        assert (eta ** 2 + eta * d0 + d1 ** 3 + d0 ** 2).is_zero()
        assert not subring_membership(eta, [d1 ** 2, d0 ** 2])
        assert not subring_membership(eta ** 2, [d1 ** 2, d0 ** 2])

    _timed("4 (invariant theory)", 1.0, body)


def test_criterion_5_subring_recovery():
    def body():
        a4 = load_builtin("a4")
        d1 = parse_poly("x^2 + x*y + y^2", 2, 2)
        d0 = parse_poly("x^2*y + x*y^2", 2, 2)
        eta = parse_poly("x^3 + x^2*y + y^3", 2, 2)
        chern = build_CR(a4, SubringPresentation(Fusion(a4, 2), [d1 ** 2, d0 ** 2]))
        assert chern.equals(build_category(a4, 2, 1))
        full = build_CR(a4, SubringPresentation(Fusion(a4, 2), [d1, d0, eta]))
        assert full.equals(quillen_category(a4, 2))

    _timed("5 (C_R recovery)", 5.0, body)


def test_criterion_6_fgl_pipeline():
    def body():
        fgl = honda_fgl(2, 2, 8)
        assert fgl.axiom_failures() == []
        assert fgl.p_series().coeffs == {(4,): 1}
        low = {e: c for e, c in fgl.series.coeffs.items() if sum(e) < 4}
        assert low == {(1, 0): 1, (0, 1): 1}
        report = a4_demo()
        assert report["ok"]
        assert report["b1_cube_degree3"] == "s^3 + s^2*t + t^3"

    _timed("6 (FGL / Hopf pipeline)", 5.0, body)


def test_criterion_7_hurewicz():
    def body():
        for p in (2, 3):
            for n in (1, 2):
                q = p ** n
                for r in range(1, q):
                    assert hurewicz_eval({r: 1}, r, p, n) == HopfExpr.omono(
                        p, n, 0, (1,) * r
                    )
                    for t in range(1, r):
                        assert hurewicz_eval({r: 1}, t, p, n).is_zero()
                    assert hurewicz_eval({r: 1}, 0, p, n) == HopfExpr.grouplike(
                        p, n, 0, 0
                    )
                for e in range(1, p):
                    assert hurewicz_eval({0: e}, 0, p, n) == HopfExpr.grouplike(
                        p, n, 0, e
                    )
                    for t in range(1, q):
                        assert hurewicz_eval({0: e}, t, p, n).is_zero()
        for p, n in ((2, 1), (2, 2), (3, 1)):
            assert verify_kn_injectivity(p, n)["ok"]

    _timed("7 (Hurewicz formulas)", 10.0, body)


def test_criterion_8_property_suites():
    conftest.group.cache_clear()
    conftest.category.cache_clear()
    _timed("8 (library property suites)", 300.0, run_full_battery)
