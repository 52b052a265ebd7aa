"""The A_4 worked example, end to end.

One call drives the whole stack: build the height-2 formal group law, check
its 2-series, restrict the transfer class w^2 z along the Mackey formula,
push the beta generating function forward, reduce mod *-decomposables and
extract the degree-3 coefficient of b_1 o b_1 o b_1; then certify on the
invariant-theory side that eta^2 lies outside the subring generated by the
Chern classes D_1^2, D_0^2, and summarize the colimit point counts that
separate level 1 from the top level.
"""

from __future__ import annotations

from .categories import Fusion, quillen_category
from .colimits import colim_points, filtration_tower
from .fgl import honda_fgl
from .hopf import (
    CycRing,
    beta_pushforward,
    coefficient_of,
    mod_indecomposables,
    weyl_orbit_restriction,
)
from .library import load_builtin
from .polyfp import invariant_basis, parse_poly, subring_membership
from .subrings import weyl_action

DEGREE = 8  # the truncation of the formal group law and of the pushforward


class DemoFailure(AssertionError):
    pass


def _require(condition, message):
    if not condition:
        raise DemoFailure(message)


def a4_demo() -> dict:
    """Run the full pipeline; returns the staged report, raising on any
    failed assertion."""
    report = {}

    # Formal group law stage.
    fgl = honda_fgl(2, 2, DEGREE)
    _require(not fgl.axiom_failures(), "formal group law axioms failed")
    two = fgl.p_series()
    _require(
        two.coeffs == {(4,): 1},
        "2-series of the height-2 law should be x^4 up to degree %d" % DEGREE,
    )
    low = {e: c for e, c in fgl.series.coeffs.items() if sum(e) < 4}
    _require(
        low == {(1, 0): 1, (0, 1): 1},
        "height-2 law should be s + t below degree 4",
    )
    report["fgl"] = fgl.series.render(("s", "t"))
    report["two_series"] = two.render(("x",))

    # Mackey restriction of the transfer class w^2 z.
    ring = CycRing(2, 2, 2)
    w, z = ring.variable(0), ring.variable(1)
    f_wz = ring.fgl_of_variables(fgl)
    orbit = weyl_orbit_restriction(w * w * z, [[z, f_wz]], fgl)
    _require(orbit.terms is not None, "Weyl orbit left the series-argument tags")
    _require(len(orbit.terms) == 3, "C_3 orbit should have three summands")
    _require(
        orbit.total == w * w * z + z * z * f_wz + f_wz * f_wz * w,
        "Mackey restriction does not match its three-summand expansion",
    )
    report["mackey_terms"] = orbit.rendered_terms()
    report["mackey_total"] = orbit.total.render()

    # Pushforward, reduction, coefficient extraction.
    push = beta_pushforward(orbit, DEGREE)
    reduced = mod_indecomposables(push)
    coeff = coefficient_of(reduced, (1, 1, 1), 3)
    expected = parse_poly("s^3 + s^2*t + t^3", 2, 2, names=("s", "t"))
    _require(
        coeff == expected,
        "degree-3 coefficient of b1ob1ob1 should be s^3 + s^2*t + t^3",
    )
    report["reduced"] = reduced.render()
    report["b1_cube_degree3"] = coeff.render(names=("s", "t"))

    # Invariant theory: eta and eta^2 avoid the Chern subring generators.
    a4 = load_builtin("a4")
    weyl = weyl_action(Fusion(a4, 2))
    d1 = parse_poly("x^2 + x*y + y^2", 2, 2)
    d0 = parse_poly("x^2*y + x*y^2", 2, 2)
    eta = parse_poly("x^3 + x^2*y + y^3", 2, 2)
    for f in (d1, d0, eta):
        for m in weyl.generators:
            _require(f.substitute_linear(m) == f, "generator is not Weyl-invariant")
    basis2 = invariant_basis(weyl, 2)
    _require(basis2 == [d1], "degree-2 invariants should be spanned by D_1")
    _require(
        not subring_membership(eta, [d1 ** 2, d0 ** 2]),
        "eta should avoid the Chern subring",
    )
    _require(
        not subring_membership(eta ** 2, [d1 ** 2, d0 ** 2]),
        "eta^2 should avoid the Chern subring",
    )
    report["eta_sq_in_chern_subring"] = False

    # Colimit point counts: top level agrees with the Quillen category while
    # level 1 is strictly smaller at q = 4 (the isogeny summary).
    tower = filtration_tower(a4, 2, 4)
    sizes = tower.sizes()
    top_direct = colim_points(quillen_category(a4, 2), 4).size
    _require(sizes == [6, 5], "q=4 tower sizes should be [6, 5]")
    _require(top_direct == sizes[0], "top level should match the Quillen colimit")
    tower2 = filtration_tower(a4, 2, 2)
    _require(tower2.sizes() == [2, 2], "q=2 tower sizes should be [2, 2]")
    report["colim"] = {
        "q4_sizes": sizes,
        "q2_sizes": tower2.sizes(),
        "top_equals_quillen": True,
        "level1_strictly_smaller_at_q4": sizes[1] < sizes[0],
    }

    report["ok"] = True
    return report
