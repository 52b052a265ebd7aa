"""Hopf-ring calculus for the mod-p homology of v_n-periodic spectra's spaces.

Everything is modelled after the quotient calculus actually used in the
worked computation: expressions are F_p-linear combinations of *-monomials
whose factors are grouplike tags [c] or circle-monomials b_{i_1} o ... o
b_{i_k}, with bivariate (s, t) polynomial coefficients truncated at a degree
bound.  Rewrite rules wired in:

  [c] * [d] = [c+d]        [c] o [d] = [cd]        [c] o m = c m  (deg m > 0)
  pure b_1 monomials of weight >= p^n vanish

Every b-index is at least 1 (b_i o b_0 = 0 for i > 0, so b_0 is never
written); a circle-monomial with a lower index raises ``HopfError``.

Mixed circle-monomials (such as b_1 o b_2) are kept as formal nonzero
symbols; nonvanishing is never concluded from them.  The unit v_n is
suppressed, so all scalars live in F_p, and every coefficient lies in
F_p[s, t] truncated above the expression's degree.

``CycRing`` models the coefficient ring F_p[x_1..x_r]/(x_i^(p^n)) of the
classifying space of (Z/p)^r with v_n set to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .fgl import FGL
from .groups import closure
from .modp import is_prime
from .polyfp import PolyFp, sum_of_products

WEYL_CLOSURE_CAP = 24


class HopfError(ValueError):
    pass


def _check_prime(p) -> None:
    if not is_prime(p):
        raise HopfError("%d is not a prime" % p)


# -- truncated polynomial ring F_p[x_1..x_r]/(x_i^(p^n)) -----------------------


class RingElt(PolyFp):
    """An element of a ``CycRing``: ``PolyFp`` arithmetic under the exponent
    cap, printed in ascending term order on the variables w, z, u, v."""

    __slots__ = ()

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        return super().render(names or "wzuv"[: self.nvars], key=lambda e: (sum(e), e))


class CycRing:
    """The model ring for B(Z/p)^r at height n: exponents are capped below
    p^n per variable and anything reaching the cap dies."""

    def __init__(self, p: int, height: int, rank: int):
        self.p = p
        self.height = height
        self.rank = rank
        self.cap = p ** height

    def elt(self, coeffs=None) -> RingElt:
        return RingElt(self.p, self.rank, coeffs, cap=self.cap)

    def zero(self) -> RingElt:
        return self.elt()

    def one(self) -> RingElt:
        return self.elt({(0,) * self.rank: 1})

    def variable(self, i: int) -> RingElt:
        exps = [0] * self.rank
        exps[i] = 1
        return self.elt({tuple(exps): 1})

    def fgl_sum(self, fgl: FGL, a: RingElt, b: RingElt) -> RingElt:
        """a +_F b evaluated in the ring (nilpotence truncates the series)."""
        # surviving monomials have every exponent below the cap
        if fgl.degree < self.rank * (self.cap - 1):
            raise HopfError("formal group law is not truncated deep enough")
        return fgl.series.substitute([a, b])

    def fgl_of_variables(self, fgl: FGL) -> RingElt:
        if self.rank != 2:
            raise HopfError("F(w, z) needs the rank-2 ring")
        return self.fgl_sum(fgl, self.variable(0), self.variable(1))


# -- Weyl orbit restriction (Mackey formula) ------------------------------------


@dataclass
class OrbitRestriction:
    """A Mackey restriction: the reduced ring value plus, when the orbit of a
    monomial stays inside the tag set {w, z, F(w,z)}, its structured form as a
    list of ((tag, power), ...) terms ready for the homology pushforward."""

    ring: CycRing
    fgl: FGL
    total: RingElt
    terms: Optional[list]  # list of tuples of (tag, power); tags "s", "t", "s+t"

    def rendered_terms(self) -> list:
        if self.terms is None:
            return []
        return [
            " * ".join("%s^%d" % (tag, e) for tag, e in term) if term else "1"
            for term in self.terms
        ]


def _tag_values(ring: CycRing, fgl: FGL) -> dict:
    """Ring values of the series-argument tags; None where the rank lacks one."""
    return {
        "s": ring.variable(0),
        "t": ring.variable(1) if ring.rank > 1 else None,
        "s+t": ring.fgl_of_variables(fgl) if ring.rank == 2 else None,
    }


def close_weyl_action(ring: CycRing, generators: Sequence[Sequence[RingElt]]) -> list:
    """Close substitution endomorphisms (tuples of variable images) into a
    group; raises if the closure does not stop within WEYL_CLOSURE_CAP."""
    elements = closure(
        tuple(ring.variable(i) for i in range(ring.rank)),
        [tuple(gen) for gen in generators],
        lambda cur, gen: tuple(img.substitute(gen) for img in cur),
        WEYL_CLOSURE_CAP,
    )
    if elements is None:
        raise HopfError("Weyl action failed to close within %d elements" % WEYL_CLOSURE_CAP)
    return elements


def weyl_orbit_restriction(
    expr: RingElt, generators: Sequence[Sequence[RingElt]], fgl: FGL
) -> OrbitRestriction:
    """Sum of expr over the closed Weyl action (one summand per group
    element, so invariant inputs pick up a multiplicity).

    The ring is the height-n model of ``fgl`` in ``expr``'s variables.  For
    a monomial input whose orbit factors through the tags {w, z, F(w, z)},
    the structured term list is retained; the homology pushforward requires
    that form.
    """
    ring = CycRing(fgl.p, fgl.height, expr.nvars)
    for elt in [expr, *(img for gen in generators for img in gen)]:
        if (elt.p, elt.nvars, elt.cap) != (ring.p, ring.rank, ring.cap):
            raise HopfError("ring element and formal group law disagree")
    action = close_weyl_action(ring, generators)
    total = ring.zero()
    for endo in action:
        total = total + expr.substitute(endo)

    terms = None
    if expr.is_monomial():
        exps = next(iter(expr.coeffs))
        tag_of = {val: tag for tag, val in _tag_values(ring, fgl).items() if val is not None}
        terms = [
            tuple((tag_of.get(endo[i]), e) for i, e in enumerate(exps) if e)
            for endo in action
        ]
        if any(tag is None for term in terms for tag, _ in term):
            terms = None
    return OrbitRestriction(ring=ring, fgl=fgl, total=total, terms=terms)


# -- Hopf expressions ------------------------------------------------------------

# A star-monomial is (c, omonos): the *-product of the grouplike [c] with the
# circle-monomials in omonos (each a sorted tuple of b-indices >= 1).


class HopfExpr:
    """F_p-linear combination of *-monomials with (s, t)-polynomial
    coefficients, truncated above total degree ``degree``.

    ``terms`` is a dict or an iterable of (star, coefficient) pairs;
    coefficients are truncated at ``degree`` and added over the stars that
    normalize to the same star, and stars left with a zero coefficient are
    dropped.  p must be prime, the height at least one and the degree at
    least zero.  Every coefficient must be a ``PolyFp`` in F_p[s, t]: p
    equal to the expression's, two variables, no exponent cap and no
    degree bound below ``degree`` (a coefficient known to a lower degree
    would clash with the others' truncation in a product).  A star's tag
    and b-indices must be integers.  Anything else raises ``HopfError``, so
    every stored coefficient is truncated exactly at ``degree``.

    The * and o products form all their stars' coefficients with one
    ``sum_of_products`` call; a pair of terms whose lowest degrees sum
    above ``degree`` is skipped unformed."""

    __slots__ = ("p", "height", "degree", "terms")

    def __init__(self, p: int, height: int, degree: int, terms=()):
        _check_prime(p)
        if height < 1:
            raise HopfError("need height >= 1")
        if degree < 0:
            raise HopfError("need degree >= 0")
        self.p = p
        self.height = height
        self.degree = degree
        clean = {}
        for star, poly in terms.items() if isinstance(terms, dict) else terms:
            if (
                poly.p != p
                or poly.nvars != 2
                or poly.cap is not None
                or (poly.bound is not None and poly.bound < degree)
            ):
                raise HopfError(
                    "coefficients must lie in F_%d[s, t] truncated above degree %d"
                    % (p, degree)
                )
            star = self._normalize_star(star)
            if star is None:
                continue
            if poly.bound != degree:
                poly = poly.truncate(degree)
            clean[star] = clean[star] + poly if star in clean else poly
        self.terms = {star: poly for star, poly in clean.items() if not poly.is_zero()}

    def _normalize_star(self, star):
        c, omonos = star
        if not isinstance(c, int) or not all(isinstance(i, int) for om in omonos for i in om):
            raise HopfError("star %r needs an integer tag and b-indices" % (star,))
        kept = []
        for om in omonos:
            om = tuple(sorted(om))
            if not om:
                raise HopfError("empty circle-monomial")
            if om[0] < 1:
                raise HopfError("b-index %d is below 1" % om[0])
            if len(om) >= self.p ** self.height and all(i == 1 for i in om):
                return None  # pure b_1 power at or above weight p^n
            kept.append(om)
        return (c % self.p, tuple(sorted(kept)))

    # -- helpers ------------------------------------------------------------------

    def _ctx(self):
        return (self.p, self.height, self.degree)

    def _check(self, other):
        if self._ctx() != other._ctx():
            raise HopfError("expressions live in different contexts")

    @classmethod
    def zero(cls, p, height, degree):
        return cls(p, height, degree)

    @classmethod
    def grouplike(cls, p, height, degree, c, coeff: Optional[PolyFp] = None):
        _check_prime(p)
        coeff = coeff if coeff is not None else PolyFp.constant(p, 2, 1)
        return cls(p, height, degree, {(c, ()): coeff})

    @classmethod
    def omono(cls, p, height, degree, indices, coeff: Optional[PolyFp] = None):
        _check_prime(p)
        coeff = coeff if coeff is not None else PolyFp.constant(p, 2, 1)
        return cls(p, height, degree, {(0, (tuple(indices),)): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HopfExpr)
            and self._ctx() == other._ctx()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._ctx(), frozenset(self.terms.items())))

    def __add__(self, other: "HopfExpr") -> "HopfExpr":
        self._check(other)
        return HopfExpr(
            self.p, self.height, self.degree, [*self.terms.items(), *other.terms.items()]
        )

    def _products(self, other, product_star) -> "HopfExpr":
        """The sum over pairs of terms of their coefficient product, filed
        under ``product_star(star1, star2)``: a (normalized star, scalar)
        pair, or None when the pair's product is zero.

        One pass over the pairs files each pair's coefficient dicts under
        its output star, and one ``sum_of_products`` call sums every
        star's group into a plain dict, so no coefficient product is formed
        alone and each nonzero star is reduced and stored once.
        That call checks every coefficient of both operands once: F_p[s, t],
        bound ``degree``, no cap, or the ValueError of a mismatched product.
        As every coefficient is truncated at ``degree``, a pair whose lowest
        degrees sum past it multiplies to zero: the right terms are sorted
        by lowest degree and each left term stops at the first one that
        does not fit."""
        self._check(other)
        right = sorted(
            ((poly.min_degree(), star, poly) for star, poly in other.terms.items()),
            key=lambda item: item[0],
        )
        groups = {}
        for star1, p1 in self.terms.items():
            room = self.degree - p1.min_degree()
            for d2, star2, p2 in right:
                if d2 > room:
                    break
                made = product_star(star1, star2)
                if made is not None:
                    star, c = made
                    groups.setdefault(star, []).append((p1.coeffs, p2.coeffs, c))
        # the result is stored as formed, without the constructor's checks
        out = object.__new__(HopfExpr)
        out.p, out.height, out.degree = self.p, self.height, self.degree
        out.terms = sum_of_products(groups, [
            PolyFp.zero(self.p, 2, self.degree), *self.terms.values(), *other.terms.values()
        ])
        return out

    def star_mul(self, other: "HopfExpr") -> "HopfExpr":
        """The * product: grouplike tags add, circle factors concatenate.
        Each factor already passed the pure-b_1 rule, so no product star
        vanishes."""
        p = self.p
        return self._products(other, lambda star1, star2: (
            ((star1[0] + star2[0]) % p, tuple(sorted(star1[1] + star2[1]))), 1
        ))

    def circ_mul(self, other: "HopfExpr") -> "HopfExpr":
        """The o product on atomic expressions (grouplikes and single
        circle-monomials); Hopf-ring distributivity over * is never needed in
        this calculus and is deliberately not implemented.  A nonzero left
        operand refuses a non-atomic term on either side, even one whose
        every product the bound kills; a zero left operand refuses nothing."""
        self._check(other)
        p = self.p
        if self.terms and any(len(ms) > 1 for _, ms in (*self.terms, *other.terms)):
            raise HopfError("circle product needs atomic operands")

        def product_star(star1, star2):
            (c1, ms1), (c2, ms2) = star1, star2
            if not ms1 and not ms2:
                return ((c1 * c2) % p, ()), 1
            if not ms1:
                # [c] o m = c m in positive degree; [0] o m = 0.
                return ((0, ms2), c1) if c1 else None
            if not ms2:
                return ((0, ms1), c2) if c2 else None
            star = self._normalize_star((0, (ms1[0] + ms2[0],)))
            return None if star is None else (star, 1)

        return self._products(other, product_star)

    def circ_power(self, k: int) -> "HopfExpr":
        """The k-fold o product from the o-unit [1], for k >= 0."""
        if k < 0:
            raise HopfError("negative circle power")
        out = HopfExpr.grouplike(self.p, self.height, self.degree, 1)
        for _ in range(k):
            out = out.circ_mul(self)
        return out

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (c, ms), poly in sorted(
            self.terms.items(), key=lambda kv: (len(kv[0][1]), kv[0][1], kv[0][0])
        ):
            factors = []
            if not ms or c:
                factors.append("[%d]" % c)
            for om in ms:
                factors.append("o".join("b%d" % i for i in om))
            name = " * ".join(factors)
            coeff = poly.render(names=("s", "t"))
            parts.append(name if coeff == "1" else "(%s) %s" % (coeff, name))
        return " + ".join(parts)

    def __repr__(self):
        return "HopfExpr(%s)" % self.render()


def b_series(argument: PolyFp, p: int, height: int, degree: int) -> HopfExpr:
    """b(u) = [0] + sum_{i>=1} b_i u^i for a series argument u with zero
    constant term."""
    if argument.coefficient((0, 0)):
        raise HopfError("series argument must have zero constant term")
    terms = {(0, ()): PolyFp.constant(argument.p, 2, 1)}
    power = PolyFp.constant(argument.p, 2, 1)
    for i in range(1, degree + 1):
        power = (power * argument).truncate(degree)
        if power.is_zero():
            break
        terms[(0, ((i,),))] = power
    return HopfExpr(p, height, degree, terms)


def beta_pushforward(orbit: OrbitRestriction, degree: int) -> HopfExpr:
    """Image of the beta generating function under a Mackey orbit sum.

    Each factor u^a contributes b(u)^(o a); factors combine by o inside a
    term and term images combine by *, following the standard generating
    function relation for complex oriented theories.
    """
    if orbit.terms is None:
        raise HopfError("orbit sum is not presented in series-argument form")
    p, height = orbit.ring.p, orbit.ring.height
    if orbit.ring.p != orbit.fgl.p or orbit.ring.height != orbit.fgl.height:
        raise HopfError("ring and formal group law disagree")
    if degree > orbit.fgl.degree:
        raise HopfError("formal group law is not truncated deep enough")
    args = {
        "s": PolyFp.variable(p, 2, 0),
        "t": PolyFp.variable(p, 2, 1),
        "s+t": PolyFp(p, 2, orbit.fgl.series.coeffs, bound=degree),
    }
    series = {
        tag: b_series(poly, p, height, degree) for tag, poly in args.items()
    }
    result = HopfExpr.grouplike(p, height, degree, 0)  # the *-unit [0]
    for term in orbit.terms:
        factor = HopfExpr.grouplike(p, height, degree, 1)  # the o-unit [1]
        for tag, power in term:
            factor = factor.circ_mul(series[tag].circ_power(power))
        result = result.star_mul(factor)
    return result


def mod_indecomposables(e: HopfExpr) -> HopfExpr:
    """Quotient by *-decomposables: terms with two or more circle-monomial
    factors die, a lone circle-monomial sheds its grouplike *-factor, and
    grouplike-only terms survive unchanged."""
    return HopfExpr(e.p, e.height, e.degree, (
        ((c, ()) if not ms else (0, ms), poly)
        for (c, ms), poly in e.terms.items()
        if len(ms) < 2
    ))


def coefficient_of(e: HopfExpr, indices: Sequence[int], degree: int) -> PolyFp:
    """The degree-``degree`` part of the coefficient of the named
    circle-monomial in the reduced expression.  The indices are normalized
    as ``HopfExpr`` normalizes a star: an empty tuple or a b-index below 1
    raises ``HopfError``, and a pure b_1 power at or above weight p^n reads
    zero."""
    if degree > e.degree:
        raise HopfError("degree %d exceeds the truncation bound %d" % (degree, e.degree))
    star = e._normalize_star((0, (indices,)))
    poly = mod_indecomposables(e).terms.get(star) if star else None
    if poly is None:
        return PolyFp.zero(e.p, 2)
    return poly.homogeneous_part(degree)


# -- Hurewicz evaluation ---------------------------------------------------------


def _compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def hurewicz_eval(
    element: dict, t: int, p: int, height: int, degree: int = 0
) -> HopfExpr:
    """Image of beta_t under the coalgebra map of a rank-1 ring element,
    reduced mod *-decomposables.

    ``element`` maps integer exponents (< p^height) to integer coefficients
    c_k, read mod p; any other term, zero or not, raises ``HopfError``.  The
    coproduct psi(beta_t) = sum beta_u x beta_v splits t over the terms
    c_k x^k, and a split giving two terms a positive share is a *-product of
    two circle-monomials, which dies.  So beta_0 goes to [c_0], and beta_t
    for t > 0 to the sum over k >= 1 of c_k b_{i_1} o ... o b_{i_k}, one
    summand for each composition (i_1, ..., i_k) of t into k positive parts.
    """
    if not 0 <= t < p ** height:
        raise HopfError("beta index out of range")
    for k, v in element.items():
        if not (isinstance(k, int) and isinstance(v, int) and 0 <= k < p ** height):
            raise HopfError("term %r: %r needs an integer exponent in [0, %d) and an "
                            "integer coefficient" % (k, v, p ** height))
    items = sorted((k, v % p) for k, v in element.items() if v % p)
    if t == 0:
        return HopfExpr.grouplike(p, height, degree, dict(items).get(0, 0))
    return HopfExpr(p, height, degree, (
        ((0, (tuple(sorted(comp)),)), PolyFp.constant(p, 2, c))
        for k, c in items if k
        for comp in _compositions(t, k)
    ))


def verify_kn_injectivity(p: int, height: int) -> dict:
    """Witness table showing each nonzero homogeneous element of the rank-1
    model has a beta with nonzero reduced image; aborts loudly otherwise.

    Only pure-b_1 powers and grouplikes are ever read as nonzero, exactly the
    terms whose nonvanishing the model asserts.
    """
    _check_prime(p)
    if height < 1:
        raise HopfError("need height >= 1")
    q = p ** height
    if q > 16:
        raise HopfError("p^n above 16 is out of desk scale")
    witnesses = []

    def first_witness(element):
        for t in range(q):
            image = hurewicz_eval(element, t, p, height)
            if not image.is_zero():
                return t, image
        return None

    for i in range(q):
        for c in range(1, p):
            found = first_witness({i: c})
            if found is None:
                raise HopfError("element %d x^%d has zero image everywhere" % (c, i))
            t, image = found
            witnesses.append(
                {"element": {i: c}, "beta": t, "image": image.render()}
            )
    for c0 in range(1, p):
        for cm in range(1, p):
            element = {0: c0, q - 1: cm}
            found = first_witness(element)
            if found is None:
                raise HopfError("special-form element has zero image everywhere")
            top = hurewicz_eval(element, q - 1, p, height)
            if top.is_zero():
                raise HopfError(
                    "special-form element vanishes on beta_%d" % (q - 1)
                )
            witnesses.append(
                {
                    "element": {0: c0, q - 1: cm},
                    "beta": q - 1,
                    "image": top.render(),
                }
            )
    # distinctness of the recovered coefficients: beta_0 reads off c_0 and
    # beta_{q-1} then reads off c_{q-1}
    seen = {}
    for c0 in range(p):
        for cm in range(p):
            element = {0: c0, q - 1: cm}
            sig = (
                hurewicz_eval(element, 0, p, height).render(),
                hurewicz_eval(element, q - 1, p, height).render(),
            )
            if sig in seen:
                raise HopfError(
                    "elements %r and %r are not separated" % (seen[sig], element)
                )
            seen[sig] = element
    return {"p": p, "height": height, "witnesses": witnesses, "ok": True}
