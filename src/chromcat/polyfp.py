"""Sparse multivariate polynomials, linear actions, and invariants.

One class serves every polynomial ring in the package: the cohomology rings
F_p[x_1..x_r], power series truncated by total degree over Z, Q or F_p (formal
group laws and Hopf-ring coefficients), and the model rings
F_p[x_1..x_r]/(x_i^cap).  Polynomials store nonzero coefficients keyed by
exponent tuples; rendering and iteration follow a graded order (total
degree, then descending lexicographic exponents) so "x^2*y + x*y^2" style
strings are reproducible and parseable back.  Every product of coefficient
dicts is formed by one loop, which adds c * a * b over a list of triples
into a plain dict in one pass; each result is then reduced, cleaned and
stored once.  ``a * b`` is its one-triple case, and ``sum_of_products``
sums many keyed groups in one call with one check per operand.  One
expansion loop, ``PolyFp._expand``, puts coefficient dicts in for the
variables for ``substitute``, ``substitute_linear`` and ``graded_piece``.

A ``LinearAction`` is a matrix group held by its generators alone, and
``invariant_bases`` solves for the forms they all fix, so no group is
listed.  It names each monomial by an integer, so that multiplying by a
variable adds a fixed shift, walks the generators' monomial images up the
degrees as ``modp`` packed rows over these names, and reads each wanted
degree's fixed forms off one forward elimination, as the relations among
the rows of (sigma - id) of its monomials.  Of chromcat, this module
imports ``modp`` only.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import add, index, neg
from typing import Optional, Sequence

from . import modp


def default_names(nvars: int) -> tuple:
    if nvars == 1:
        return ("t",)
    if nvars <= 4:
        return tuple("xyzw"[:nvars])
    return tuple("x%d" % i for i in range(nvars))


def _term_key(exps: tuple) -> tuple:
    return (sum(exps), tuple(map(neg, exps)))


def _meet(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The truncation two operands share, None meaning no truncation."""
    if a is None:
        return b
    if b is not None and a != b:
        raise ValueError("polynomial truncations do not match")
    return a


def _term(p: Optional[int], exps, c) -> tuple:
    """(exps, c) with integer exponents and c reduced mod p, or c as it is
    when p is None and c is an exact rational; ValueError otherwise."""
    try:
        exps = tuple(map(index, exps))
        if p is not None:
            return exps, index(c) % p
        if hasattr(c, "denominator"):
            return exps, c
    except TypeError:
        pass
    raise ValueError(
        "term %r: %r needs integer exponents and an integer coefficient, "
        "or a Fraction when p is None" % (exps, c)
    )


class PolyFp:
    """A polynomial in a fixed number of variables.

    Coefficients are integers mod a prime ``p``, or exact integers or
    rationals when ``p`` is None; any other ``p`` raises ValueError.  Two
    optional truncations make it an element of a quotient ring: under
    ``bound`` every term of total degree above the bound dies (a truncated
    power series), under ``cap`` every term with an exponent >= cap dies
    (F_p[x_1..x_r]/(x_i^cap)).  Both kill an ideal, so dropping terms while
    a product is formed gives the same result as dropping them afterwards.
    An operand without a truncation takes the other's; two different
    truncations do not mix.  A bound that no term under the cap can pass is
    dropped.  Equality and hashing compare coefficients only.

    The constructor checks every exponent tuple it is given, a zero
    coefficient's too (nvars integer entries, none negative), and every
    coefficient (an integer, or when ``p`` is None an exact rational, one
    with a ``denominator`` such as a ``Fraction``), raising ValueError on
    any other; then it reduces and truncates the coefficients.  Results of
    arithmetic are built by ``_stored``, which trusts its coefficients to be
    reduced, nonzero and inside both truncations: each operation keeps them
    so as it forms them.
    Steps towards a result, such as the products a sum or a substitution
    adds up, stay plain dicts, and only the result is stored.
    """

    __slots__ = ("p", "nvars", "coeffs", "bound", "cap")

    def __init__(
        self,
        p: Optional[int],
        nvars: int,
        coeffs=None,
        bound: Optional[int] = None,
        cap: Optional[int] = None,
    ):
        if p is not None and not modp.is_prime(p):
            raise ValueError("%r is not a prime" % (p,))
        clean = {}
        for exps, c in (coeffs or {}).items():
            exps, c = _term(p, exps, c)
            if len(exps) != nvars:
                raise ValueError("exponent tuple has wrong length")
            if min(exps, default=0) < 0:
                raise ValueError("exponent tuple has a negative entry")
            if not c:
                continue
            if bound is not None and sum(exps) > bound:
                continue
            if cap is not None and max(exps, default=0) >= cap:
                continue
            clean[exps] = c
        self._set(p, nvars, clean, bound, cap)

    def _set(self, p, nvars, coeffs: dict, bound, cap) -> "PolyFp":
        """Store the fields, dropping a bound that no term under the cap can
        pass."""
        if cap is not None and bound is not None and bound >= nvars * (cap - 1):
            bound = None
        self.p, self.nvars, self.coeffs, self.bound, self.cap = p, nvars, coeffs, bound, cap
        return self

    @classmethod
    def _stored(cls, p, nvars, coeffs: dict, bound=None, cap=None) -> "PolyFp":
        """A polynomial holding ``coeffs`` as given: already reduced, nonzero,
        keyed by nvars-tuples and inside the truncations."""
        return object.__new__(cls)._set(p, nvars, coeffs, bound, cap)

    def _clean(self, coeffs: dict, cap: Optional[int] = None) -> dict:
        """Sums and products of clean coefficients, reduced, without the
        zeros and, under ``cap``, without the terms with an exponent at the
        cap."""
        p = self.p
        if p is None:
            coeffs = {e: c for e, c in coeffs.items() if c}
        else:
            coeffs = {e: r for e, c in coeffs.items() if (r := c % p)}
        if cap is not None:
            coeffs = {e: c for e, c in coeffs.items() if max(e, default=0) < cap}
        return coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, p, nvars, bound=None):
        return cls(p, nvars, None, bound)

    @classmethod
    def constant(cls, p, nvars, c):
        return cls(p, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, p, nvars, i, bound=None):
        exps = [0] * nvars
        exps[i] = 1
        return cls(p, nvars, {tuple(exps): 1}, bound)

    @classmethod
    def monomial(cls, p, nvars, exps, c=1):
        return cls(p, nvars, {tuple(exps): c})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        """One term, with coefficient one."""
        return len(self.coeffs) == 1 and next(iter(self.coeffs.values())) == 1

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((sum(e) for e in self.coeffs), default=-1)

    def min_degree(self):
        """Lowest total degree of a term; the zero polynomial reports
        infinity."""
        return min((sum(e) for e in self.coeffs), default=math.inf)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.coeffs}) <= 1

    def homogeneous_part(self, d: int) -> "PolyFp":
        coeffs = {e: c for e, c in self.coeffs.items() if sum(e) == d}
        return self._stored(self.p, self.nvars, coeffs, self.bound, self.cap)

    def truncate(self, max_degree: int) -> "PolyFp":
        """Drop the terms above ``max_degree``, now and in later products."""
        bound = max_degree if self.bound is None else min(self.bound, max_degree)
        return self._stored(self.p, self.nvars, self._cut(bound, self.cap), bound, self.cap)

    def coefficient(self, exps: Sequence[int]):
        return self.coeffs.get(tuple(exps), 0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other) -> tuple:
        """The (bound, cap) a combination of the two lives under."""
        if self.p != other.p or self.nvars != other.nvars:
            raise ValueError("polynomial domains do not match")
        return _meet(self.bound, other.bound), _meet(self.cap, other.cap)

    def _cut(self, bound, cap) -> dict:
        """The terms inside truncations at least as tight as this
        polynomial's own; its coefficients themselves when they are its own."""
        bound = None if bound == self.bound else bound
        cap = None if cap == self.cap else cap
        if bound is None and cap is None:
            return self.coeffs
        return {
            e: c
            for e, c in self.coeffs.items()
            if (bound is None or sum(e) <= bound) and (cap is None or max(e, default=0) < cap)
        }

    def _combine(self, other: "PolyFp", sign: int) -> "PolyFp":
        """self + sign * other, under the truncations the two share."""
        bound, cap = self._check(other)
        coeffs = dict(self._cut(bound, cap))
        for e, c in other._cut(bound, cap).items():
            coeffs[e] = coeffs.get(e, 0) + sign * c
        return self._stored(self.p, self.nvars, self._clean(coeffs), bound, cap)

    def __add__(self, other: "PolyFp") -> "PolyFp":
        return self._combine(other, 1)

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        return self._combine(other, -1)

    def __mul__(self, other: "PolyFp") -> "PolyFp":
        bound, cap = self._check(other)
        coeffs = _add_products(
            {}, ((self.coeffs, other.coeffs, 1),), self.nvars,
            math.inf if bound is None else bound,
        )
        return self._stored(self.p, self.nvars, self._clean(coeffs, cap), bound, cap)

    def scale(self, c) -> "PolyFp":
        coeffs = self._clean({e: v * c for e, v in self.coeffs.items()})
        return self._stored(self.p, self.nvars, coeffs, self.bound, self.cap)

    def __pow__(self, k: int) -> "PolyFp":
        if k < 0:
            raise ValueError("negative power")
        result = type(self)(self.p, self.nvars, {(0,) * self.nvars: 1}, self.bound, self.cap)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyFp)
            and self.p == other.p
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.nvars, frozenset(self.coeffs.items())))

    def substitute(self, images: Sequence["PolyFp"]) -> "PolyFp":
        """Plug images[i] in for variable i, expanded by ``_expand``.

        The result lives where the images do: their class, coefficient
        domain, variable count and truncations, under this polynomial's
        degree bound as well.  Under a degree bound every image needs zero
        constant term.
        """
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        like = images[0] if images else self
        bound, cap = like.bound, like.cap
        for img in images:
            if img.p != self.p or img.nvars != like.nvars:
                raise ValueError("polynomial domains do not match")
            bound, cap = _meet(bound, img.bound), _meet(cap, img.cap)
        if self.bound is not None and (bound is None or self.bound < bound):
            bound = self.bound
        if bound is not None and any(img.coefficient((0,) * like.nvars) for img in images):
            raise ValueError("substitution into a truncated series needs zero constant terms")
        coeffs = self._expand([img.coeffs for img in images], like.nvars, bound, cap)
        return like._stored(like.p, like.nvars, coeffs, bound, cap)

    def substitute_linear(self, matrix: tuple) -> "PolyFp":
        """Send variable x_j to sum_i matrix[i][j] * x_i (new variable count
        = number of matrix rows), expanded by ``_expand``.

        The result is a plain ``PolyFp`` under this polynomial's bound and
        no cap.  Each entry is checked as a coefficient is.
        """
        rows, p = len(matrix), self.p
        if any(len(row) != self.nvars for row in matrix):
            raise ValueError("matrix shape does not match variable count")
        units = [tuple(int(i == k) for i in range(rows)) for k in range(rows)]
        forms = [
            {units[k]: c for k in range(rows) if (c := _term(p, units[k], matrix[k][j])[1])}
            for j in range(self.nvars)
        ]
        return PolyFp._stored(p, rows, self._expand(forms, rows, self.bound, None), self.bound)

    def _expand(self, forms: list, nvars: int, bound, cap) -> dict:
        """This polynomial's coefficients with the dict forms[i] put in for
        variable i, in ``nvars`` variables: the module's one expansion loop.
        Each form's powers are cached, every product is formed by
        ``_add_products`` under ``bound`` and cleaned under ``cap``, each
        term's last factor goes straight into the one final sum, and a term
        whose lowest possible degree passes the bound is skipped unformed."""
        limit = math.inf if bound is None else bound

        def times(a: dict, b: dict) -> dict:
            return self._clean(_add_products({}, ((a, b, 1),), nvars, limit), cap)

        one = {(0,) * nvars: 1}
        if bound is not None:  # each form's lowest degree, read under a bound only
            orders = [min(map(sum, form), default=math.inf) for form in forms]
        powers = [[one, form] for form in forms]  # powers[i][e] = forms[i] ** e
        products = []  # each term's last product, added into the sum at once
        for exps, c in self.coeffs.items():
            if bound is not None and sum(e * o for e, o in zip(exps, orders) if e) > bound:
                continue
            factors = []
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    while len(cache) <= e:
                        cache.append(times(cache[-1], cache[1]))
                    factors.append(cache[e])
            term = one
            for factor in factors[:-1]:
                term = factor if term is one else times(term, factor)
            products.append((term, factors[-1] if factors else one, c))
        return self._clean(_add_products({}, products, nvars, limit), cap)

    # -- rendering -----------------------------------------------------------

    def render(self, names: Optional[Sequence[str]] = None, key=_term_key) -> str:
        """'c*x^a*y^b + ...' with terms sorted by ``key`` on exponents."""
        if not self.coeffs:
            return "0"
        names = tuple(names) if names else default_names(self.nvars)
        coeffs, parts = self.coeffs, []
        for exps in sorted(coeffs, key=key) if len(coeffs) > 1 else coeffs:
            c, factors = coeffs[exps], []
            if c != 1 or not any(exps):
                factors.append(str(c))
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "%s(%r, %r)" % (type(self).__name__, self.p, self.render())


def _add_products(coeffs: dict, triples, nvars: int, limit) -> dict:
    """Add c * a * b into ``coeffs`` for each (a, b, c) of ``triples``, a
    and b coefficient dicts in ``nvars`` variables, and return ``coeffs``;
    nothing is reduced.  This is the module's one product loop.  Pairs of
    terms whose total degree passes ``limit`` are skipped unformed."""
    get = coeffs.get
    for a, b, c in triples:
        if nvars == 2:
            # exponents added pairwise: the two-variable rings (series,
            # Hopf coefficients, rank-2 model rings) are the hot ones.  The
            # operands mostly have a few terms, so the right one is read
            # as it is, not first listed with its degrees
            right = b.items()
            for (x1, y1), c1 in a.items():
                room = limit - x1 - y1
                c1 *= c
                for (x2, y2), c2 in right:
                    if x2 + y2 <= room:
                        e = (x1 + x2, y1 + y2)
                        coeffs[e] = get(e, 0) + c1 * c2
        else:
            right = [(e, v, sum(e)) for e, v in b.items()]
            for e1, c1 in a.items():
                room = limit - sum(e1)
                c1 *= c
                for e2, c2, d2 in right:
                    if d2 <= room:
                        e = tuple(map(add, e1, e2))
                        coeffs[e] = get(e, 0) + c1 * c2
    return coeffs


def sum_of_products(groups: dict, operands: Sequence[PolyFp]) -> dict:
    """{key: the sum of c * a * b over the (a, b, c) of groups[key]}, for
    the keys whose sum is nonzero.

    Each a and b is the coefficient dict of one of ``operands``, which are
    checked once for the call, not pair by pair: each must have exactly the
    first's p, variable count, bound and cap (none takes another's
    truncation, as in ``a * b``), or ValueError is raised naming the
    domains or the truncations.  Pairs of terms whose total degree passes
    the bound are skipped unformed; a product with an exponent at the cap
    is formed and dropped.  Each group is summed by the one product loop,
    then reduced, cleaned and stored once in the first's ring.
    """
    first = operands[0]
    p, nvars, bound, cap = first.p, first.nvars, first.bound, first.cap
    for poly in operands:
        if poly.p != p or poly.nvars != nvars:
            raise ValueError("polynomial domains do not match")
        if poly.bound != bound or poly.cap != cap:
            raise ValueError("polynomial truncations do not match")
    limit = math.inf if bound is None else bound
    out = {}
    for key, triples in groups.items():
        coeffs = first._clean(_add_products({}, triples, nvars, limit), cap)
        if coeffs:
            out[key] = first._stored(p, nvars, coeffs, bound, cap)
    return out


_FACTOR_RE = re.compile(r"^([A-Za-z]\w*)(?:\^(\d+))?$")


def parse_poly(
    text: str, p: int, nvars: int, names: Optional[Sequence[str]] = None
) -> PolyFp:
    """Inverse of PolyFp.render for '+'-separated monomial strings."""
    names = tuple(names) if names else default_names(nvars)
    position = {n: i for i, n in enumerate(names)}
    text = text.strip()
    if text in ("", "0"):
        return PolyFp.zero(p, nvars)
    terms = {}
    for chunk in text.split("+"):
        coeff = 1
        exps = [0] * nvars
        for factor in chunk.strip().split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError("empty factor in %r" % chunk)
            if factor.isdigit():
                coeff = coeff * int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m or m.group(1) not in position:
                raise ValueError("cannot parse factor %r" % factor)
            exps[position[m.group(1)]] += int(m.group(2) or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return PolyFp(p, nvars, terms)


# -- linear group actions ------------------------------------------------------


class LinearAction:
    """A matrix group over F_p acting on polynomial variables, held by its
    generators: square, of one size, invertible mod the prime p and stored
    reduced.  The group they generate is never listed; a form is invariant
    exactly when every generator fixes it.
    """

    def __init__(self, p: int, generators: Sequence[tuple]):
        if not modp.is_prime(p):
            raise ValueError("%r is not a prime" % (p,))
        self.p = p
        self.generators = tuple(
            tuple(tuple(x % p for x in r) for r in m) for m in generators
        )
        if not self.generators:
            raise ValueError("need at least one matrix to fix the dimension")
        self.nvars = len(self.generators[0])
        for g in self.generators:
            if len(g) != self.nvars or any(len(r) != self.nvars for r in g):
                raise ValueError(
                    "generators must all be %d x %d matrices" % (self.nvars, self.nvars)
                )
            if modp.mat_rank(g, p) != self.nvars:
                raise ValueError("generator %r is singular over F_%d" % (g, p))


def _monomials_of_degree(nvars: int, d: int) -> list:
    """The exponent tuples of total degree d, lexicographically descending:
    the order in which combinations_with_replacement lists the multisets
    of d variables."""
    if d < 0:
        return []
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def invariant_bases(action: LinearAction, degrees) -> dict:
    """{d: echelon-form basis of the degree-d forms fixed by the action},
    one key per distinct degree, ascending; each degree must be an int.

    A degree-k monomial is named by the base-(top + 1) digits of its first
    n - 1 exponents, top the largest degree asked for, so multiplying by
    x_i adds a fixed shift to its name (0 for the last variable), and the
    names of one degree descend as the monomials do lexicographically.
    Each generator's monomial images go up the degrees once as ``modp``
    packed rows over these names (an int at p = 2, a {name: value} dict at
    odd p): the image of m * x_j is the image of m times the image
    sum_i g[i][j] x_i of x_j, a sum of shifts.  At a wanted degree each
    monomial m gives one row, (sigma - id)(m) for every generator sigma
    side by side.  A form sum c_m m is fixed by the generators, hence by
    the group, exactly when sum c_m row_m = 0, and ``modp.relations``
    returns these relations in echelon form: one per monomial whose row
    depends on the rows before it, 1 there and 0 at every other such one.
    """
    p, n = action.p, action.nvars
    wanted = set()
    for d in degrees:
        if isinstance(d, bool) or not isinstance(d, int):
            raise ValueError("degree %r is not an integer" % (d,))
        wanted.add(d)
    out = {d: [] for d in sorted(wanted) if d < 0}
    base = max(wanted, default=-1) + 1
    shifts = modp.identity_code(n - 1, base) + (0,) if n else ()
    # forms[t][j]: the image of x_j under generator t, as the (shift,
    # coefficient) pairs of its terms
    forms = [
        [[(s, w) for s, w in zip(shifts, col) if w] for col in zip(*g)]
        for g in action.generators
    ]
    # images[name]: the monomial's image under each generator
    images = {0: [1 if p == 2 else {0: 1}] * len(forms)}
    for k in range(base):
        if k:
            images, last = {}, images
            for name, imgs in last.items():
                for j, s in enumerate(shifts):
                    if name + s not in images:
                        images[name + s] = [
                            modp.shift_sum(img, f[j], p) for img, f in zip(imgs, forms)
                        ]
        if k not in wanted:
            continue
        width, rows, mons = max(images, default=0) + 1, [], []
        for name, imgs in images.items():  # generator t's block at t * width
            if p == 2:
                rows.append(sum((img ^ 1 << name) << t * width for t, img in enumerate(imgs)))
            else:
                rows.append({
                    t * width + a: v for t, img in enumerate(imgs)
                    for a, v in {**img, name: (img.get(name, 0) - 1) % p}.items() if v
                })
            e = modp.decode(name, n - 1, base)
            mons.append(e + (k - sum(e),) if n else ())
        relations = modp.relations(rows, p, len(forms) * width, mons)
        out[k] = [PolyFp._stored(p, n, coeffs) for coeffs in relations]
    return out


def invariant_basis(action: LinearAction, d: int) -> list[PolyFp]:
    """Echelon-form basis of the degree-d forms fixed by the action."""
    return invariant_bases(action, (d,))[d]


# -- graded subring membership --------------------------------------------------


def _weighted_exponents(weights: Sequence[int], total: int):
    if not weights:
        if total == 0:
            yield ()
        return
    w = weights[0]
    for e in range(total // w + 1 if w else 1):
        for rest in _weighted_exponents(weights[1:], total - e * w):
            yield (e,) + rest


def graded_piece(generators: Sequence[PolyFp], d: int) -> list[PolyFp]:
    """Spanning set of the degree-d part of the subring the generators
    generate: each monomial in them of weighted degree exactly d, expanded
    by ``_expand`` under their shared truncations into a plain ``PolyFp``."""
    if not generators:
        return []
    p, nvars = generators[0].p, generators[0].nvars
    bound, cap, weights = None, None, []
    for g in generators:
        if not g.is_homogeneous() or g.is_zero():
            raise ValueError("generators must be nonzero homogeneous polynomials")
        if g.p != p or g.nvars != nvars:
            raise ValueError("polynomial domains do not match")
        bound, cap = _meet(bound, g.bound), _meet(cap, g.cap)
        weights.append(g.degree())
    forms, out = [g.coeffs for g in generators], []
    for exps in _weighted_exponents(weights, d):
        coeffs = PolyFp._stored(p, len(forms), {exps: 1})._expand(forms, nvars, bound, cap)
        if coeffs:
            out.append(PolyFp._stored(p, nvars, coeffs, bound, cap))
    return out


MEMBERSHIP_DEGREE_BOUND = 12  # the largest degree subring_membership decides


def subring_membership(f: PolyFp, generators: Sequence[PolyFp]) -> bool:
    """Is f in the degree-(deg f) graded piece of the generated subring?"""
    if any(g.p != f.p or g.nvars != f.nvars for g in generators):
        raise ValueError("polynomial domains do not match")
    if not f.is_homogeneous():
        raise ValueError("membership test requires a homogeneous polynomial")
    d = f.degree()
    if d < 1:
        return True  # 0 and the constants lie in every subring
    if d > MEMBERSHIP_DEGREE_BOUND:
        raise ValueError("degree %d exceeds bound %d" % (d, MEMBERSHIP_DEGREE_BOUND))
    index = {m: i for i, m in enumerate(_monomials_of_degree(f.nvars, d))}
    rows = [{index[e]: c for e, c in g.coeffs.items()} for g in graded_piece(generators, d)]
    return modp.in_span(rows, {index[e]: c for e, c in f.coeffs.items()}, f.p)

