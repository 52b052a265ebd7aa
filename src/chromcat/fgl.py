"""Formal group laws by the functional-equation method, in exact arithmetic.

The height-n law at p is F = l^-1(l(s) + l(t)) for the logarithm
l(x) = sum_i x^(p^(n i)) / p^i, built over the integers: L(x) = l(px)/p has
integer coefficients and leading term x, so G = L^-1(L(s) + L(t)) is
integral and F(s, t) = p G(s/p, t/p).  Each G_ab is checked to be divisible
by p^(a+b-1) before F is reduced mod p.  No fraction or floating point
appears anywhere.  Series are ``PolyFp`` polynomials truncated above a
total degree (their ``bound``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .modp import is_prime
from .polyfp import PolyFp


def series_inverse(f: PolyFp) -> PolyFp:
    """Compositional inverse of a truncated univariate series x + O(x^2).

    g is built in one walk up the degrees k: coefficient k of f(g) = x
    gives g_k = -sum_{j=2..k} f_j (g^j)_k, and (g^j)_k =
    sum_a g_a (g^(j-1))_(k-a) reads only coefficients of g below k, which a
    table of power coefficients holds.  Exact over Z, Q and F_p.
    """
    if (
        f.nvars != 1
        or f.bound is None
        or f.coefficient((1,)) != 1
        or f.coefficient((0,))
    ):
        raise ValueError("inverse needs a truncated univariate series of the form x + ...")
    d, p = f.bound, f.p
    fs = [f.coefficient((j,)) for j in range(d + 1)]
    g = [0] * (d + 1)
    g[1] = 1
    # powers[j][k]: coefficient k of g^j, known once g is known below k
    powers = [None, g] + [[0] * (d + 1) for _ in range(2, d + 1)]
    for k in range(2, d + 1):
        total = 0
        for j in range(2, k + 1):
            prev = powers[j - 1]
            c = sum(g[a] * prev[k - a] for a in range(1, k - j + 2))
            powers[j][k] = c if p is None else c % p
            total += fs[j] * c
        g[k] = -total if p is None else -total % p
    return PolyFp(p, 1, {(k,): c for k, c in enumerate(g) if c}, bound=d)


@dataclass(frozen=True)
class FGL:
    """A formal group law over F_p truncated above a total degree."""

    p: int
    height: int
    degree: int
    series: PolyFp  # two variables, coefficients mod p, bound = degree

    def _variable(self, nvars: int, i: int) -> PolyFp:
        return PolyFp.variable(self.p, nvars, i, bound=self.degree)

    def n_series(self, n: int) -> PolyFp:
        """[n]_F(x) for n >= 0, built iteratively as F(x, [n-1]_F(x)); the
        formal inverse a negative n would need is not built."""
        if n < 0:
            raise ValueError("[n]_F(x) is built for n >= 0 only")
        x = self._variable(1, 0)
        if n == 0:
            return PolyFp.zero(self.p, 1, bound=self.degree)
        acc = x
        for _ in range(n - 1):
            acc = self.series.substitute([acc, x])
        return acc

    def p_series(self) -> PolyFp:
        return self.n_series(self.p)

    def axiom_failures(self) -> list[str]:
        """Unit, commutativity, associativity up to the truncation degree."""
        failures = []
        s2, t2 = self._variable(2, 0), self._variable(2, 1)
        zero2 = PolyFp.zero(self.p, 2, bound=self.degree)
        if self.series.substitute([s2, zero2]) != s2:
            failures.append("F(s, 0) != s")
        if self.series.substitute([zero2, t2]) != t2:
            failures.append("F(0, t) != t")
        if self.series.substitute([t2, s2]) != self.series:
            failures.append("F(s, t) != F(t, s)")
        s3, t3, u3 = (self._variable(3, i) for i in range(3))
        left = self.series.substitute([self.series.substitute([s3, t3]), u3])
        right = self.series.substitute([s3, self.series.substitute([t3, u3])])
        if left != right:
            failures.append("F(F(s,t),u) != F(s,F(t,u))")
        return failures


def honda_fgl(p: int, n: int, degree: int) -> FGL:
    """The height-n Honda formal group law mod a prime p, truncated above
    ``degree``.

    Aborts if a coefficient of the integral law G is not divisible by the
    power of p that F = p G(s/p, t/p) divides it by; that would indicate a
    construction bug, not bad input.
    """
    if degree > 16:
        raise ValueError("truncation degree above 16 is out of desk scale")
    if n < 1 or degree < 1:
        raise ValueError("need height >= 1 and degree >= 1")
    if not is_prime(p):
        raise ValueError("%d is not a prime" % p)
    # L(x) = l(px)/p: the term x^q / p^i of l becomes p^(q-1-i) x^q
    log = {}
    i = 0
    while p ** (n * i) <= degree:
        q = p ** (n * i)
        log[(q,)] = p ** (q - 1 - i)
        i += 1
    log_series = PolyFp(None, 1, log, bound=degree)
    s, t = (PolyFp.variable(None, 2, i, bound=degree) for i in range(2))
    log_sum = log_series.substitute([s]) + log_series.substitute([t])
    g = series_inverse(log_series).substitute([log_sum])
    coeffs = {}
    for (a, b), c in g.coeffs.items():
        scale = p ** (a + b - 1)
        if c % scale:
            raise ValueError(
                "coefficient %d/%d at %r is not %d-integral" % (c, scale, (a, b), p)
            )
        coeffs[(a, b)] = c // scale
    return FGL(p=p, height=n, degree=degree, series=PolyFp(p, 2, coeffs, bound=degree))
