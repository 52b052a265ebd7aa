"""Chromatic categories of elementary abelian subgroups.

``build_category(G, p, n)`` constructs the level-n category: objects are all
elementary abelian p-subgroups, morphisms the injective homomorphisms f such
that every n-tuple of source elements is carried to a simultaneously conjugate
tuple.  ``quillen_category`` builds the inclusion-and-conjugation category
directly; the two agree for n at least the p-rank.

Every morphism f: W -> V is an isomorphism onto U = f(W) followed by the
inclusion U <= V, and the level, conjugation and subring conditions see only
the isomorphism.  So each builder keeps the isomorphisms between objects of
equal rank that pass its test, and ``_with_inclusions`` composes them with
the inclusions.

Each build makes one conjugation scan of the group.  For each object S it
records the orbit of S's basis under conjugation, {g S.basis g^-1: least g},
and the conjugation isomorphisms Iso_Q(S, gSg^-1) with their least g; a
basis tuple seen before costs one lookup, so an object costs |G| lookups and
|G : C_G(S)| target searches.

The level test enumerates no tuples.  A witness conjugating a basis of a
subgroup S <= W conjugates every element of S, and every n-tuple generates
such a subgroup of rank <= n, so f: W -> U is level-n exactly when, for each
object S <= W of rank min(n, rank W), the images under f of S.basis form a
key of S's orbit.  When rank W <= n the only such S is W itself, so
Iso_n(W, U) = Iso_Q(W, U) and comes straight from the scan, with no
candidate tested.  Level 0 keeps every invertible matrix.  Otherwise a
candidate sends each basis element of W to one of its conjugates in U, and
is kept when it passes the orbit test; no morphism object is made for a
rejected candidate.  ``is_level_n_morphism`` tests the same reduction with
a conjugacy search per subgroup and returns a certificate of witnesses; the
builder does not call it, and the tests compare the builder with it.  The
all-tuples brute force lives in the test suite as the independent oracle
for the reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from . import modp
from .elemab import (
    ElemAbelian,
    LinearMorphism,
    conjugation_matrix,
    enumerate_elem_abelians,
    injective_homs,
)
from .groups import FiniteGroup, GroupError

Level = Union[int, float, None]  # int >= 0, math.inf or None for Quillen


@dataclass
class LevelCertificate:
    """Outcome of a level-n membership test.

    ``witnesses`` maps each tested subgroup basis (tuple of source elements)
    to a conjugating group element; ``failing`` names the first basis tuple
    with no witness.
    """

    ok: bool
    witnesses: dict
    failing: Optional[tuple] = None


def is_level_n_morphism(f: LinearMorphism, n: int) -> LevelCertificate:
    """Test the tuple condition at level n via the rank-reduction above."""
    group = f.source.group
    w = f.source
    m = min(n, w.rank)
    if m <= 0:
        return LevelCertificate(True, {})
    witnesses = {}
    for rows in modp.enumerate_subspaces(w.rank, m, w.p):
        basis = tuple(w.element_at(r) for r in rows)
        images = tuple(f(x) for x in basis)
        g = group.simultaneous_conjugacy(basis, images)
        if g is None:
            return LevelCertificate(False, witnesses, failing=basis)
        witnesses[basis] = g
    return LevelCertificate(True, witnesses)


class ChromCategory:
    """A category of elementary abelian p-subgroups with linear morphisms.

    ``homs[(i, j)]`` is the tuple of LinearMorphism from objects[i] to
    objects[j], sorted by matrix; ``witnesses[(i, j, matrix)]`` records one group element
    inducing each conjugation-induced morphism.
    """

    def __init__(self, group, p, level, kind, objects, homs, witnesses):
        self.group = group
        self.p = p
        self.level = level
        self.kind = kind  # "level" | "quillen" | "subring"
        self.objects = tuple(objects)
        self.homs = homs
        self.witnesses = witnesses

    def object_index(self, v: ElemAbelian) -> int:
        return self.objects.index(v)

    def hom(self, i: int, j: int) -> tuple:
        return self.homs.get((i, j), ())

    def hom_matrices(self, i: int, j: int) -> frozenset:
        return frozenset(f.matrix for f in self.hom(i, j))

    def iter_morphisms(self) -> Iterator[tuple]:
        for (i, j), fs in sorted(self.homs.items()):
            for f in fs:
                yield i, j, f

    def morphism_count(self) -> int:
        return sum(len(fs) for fs in self.homs.values())

    def same_objects(self, other: "ChromCategory") -> bool:
        return self.group is other.group and self.objects == other.objects

    def equals(self, other: "ChromCategory") -> bool:
        """Hom-set by hom-set equality over the identical object list."""
        if not self.same_objects(other):
            return False
        n = len(self.objects)
        return all(
            self.hom_matrices(i, j) == other.hom_matrices(i, j)
            for i in range(n)
            for j in range(n)
        )

    def __repr__(self):
        lev = "oo" if self.level is None else self.level
        return "ChromCategory(%s, p=%d, %s=%s, %d objects, %d morphisms)" % (
            self.group.name,
            self.p,
            self.kind,
            lev,
            len(self.objects),
            self.morphism_count(),
        )


class _Scan(NamedTuple):
    """What one pass of G over the objects yields: the objects, Iso_Q as
    {(i, k, matrix): least inducing g}, and orbits[i] = {g W_i.basis g^-1:
    least g}."""

    objects: list
    isos: dict
    orbits: list


def _conjugation_scan(group, p) -> _Scan:
    """One pass of G over every object; a conjugate basis tuple seen before
    adds nothing, so only a new one has its target object and matrix found."""
    objects = enumerate_elem_abelians(group, p)
    index = {u.elements: k for k, u in enumerate(objects)}
    isos = {}
    orbits = []
    for i, w in enumerate(objects):
        orbit = {}
        for g in group.elements():
            images = tuple(group.conjugate(b, g) for b in w.basis)
            if images in orbit:
                continue
            orbit[images] = g
            k = index[frozenset(group.conjugate(x, g) for x in w.elements)]
            isos[(i, k, conjugation_matrix(w, objects[k], g))] = g
        orbits.append(orbit)
    return _Scan(objects, isos, orbits)


def _level_isos(group, p, scan, n):
    """(i, k, matrix) for every level-n isomorphism W_i -> U_k.

    Iso_Q when rank W <= n; every invertible matrix when n = 0.  Otherwise
    column j must be a conjugate in U of the j-th basis element of W, and a
    choice of columns is kept when it carries the basis of every rank-n
    object S <= W into S's orbit.  Such a matrix is invertible, because
    every nonzero vector of W lies in some S, on which it is a conjugation.
    """
    objects, isos, orbits = scan
    kept = [key for key in isos if objects[key[0]].rank <= n]
    by_rank = {}
    for k, u in enumerate(objects):
        by_rank.setdefault(u.rank, []).append(k)
    conjugates = {}
    for r, members in sorted(by_rank.items()):
        if r <= n:
            continue
        if n == 0:
            gl = list(modp.enumerate_injective_matrices(r, r, p))
            kept.extend((i, k, m) for i in members for k in members for m in gl)
            continue
        for i in members:
            w = objects[i]
            subs = [
                (orbits[s], [w.coordinates(b) for b in objects[s].basis])
                for s in by_rank[n]
                if objects[s].elements <= w.elements
            ]
            for b in w.basis:
                if b not in conjugates:
                    conjugates[b] = {group.conjugate(b, g) for g in group.elements()}
            for k in members:
                u = objects[k]
                choices = [
                    [u.coordinates(x) for x in sorted(u.elements & conjugates[b])]
                    for b in w.basis
                ]
                for columns in itertools.product(*choices):
                    m = tuple(zip(*columns))
                    if all(
                        tuple(u.element_at(modp.mat_vec(m, c, p)) for c in coords)
                        in orbit
                        for orbit, coords in subs
                    ):
                        kept.append((i, k, m))
    return kept


def _isos_passing(objects, test):
    """(i, k, matrix) for every isomorphism W_i -> U_k that passes test."""
    return [
        (i, k, f.matrix)
        for i, w in enumerate(objects)
        for k, u in enumerate(objects)
        if w.rank == u.rank
        for f in injective_homs(w, u)
        if test(f)
    ]


def _with_inclusions(p, objects, isos, witnesses):
    """Hom(W, V) as the union over U <= V of Iso(W, U) followed by U <= V.

    Distinct (U, iso) pairs give distinct composites, whose image is U.  An
    iso with an entry in ``witnesses`` passes its conjugating g on to each
    composite.  Returns (homs, witnesses) keyed as in ChromCategory.
    """
    above = [
        [(j, conjugation_matrix(u, v, 0))
         for j, v in enumerate(objects) if u.elements <= v.elements]
        for u in objects
    ]
    mats = {}
    composed = {}
    for i, k, iso in isos:
        g = witnesses.get((i, k, iso))
        for j, inclusion in above[k]:
            m = modp.mat_mul(inclusion, iso, p)
            mats.setdefault((i, j), []).append(m)
            if g is not None:
                composed[(i, j, m)] = g
    homs = {
        (i, j): tuple(
            LinearMorphism(objects[i], objects[j], m) for m in sorted(mats[(i, j)])
        )
        for i, j in sorted(mats)
    }
    return homs, composed


def _category(group, p, n) -> ChromCategory:
    """A^(n) from one conjugation scan; n None gives the Quillen category."""
    scan = _conjugation_scan(group, p)
    isos = scan.isos if n is None else _level_isos(group, p, scan, n)
    homs, witnesses = _with_inclusions(p, scan.objects, isos, scan.isos)
    kind = "quillen" if n is None else "level"
    return ChromCategory(group, p, n, kind, scan.objects, homs, witnesses)


def quillen_category(group: FiniteGroup, p: int) -> ChromCategory:
    """The category generated by inclusions and conjugations, built directly."""
    return _category(group, p, None)


def build_category(group: FiniteGroup, p: int, n: Level) -> ChromCategory:
    """The level-n category; n = 0 keeps every injective homomorphism."""
    if n is None or n == math.inf:
        return quillen_category(group, p)
    if n < 0:
        raise GroupError("level must be >= 0")
    return _category(group, p, n)


# -- skeleton reports ---------------------------------------------------------


@dataclass
class ObjectClass:
    rank: int
    representative: int          # object index of the class representative
    members: tuple               # object indices
    aut_order: int
    aut_abelian: bool
    aut_exponent: int


@dataclass
class SkeletonEdge:
    source: int                  # index into SkeletonReport.classes
    target: int
    hom_size: int
    orbits: tuple                # (orbit_size, stabilizer_order) under Aut(target)
    two_sided_orbit_count: int   # quotient by Aut(target) x Aut(source)


@dataclass
class SkeletonReport:
    """Isomorphism classes and morphism orbit data for a category.

    The rank-0 class is omitted whenever any positive-rank object exists: the
    trivial subgroup is initial and carries no structure, and the report then
    matches the usual two-node pictures.
    """

    classes: list = field(default_factory=list)
    edges: list = field(default_factory=list)

    def class_by_rank(self, rank: int) -> ObjectClass:
        matches = [c for c in self.classes if c.rank == rank]
        if len(matches) != 1:
            raise KeyError("rank %d does not name a unique class" % rank)
        return matches[0]

    def edge(self, source_rank: int, target_rank: int) -> SkeletonEdge:
        si = self.classes.index(self.class_by_rank(source_rank))
        ti = self.classes.index(self.class_by_rank(target_rank))
        for e in self.edges:
            if e.source == si and e.target == ti:
                return e
        raise KeyError("no edge %d -> %d" % (source_rank, target_rank))

    def to_dict(self) -> dict:
        return {
            "classes": [
                {
                    "rank": c.rank,
                    "representative": c.representative,
                    "members": list(c.members),
                    "aut_order": c.aut_order,
                    "aut_abelian": c.aut_abelian,
                    "aut_exponent": c.aut_exponent,
                }
                for c in self.classes
            ],
            "edges": [
                {
                    "source": e.source,
                    "target": e.target,
                    "hom_size": e.hom_size,
                    "orbits": [list(o) for o in e.orbits],
                    "two_sided_orbit_count": e.two_sided_orbit_count,
                }
                for e in self.edges
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph skeleton {"]
        for k, c in enumerate(self.classes):
            lines.append('  V%d [label="rank=%d |Aut|=%d"];' % (k, c.rank, c.aut_order))
        for e in self.edges:
            if e.source == e.target:
                continue
            stabs = sorted({s for (_, s) in e.orbits})
            stab = ",".join(str(s) for s in stabs)
            lines.append(
                '  V%d -> V%d [label="%d morphisms, stab=%s"];'
                % (e.source, e.target, e.hom_size, stab)
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def iso_classes(cat: ChromCategory) -> list[list[int]]:
    """Object indices grouped into isomorphism classes, each sorted."""
    objects = cat.objects
    n = len(objects)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if objects[i].rank != objects[j].rank:
                continue
            if find(i) == find(j):
                continue
            back = cat.hom_matrices(j, i)
            for f in cat.hom(i, j):
                inv = modp.mat_inverse(f.matrix, cat.p)
                if inv in back:
                    parent[find(j)] = find(i)
                    break
    classes = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return [sorted(v) for _, v in sorted(classes.items())]


def skeleton(cat: ChromCategory) -> SkeletonReport:
    """Object classes under isomorphism in the category, with orbit data."""
    groups = iso_classes(cat)
    if len(groups) > 1:
        groups = [g for g in groups if cat.objects[g[0]].rank > 0]
    report = SkeletonReport()
    reps = []
    for members in groups:
        rep = members[0]
        auts = cat.hom(rep, rep)
        mats = [f.matrix for f in auts]
        abelian = all(
            modp.mat_mul(a, b, cat.p) == modp.mat_mul(b, a, cat.p)
            for a in mats
            for b in mats
        )
        exponent = 1
        for m in mats:
            k = modp.matrix_order(m, cat.p)
            exponent = exponent * k // math.gcd(exponent, k)
        report.classes.append(
            ObjectClass(
                rank=cat.objects[rep].rank,
                representative=rep,
                members=tuple(members),
                aut_order=len(auts),
                aut_abelian=abelian,
                aut_exponent=exponent,
            )
        )
        reps.append(rep)

    for si, srep in enumerate(reps):
        for ti, trep in enumerate(reps):
            if si == ti:
                continue
            hom = cat.hom(srep, trep)
            if not hom:
                continue
            aut_t = [f.matrix for f in cat.hom(trep, trep)]
            aut_s = [f.matrix for f in cat.hom(srep, srep)]
            orbits = _orbit_decomposition(
                [f.matrix for f in hom], aut_t, [], cat.p
            )
            two_sided = _orbit_decomposition(
                [f.matrix for f in hom], aut_t, aut_s, cat.p
            )
            report.edges.append(
                SkeletonEdge(
                    source=si,
                    target=ti,
                    hom_size=len(hom),
                    orbits=tuple(
                        (len(o), len(aut_t) // len(o)) for o in orbits
                    ),
                    two_sided_orbit_count=len(two_sided),
                )
            )
    return report


def _orbit_decomposition(mats, aut_target, aut_source, p):
    remaining = set(mats)
    orbits = []
    while remaining:
        seed = min(remaining)
        orbit = set()
        if aut_source:
            for a in aut_target:
                for b in aut_source:
                    orbit.add(modp.mat_mul(modp.mat_mul(a, seed, p), b, p))
        else:
            for a in aut_target:
                orbit.add(modp.mat_mul(a, seed, p))
        remaining -= orbit
        orbits.append(sorted(orbit))
    return orbits


# -- stabilization ------------------------------------------------------------


@dataclass
class HomChainReport:
    p_rank: int
    stabilization_rank: int  # smallest n >= 1 with A^(n) equal to the Quillen category
    strict: dict  # level n -> True iff A^(n) strictly contains A^(n+1)

    def to_dict(self) -> dict:
        return {
            "p_rank": self.p_rank,
            "stabilization_rank": self.stabilization_rank,
            "strict": {str(k): v for k, v in sorted(self.strict.items())},
        }


def hom_chain_report(group: FiniteGroup, p: int) -> HomChainReport:
    objects = enumerate_elem_abelians(group, p)
    rank = max(v.rank for v in objects)
    cats = {n: build_category(group, p, n) for n in range(1, rank + 2)}
    strict = {
        n: not cats[n].equals(cats[n + 1]) for n in range(1, rank + 1)
    }
    quillen = quillen_category(group, p)
    stab = next(
        (n for n in range(1, rank + 2) if cats[n].equals(quillen)), rank + 1
    )
    return HomChainReport(p_rank=rank, stabilization_rank=stab, strict=strict)


def witness_scan(
    library: Sequence[tuple], p: int, n: int, order_cap: int = 2048
) -> dict:
    """Scan (name, group) pairs for A^(n) != A^(n+1); reports what was found.

    Groups over the order cap are skipped with a warning entry.  Absence of a
    witness in the library proves nothing beyond the library itself.
    """
    found = []
    skipped = []
    checked = []
    for name, group in library:
        if group.order > order_cap:
            skipped.append({"name": name, "order": group.order})
            continue
        strict = not build_category(group, p, n).equals(
            build_category(group, p, n + 1)
        )
        checked.append({"name": name, "order": group.order, "strict": strict})
        if strict:
            found.append(name)
    return {"p": p, "n": n, "found": found, "checked": checked, "skipped": skipped}
