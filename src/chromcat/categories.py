"""Chromatic categories of elementary abelian subgroups.

``build_category(G, p, n)`` constructs the level-n category: objects are all
elementary abelian p-subgroups, morphisms the injective homomorphisms f such
that every n-tuple of source elements is carried to a simultaneously conjugate
tuple.  ``quillen_category`` builds the inclusion-and-conjugation category
directly; the two agree for n at least the p-rank.

Every morphism f: W -> V is an isomorphism onto its image U = f(W) followed
by the inclusion U <= V, so the split is unique, and the level, conjugation
and subring conditions see only the isomorphism.  A ``ChromCategory`` stores
just that: Iso_C(W, U) for each pair of objects of equal rank, and the
inclusion poset of the objects.  A hom-set is a sorted tuple of matrices,
composed each time it is asked for and never kept; morphism counts,
isomorphism classes, equality and colimit class sizes are read off the
isomorphisms and the poset.

A ``Fusion`` is one group at one prime for as long as its caller holds it:
the objects, their inclusion poset and one conjugation scan of the group,
from which it builds every level, the Quillen category and C_R.  A request
that compares several of them scans the group once.  For each object S the
scan records the orbit of S's basis under conjugation, the set
{g S.basis g^-1}, and the conjugation isomorphisms Iso_Q(S, gSg^-1) with
their least g; a basis tuple seen before costs one lookup, so an object
costs |G| lookups and |G : C_G(S)| target searches.  The j-th entries of
the orbit's tuples are the G-class of S's j-th basis element, so the level
search reads conjugacy from the scan and conjugates nothing itself.

The level test enumerates no tuples.  A witness conjugating a basis of a
subgroup S <= W conjugates every element of S, and every n-tuple generates
such a subgroup of rank <= n, so f: W -> U is level-n exactly when, for each
object S <= W of rank min(n, rank W), the images under f of S.basis form a
key of S's orbit.  When rank W <= n the only such S is W itself, so
Iso_n(W, U) = Iso_Q(W, U) and comes straight from the scan, with no
candidate tested; from the p-rank on, A^(n) is the Quillen category.  Level
0 keeps every invertible matrix.  Otherwise a candidate sends each basis
element of W to one of its conjugates in U, and is kept when it passes the
orbit test; no morphism object is made for a rejected candidate.
``is_level_n_morphism`` tests the same reduction with a conjugacy search per
subgroup and returns a certificate of witnesses; the builder does not call
it, and the tests compare the builder with it.  The all-tuples brute force
lives in the test suite as the independent oracle for the reduction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from . import modp
from .elemab import (
    ElemAbelian,
    LinearMorphism,
    _span,
    conjugation_matrix,
    enumerate_elem_abelians,
)
from .groups import FiniteGroup, GroupError

Level = Optional[int]  # int >= 0, or None for Quillen


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


def _inclusion_poset(objects: Sequence[ElemAbelian]) -> tuple:
    """(above, inclusions): above[k] lists the j with objects[k] <=
    objects[j], k included, and inclusions[(k, j)] is that inclusion's
    matrix."""
    above = []
    inclusions = {}
    for k, u in enumerate(objects):
        js = [j for j, v in enumerate(objects) if u.elements <= v.elements]
        for j in js:
            inclusions[(k, j)] = conjugation_matrix(u, objects[j], 0)
        above.append(tuple(js))
    return tuple(above), inclusions


class ChromCategory:
    """A category of elementary abelian p-subgroups with linear morphisms,
    stored as its isomorphisms and the inclusion poset.

    ``isos[(i, k)]`` is Iso_C(objects[i], objects[k]) as a sorted tuple of
    matrices without repeats; a pair with no isomorphism is absent, and the
    constructor sorts and deduplicates what it is given.
    ``iso_witnesses[(i, k, matrix)]`` is the least group element inducing a
    conjugation isomorphism.  ``poset`` is the objects' (above, inclusions),
    computed when not given.  Hom(W_i, V_j) is the union over the objects
    U_k <= V_j of Iso(i, k) followed by the inclusion, and distinct (k, iso)
    give distinct morphisms, so only ``hom`` and ``homs`` multiply them
    out, for the hom-sets asked for, and keep nothing.
    """

    def __init__(self, group, p, level, kind, objects, isos, iso_witnesses, poset=None):
        self.group = group
        self.p = p
        self.level = level
        self.kind = kind  # "level" | "quillen" | "subring"
        self.objects = tuple(objects)
        self.isos = {}
        for key, mats in isos.items():
            mats = tuple(mats)
            if any(a >= b for a, b in itertools.pairwise(mats)):
                mats = tuple(sorted(set(mats)))
            if mats:
                self.isos[key] = mats
        self.iso_witnesses = iso_witnesses
        self.above, self.inclusions = poset or _inclusion_poset(self.objects)
        self._targets = {}
        for i, k in self.isos:
            self._targets.setdefault(i, []).append(k)

    def iso(self, i: int, k: int) -> tuple:
        return self.isos.get((i, k), ())

    def hom(self, i: int, j: int) -> tuple:
        """The matrices of Hom(objects[i], objects[j]), sorted."""
        out = []
        for k in self._targets.get(i, ()):
            inclusion = self.inclusions.get((k, j))
            if inclusion is not None:
                out.extend(modp.mat_mul(inclusion, m, self.p) for m in self.isos[(i, k)])
        out.sort()
        return tuple(out)

    @property
    def homs(self) -> dict:
        """{(i, j): hom(i, j)} over the nonempty hom-sets."""
        keys = {(i, j) for i, k in self.isos for j in self.above[k]}
        return {key: self.hom(*key) for key in sorted(keys)}

    def morphism_count(self) -> int:
        return sum(len(mats) * len(self.above[k]) for (_, k), mats in self.isos.items())

    @functools.cached_property
    def _index(self) -> dict:
        return {v.elements: k for k, v in enumerate(self.objects)}

    def witness(self, i: int, j: int, matrix: tuple) -> Optional[int]:
        """The least g inducing the morphism objects[i] -> objects[j] with
        this matrix, or None when it is not a conjugation morphism.

        The columns span the image U_k; the matrix is Iso(i, k) followed by
        U_k <= V_j, and g is the witness of that isomorphism.
        """
        v = self.objects[j]
        images = [v.element_at(col) for col in zip(*matrix)]
        k = self._index[frozenset(_span(self.group, images))]
        u = self.objects[k]
        cols = [u.coordinates(x) for x in images]
        iso = tuple(tuple(col[r] for col in cols) for r in range(u.rank))
        return self.iso_witnesses.get((i, k, iso))

    def equals(self, other: "ChromCategory") -> bool:
        """Hom-set by hom-set equality over the identical object list.  The
        objects fix the inclusions and the split is unique, so equal hom-sets
        are equal iso sets."""
        return (
            self.group is other.group
            and self.objects == other.objects
            and self.isos == other.isos
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
    """What one pass of G over the objects yields: Iso_Q as {(i, k): sorted
    matrices}, the least inducing g of each as {(i, k, matrix): g}, and
    orbits[i] = the set {g W_i.basis g^-1} of basis-image tuples."""

    isos: dict
    witnesses: dict
    orbits: list


def _conjugation_scan(group, objects) -> _Scan:
    """One pass of G over every object; a conjugate basis tuple seen before
    adds nothing, so only a new one has its target object and matrix found."""
    index = {u.elements: k for k, u in enumerate(objects)}
    isos = {}
    witnesses = {}
    orbits = []
    for i, w in enumerate(objects):
        orbit = set()
        for g in group.elements():
            images = tuple(group.conjugate(b, g) for b in w.basis)
            if images in orbit:
                continue
            orbit.add(images)
            k = index[frozenset(group.conjugate(x, g) for x in w.elements)]
            m = conjugation_matrix(w, objects[k], g)
            isos.setdefault((i, k), []).append(m)
            witnesses[(i, k, m)] = g
        orbits.append(orbit)
    return _Scan({key: tuple(sorted(ms)) for key, ms in isos.items()}, witnesses, orbits)


class Fusion:
    """One group at one prime, shared by every category a request builds.

    It holds the objects and their inclusion poset, runs the conjugation
    scan once, on first use, and builds the level-n, Quillen and subring
    categories from them.  ``stats`` counts what it did: objects, scans run,
    level candidates tested and kept, and C_R keys pulled back.  Nothing is
    kept anywhere else, so the scan lives exactly as long as the Fusion.
    """

    def __init__(self, group: FiniteGroup, p: int):
        self.group = group
        self.p = p
        self.objects = tuple(enumerate_elem_abelians(group, p))
        self.rank = max(v.rank for v in self.objects)
        self.poset = _inclusion_poset(self.objects)
        self.stats = {
            "objects": len(self.objects),
            "scans": 0,
            "level_candidates": 0,
            "level_kept": 0,
            "subring_pullbacks": 0,
        }
        self._scan = None
        self._gls = {}

    @property
    def scan(self) -> _Scan:
        if self._scan is None:
            self._scan = _conjugation_scan(self.group, self.objects)
            self.stats["scans"] += 1
        return self._scan

    def category(self, n: Level) -> ChromCategory:
        """A^(n); n None gives the Quillen category."""
        if n is None:
            return self._category(None, "quillen", self.scan.isos)
        if n < 0:
            raise GroupError("level must be >= 0")
        return self._category(n, "level", self._level_isos(n))

    def subring(self, presentation) -> ChromCategory:
        """C_R of ``subrings.build_CR`` on these objects.

        f: W -> U is kept when f^* Res_U = Res_W, so the equation is solved
        by lookup: each object's key is its rank and Res of every generator,
        U's key is pulled back once along each f in GL_rank(U), and f joins
        Iso_R(W, U) for every W whose key equals the pullback.
        """
        keys = [(w.rank, presentation.restrictions(w)) for w in self.objects]
        sources = {}
        for i, key in enumerate(keys):
            sources.setdefault(key, []).append(i)
        isos = {}
        for k, (rank, res) in enumerate(keys):
            gl = self._gl(rank)
            self.stats["subring_pullbacks"] += len(gl)
            for m in gl:
                pullback = modp.transpose(m)
                key = (rank, tuple(rv.substitute_linear(pullback) for rv in res))
                for i in sources.get(key, ()):
                    isos.setdefault((i, k), []).append(m)
        return self._category(None, "subring", isos, {})

    def _category(self, level, kind, isos, witnesses=None) -> ChromCategory:
        if witnesses is None:
            witnesses = self.scan.witnesses
        return ChromCategory(
            self.group, self.p, level, kind, self.objects, isos, witnesses, self.poset
        )

    def _gl(self, r: int) -> tuple:
        """Every invertible r x r matrix over F_p, sorted; one tuple per rank
        is shared by every pair that keeps them all."""
        if r not in self._gls:
            self._gls[r] = tuple(sorted(modp.enumerate_injective_matrices(r, r, self.p)))
        return self._gls[r]

    def _level_isos(self, n: int) -> dict:
        """Iso_n(W_i, U_k) as {(i, k): matrices}.

        Iso_Q when rank W <= n; every invertible matrix when n = 0.  Otherwise
        column j must be a conjugate in U of the j-th basis element of W, read
        off the j-th entries of W's orbit, and a choice of columns is kept
        when it carries the basis of every rank-n object S <= W into S's
        orbit.  Such a matrix is invertible, because every nonzero vector of
        W lies in some S, on which it is a conjugation.
        """
        p, objects = self.p, self.objects
        isos, orbits = self.scan.isos, self.scan.orbits
        if n >= self.rank:
            return isos
        kept = {key: ms for key, ms in isos.items() if objects[key[0]].rank <= n}
        by_rank = {}
        for k, u in enumerate(objects):
            by_rank.setdefault(u.rank, []).append(k)
        tested = 0
        for r, members in sorted(by_rank.items()):
            if r <= n:
                continue
            if n == 0:
                kept.update(((i, k), self._gl(r)) for i in members for k in members)
                continue
            for i in members:
                w = objects[i]
                subs = [
                    (orbits[s], [w.coordinates(b) for b in objects[s].basis])
                    for s in by_rank[n]
                    if objects[s].elements <= w.elements
                ]
                classes = [set(col) for col in zip(*orbits[i])]
                for k in members:
                    u = objects[k]
                    choices = [
                        [u.coordinates(x) for x in sorted(u.elements & c)]
                        for c in classes
                    ]
                    mats = []
                    for columns in itertools.product(*choices):
                        tested += 1
                        m = tuple(zip(*columns))
                        if all(
                            tuple(u.element_at(modp.mat_vec(m, c, p)) for c in coords)
                            in orbit
                            for orbit, coords in subs
                        ):
                            mats.append(m)
                    if mats:
                        kept[(i, k)] = mats
                        self.stats["level_kept"] += len(mats)
        self.stats["level_candidates"] += tested
        return kept


def quillen_category(group: FiniteGroup, p: int) -> ChromCategory:
    """The category generated by inclusions and conjugations, built directly."""
    return Fusion(group, p).category(None)


def build_category(group: FiniteGroup, p: int, n: Level) -> ChromCategory:
    """The level-n category; n = 0 keeps every injective homomorphism."""
    return Fusion(group, p).category(n)


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
    """Object indices grouped into isomorphism classes: the components of
    the relation "Iso(i, k) is nonempty", each sorted, ordered by least
    member."""
    parent = list(range(len(cat.objects)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, k in cat.isos:
        parent[find(k)] = find(i)
    classes = {}
    for i in range(len(parent)):
        # a class is met first at its least member
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


def skeleton(cat: ChromCategory) -> SkeletonReport:
    """Object classes under isomorphism in the category, with orbit data.

    Only the hom-sets between class representatives are composed."""
    groups = iso_classes(cat)
    if len(groups) > 1:
        groups = [g for g in groups if cat.objects[g[0]].rank > 0]
    report = SkeletonReport()
    reps = []
    for members in groups:
        rep = members[0]
        mats = cat.iso(rep, rep)
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
                aut_order=len(mats),
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
            aut_t = cat.iso(trep, trep)
            aut_s = cat.iso(srep, srep)
            orbits = _orbit_decomposition(hom, aut_t, (), cat.p)
            two_sided = _orbit_decomposition(hom, aut_t, aut_s, cat.p)
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
    """Strictness of A^(n) >= A^(n+1) for 1 <= n <= p-rank, and the first
    level equal to the Quillen category, from one Fusion: only the levels
    below the p-rank test candidates."""
    fusion = Fusion(group, p)
    rank = fusion.rank
    cats = {n: fusion.category(n) for n in range(1, rank + 2)}
    strict = {
        n: not cats[n].equals(cats[n + 1]) for n in range(1, rank + 1)
    }
    quillen = fusion.category(None)
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
        fusion = Fusion(group, p)
        strict = not fusion.category(n).equals(fusion.category(n + 1))
        checked.append({"name": name, "order": group.order, "strict": strict})
        if strict:
            found.append(name)
    return {"p": p, "n": n, "found": found, "checked": checked, "skipped": skipped}
