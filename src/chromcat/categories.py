"""Chromatic categories of elementary abelian subgroups.

``build_category(G, p, n)`` constructs the level-n category: objects are all
elementary abelian p-subgroups, morphisms the injective homomorphisms f such
that every n-tuple of source elements is carried to a simultaneously conjugate
tuple.  ``quillen_category`` builds the inclusion-and-conjugation category
directly; the two agree for n at least the p-rank.

Every morphism f: W -> V is an isomorphism onto its image U = f(W) followed
by the inclusion U <= V, so the split is unique, and the level, conjugation
and subring conditions see only the isomorphism.  Every category here
contains the Quillen category, so its isomorphism classes are unions of
G-conjugacy classes.  A ``ChromCategory`` stores, per class, Aut_C(R) of its
least member R and one t_U in Iso_C(R, U) per member U, and the inclusion
poset.  Iso_C(W, U) = t_U Aut_C(R) t_W^-1, and hom-sets are composed from
these when asked for and never kept; morphism counts, isomorphism classes,
equality and colimit class sizes are read off the classes and the poset.
Every stored matrix is coded (``modp``): a tuple of row codes, multiplied
by ``space.mul`` of the Fusion's F_p^rank.  The scan, the searches, the
joins, ``equals`` and the skeleton run on codes; ``hom`` and ``homs``
decode the matrices they return, and codes sort as the decoded tuples do.

A ``Fusion`` is one group at one prime for as long as its caller holds it:
the objects, their inclusion poset and one conjugation scan of the group,
made when the Fusion is built, whose G-classes are the Quillen category's;
objects come sorted by rank, so the poset tests each against the later ones
of higher rank only.  A^(n) for n < p-rank and C_R join those classes in one
routine, through one column search between class leads only, so C_R
restricts its generators to one object per G-class; a request that
compares several categories scans the group once.
The scan is one Schreier orbit walk (Sims 1970) from the least object R of
each G-class: each new tuple of the orbit {g R.basis g^-1} is conjugated
by each generator's conjugation map from ``groups``, so a class costs
|G : C_G(R)| |gens| tuple conjugations and |G : C_G(R)| target searches,
and G is never listed.  It records the orbit, Aut_Q(R), and for each
conjugate U the first tuple tau_U of the walk that spans U, with t_U its
coordinates in U; a member, read through its lead's orbit (the orbit of
tau_U), costs nothing.  The j-th entries of the orbit's tuples are
the G-class of R's j-th basis element, so the level search reads conjugacy
from the scan and conjugates nothing itself.

The level test enumerates no tuples.  A witness conjugating a basis of a
subgroup S <= W conjugates every element of S, and every n-tuple generates
such a subgroup of rank <= n, so f: W -> U is level-n exactly when, for each
object S <= W of rank min(n, rank W), the images under f of S's basis tau_S
form a key of its orbit.  When rank W <= n the only such S is W itself, so
Iso_n(W, U) = Iso_Q(W, U) and the scan's class is kept, with no column
searched; from the p-rank on, A^(n) is the Quillen category.  Level 0
tests nothing, so each rank's G-classes join the first, whose Aut is GL.
Otherwise f's column j is a conjugate in U of W's j-th basis element, and
``modp.full_rank_matrices``, the column walk that also lists GL_r and
serves C_R, tests each S once the columns that tau_S reads are chosen, so
a failing prefix cuts every matrix below it.  That
test is one coded product: the codes of tau_S in W, cut to the columns
read, times the chosen column codes are the codes in U of the images,
which index U's elements.
``is_level_n_morphism`` tests the same reduction with a conjugacy search per
subgroup and returns a certificate of witnesses; the builder does not call
it, and the tests compare the builder with it.  The all-tuples brute force
lives in the test suite as the independent oracle for the reduction.

A skeleton composes Hom(R, V) from a class lead R (t_R = 1) block by block:
one block incl_k t_k Aut(R) per member U_k <= V, the morphisms with image
U_k.  Right multiplication by Aut(R) runs through a block and a left a in
Aut(V) carries the block of U_k to that of a(U_k), so the Aut(V) x Aut(R)
orbits are counted by the distinct least blocks of the left orbits, which
are walked with Aut(V)'s greedy generators from ``groups``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from . import modp
from .elemab import LinearMorphism, enumerate_elem_abelians, inclusion_matrix
from .groups import (
    DEFAULT_ORDER_CAP, FiniteGroup, GroupError, closure, commute, greedy_generators, group_exponent,
)

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
        basis = tuple(w.element_at(modp.encode(r, w.p)) for r in rows)
        images = tuple(f(x) for x in basis)
        g = group.simultaneous_conjugacy(basis, images)
        if g is None:
            return LevelCertificate(False, witnesses, failing=basis)
        witnesses[basis] = g
    return LevelCertificate(True, witnesses)


class ChromCategory:
    """A category of elementary abelian p-subgroups with linear morphisms,
    stored as one groupoid per isomorphism class over the inclusion poset.

    ``classes`` lists the classes in order of least member R, each as
    (Aut_C(R) as a sorted tuple of coded matrices, {U: t_U in Iso_C(R, U)}),
    and ``above`` is the inclusion poset: above[k] lists the j with U_k <=
    V_j.  Hom(W_i, V_j) is the union over the objects U_k <= V_j of Iso(i,
    k) followed by the inclusion, and distinct (k, iso) give distinct
    morphisms, so only ``hom`` and ``homs`` multiply them out, with the
    inclusion matrices of the pairs they read, and keep nothing.  ``space``
    is F_p^rank of the largest object, whose ``mul`` multiplies the codes.
    """

    def __init__(self, group, space, level, kind, objects, classes, above):
        self.group = group
        self.space = space
        self.p = space.p
        self.level = level
        self.kind = kind  # "level" | "quillen" | "subring"
        self.objects = tuple(objects)
        self.classes = classes
        self.above = above
        self.class_of = {k: c for c, (_, ts) in enumerate(classes) for k in ts}

    def _composites(self, i: int, heads: list) -> tuple:
        """h a t_i^-1 for h in heads and a in Aut(R) of i's class, sorted; the
        builders give each R the identity t_R, so sets out of R invert nothing."""
        aut, transports = self.classes[self.class_of[i]]
        t, mul = transports[i], self.space.mul
        if heads and t != modp.identity_code(len(t), self.p):
            back = self.space.inverse(t)
            aut = [mul(a, back) for a in aut]
        return sorted(mul(h, a) for h in heads for a in aut)

    def hom(self, i: int, j: int) -> tuple:
        """The matrices of Hom(objects[i], objects[j]), sorted, as tuples;
        at equal ranks these are Iso(objects[i], objects[j])."""
        v = self.objects[j]
        heads = [
            self.space.mul(inclusion_matrix(self.objects[k], v), t)
            for k, t in self.classes[self.class_of[i]][1].items()
            if j in self.above[k]
        ]
        cols = self.objects[i].rank
        return tuple(modp.decode_matrix(m, cols, self.p) for m in self._composites(i, heads))

    @property
    def homs(self) -> dict:
        """{(i, j): hom(i, j)} over the nonempty hom-sets."""
        keys = {
            (i, j) for i, c in self.class_of.items()
            for k in self.classes[c][1] for j in self.above[k]
        }
        return {key: self.hom(*key) for key in sorted(keys)}

    def morphism_count(self) -> int:
        return sum(
            len(aut) * len(transports) * sum(len(self.above[k]) for k in transports)
            for aut, transports in self.classes
        )

    def equals(self, other: "ChromCategory") -> bool:
        """Hom-set by hom-set equality over the identical object list.  The
        objects fix the inclusions and the split is unique, so equal hom-sets
        are equal iso sets: the same classes with the same Aut(R), and each
        transport of the other in this one's Iso(R, U) = t_U Aut(R), which
        holds t_U itself, so an equal transport is not inverted."""
        same_objects = self.group is other.group and self.objects == other.objects
        if not same_objects or self.class_of != other.class_of:
            return False
        for (aut, mine), (other_aut, theirs) in zip(self.classes, other.classes):
            auts = set(aut)
            if aut != other_aut or any(
                t != mine[k] and self.space.mul(self.space.inverse(mine[k]), t) not in auts
                for k, t in theirs.items()
            ):
                return False
        return True

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
    """What one orbit walk per G-class yields: the Quillen classes, and for
    every object U the orbit {g R.basis g^-1} of its class lead R, one set
    per class, and tau[U], that orbit's first tuple that spans U; and the
    tuple conjugations the walks made."""

    classes: list
    orbits: list
    tau: list
    conjugations: int


def _conjugation_scan(group, objects) -> _Scan:
    """One Schreier orbit walk from the least object R of each G-class: the
    walk conjugates each new basis tuple by each generator's conjugation
    map, and a tuple seen before adds nothing.  The first tuple that spans
    a conjugate U gives tau_U, and t_U is its coordinates in U; Aut_Q(R)
    collects the coordinates of every tuple that spans R, so tau_R =
    R.basis and t_R = 1."""
    index = {u.elements: k for k, u in enumerate(objects)}
    maps, p = group.conjugation_maps, objects[0].p
    classes, orbits, tau = [], [None] * len(objects), [None] * len(objects)
    conjugations = 0
    for i, r in enumerate(objects):
        if orbits[i] is not None:
            continue
        orbit, aut, transports = {r.basis}, [], {}
        walk = [(r.basis, i)]  # (tuple, the object it spans), read as it grows
        for images, k in walk:
            u = objects[k]
            if k == i or k not in transports:
                m = modp.from_columns([u.coordinates(x) for x in images], u.rank, p)
                if k == i:
                    aut.append(m)
                if k not in transports:
                    transports[k] = m
                    orbits[k], tau[k] = orbit, images
            for phi in maps:
                nxt = tuple([phi[x] for x in images])
                if nxt not in orbit:
                    orbit.add(nxt)
                    walk.append((nxt, index[frozenset([phi[x] for x in u.elements])]))
        conjugations += len(walk) * len(maps)
        classes.append((tuple(sorted(aut)), transports))
    return _Scan(classes, orbits, tau, conjugations)


class Fusion:
    """One group at one prime, shared by every category a request builds.

    It holds the objects and their inclusion poset, runs the conjugation
    scan once, when it is built, and builds the level-n, Quillen and subring
    categories from its classes, searching between class leads only.
    ``stats`` counts what it did: objects, scans run, G-classes of objects,
    tuples the scan conjugated, column prefixes tested and matrices kept by
    the level search, and prefixes C_R pulled back along.  Nothing is kept
    anywhere else, so the scan lives exactly as long as the Fusion.
    """

    def __init__(self, group: FiniteGroup, p: int):
        self.group = group
        self.p = p
        self.objects = tuple(enumerate_elem_abelians(group, p))
        self.rank = max(v.rank for v in self.objects)
        self.space = modp.VectorSpace(p, self.rank)
        # above[k]: k and the j with objects[k] < objects[j], all of higher rank
        ranks, sets = [v.rank for v in self.objects], [v.elements for v in self.objects]
        self.above = tuple(
            (k,) + tuple(j for j in range(bisect_right(ranks, r), len(sets)) if u <= sets[j])
            for k, (r, u) in enumerate(zip(ranks, sets))
        )
        self.scan = _conjugation_scan(group, self.objects)
        self.stats = {
            "objects": len(self.objects),
            "scans": 1,
            "classes": len(self.scan.classes),
            "scan_conjugations": self.scan.conjugations,
            "level_candidates": 0,
            "level_kept": 0,
            "subring_pullbacks": 0,
        }

    def category(self, n: Level) -> ChromCategory:
        """A^(n); n None gives the Quillen category."""
        if n is None:
            return self._category(None, "quillen", self.scan.classes)
        if n < 0:
            raise GroupError("level must be >= 0")
        return self._category(n, "level", self._level_classes(n))

    def subring(self, presentation) -> ChromCategory:
        """C_R of ``subrings.build_CR`` on these objects.

        f: W -> U is kept when f^* Res_U = Res_W.  Conjugation keeps
        restrictions, so only Quillen leads are restricted, and the column
        search joins them: Res_U pulled back along f's first j columns must
        be Res_W on W's first j basis vectors, or the prefix is cut.
        """
        if presentation.fusion.group is not self.group:
            raise GroupError("the presentation is on another group's Sylow subgroup")
        p, res = self.p, {}
        for _, transports in self.scan.classes:
            res[min(transports)] = presentation.restrictions(self.objects[min(transports)])

        def isos(i, k):
            rank = self.objects[i].rank
            unit = modp.identity_matrix(rank)
            want = [tuple(f.substitute_linear(unit[:j]) for f in res[i]) for j in range(rank + 1)]

            def keep(cols):
                cols = tuple(modp.decode(c, rank, p) for c in cols)
                return tuple(f.substitute_linear(cols) for f in res[k]) == want[len(cols)]

            return self._search([range(1, p ** rank)] * rank, keep, "subring_pullbacks")

        return self._category(None, "subring", self._joined_classes(isos))

    def _category(self, level, kind, classes) -> ChromCategory:
        return ChromCategory(
            self.group, self.space, level, kind, self.objects, classes, self.above
        )

    def _level_classes(self, n: int) -> list:
        """The classes of A^(n): a Quillen class of rank <= n stays, and a
        larger one joins or leads as the column search finds.  At n = 0 the
        search keeps every invertible matrix, so each rank is one class with
        Aut = GL, and a member U of a joined class carries t_U f.  Otherwise
        W = objects[i] leads its G-class, so its orbit's tuples are conjugates
        of its basis; f: W -> U passes a rank-n object S <= W when it carries
        tau_S into the orbit of S's lead, which holds tau_S.
        """
        if n >= self.rank:
            return self.scan.classes
        p, objects, (classes, orbits, tau, _) = self.p, self.objects, self.scan
        mul = self.space.mul
        quillen = {min(transports): aut for aut, transports in classes}

        def isos(i, k):
            w, u = objects[i], objects[k]
            if w.rank <= n:
                return iter(quillen[i] if i == k else ())
            if n == 0:
                return modp.full_rank_matrices(self.space, w.rank, [range(1, p ** w.rank)] * w.rank)
            choices = [
                [u.coordinates(x) for x in sorted(u.elements & set(col))]
                for col in zip(*orbits[i])
            ]
            tests = [[] for _ in range(w.rank + 1)]  # tests[j]: the S read by j columns
            for s, v in enumerate(objects if all(choices) else ()):
                if v.rank == n and v.elements <= w.elements:
                    coords = [w.coordinates(b) for b in tau[s]]
                    read, cut = modp.leading_columns(coords, w.rank, p)
                    tests[read].append((orbits[s], cut))

            def keep(cols):
                return all(
                    tuple(map(u.element_at, mul(coords, cols))) in orbit
                    for orbit, coords in tests[len(cols)]
                )

            return self._search(choices, keep, "level_candidates", "level_kept")

        return self._joined_classes(isos)

    def _joined_classes(self, isos) -> list:
        """The classes of a category containing the Quillen category, from
        isos(i, k), which lists Iso_C(objects[i], objects[k]) lazily for a
        G-class lead i and k of its rank: each Quillen class, lead R', joins
        the first class of its rank whose lead R has some f in isos(R, R'),
        its members U taking t_U f, or leads with Aut_C(R') = isos(R', R')."""
        classes = []
        for _, transports in self.scan.classes:
            r = min(transports)
            for _, joined in classes:
                lead = min(joined)
                same_rank = self.objects[lead].rank == self.objects[r].rank
                f = next(isos(lead, r), None) if same_rank else None
                if f is not None:
                    joined.update((k, self.space.mul(t, f)) for k, t in transports.items())
                    break
            else:
                classes.append((tuple(sorted(isos(r, r))), dict(transports)))
        return classes

    def _search(self, choices, keep, tested, kept=None):
        """``modp.full_rank_matrices`` over these choices and keep, counting
        prefixes tested in stats[tested] and matrices found in stats[kept]."""
        def counted(cols):
            self.stats[tested] += 1
            passed = keep(cols)
            if passed and kept and len(cols) == len(choices):
                self.stats[kept] += 1
            return passed

        return modp.full_rank_matrices(self.space, len(choices), choices, counted)


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


def skeleton(cat: ChromCategory) -> SkeletonReport:
    """Object classes under isomorphism in the category, with orbit data,
    from the stored classes and poset: only the hom-sets that ``above``
    links are composed, block by block, and Aut is walked by generators."""
    p, objects, mul = cat.p, cat.objects, cat.space.mul
    classes = [(sorted(ts), aut, ts) for aut, ts in cat.classes]
    if len(classes) > 1:
        classes = [c for c in classes if objects[c[0][0]].rank > 0]
    position = {members[0]: c for c, (members, _, _) in enumerate(classes)}

    report, generators = SkeletonReport(), []
    for members, aut, _ in classes:
        ident, rep = modp.identity_code(len(aut[0]), p), members[0]
        generators.append(greedy_generators(aut, ident, mul))
        report.classes.append(ObjectClass(
            objects[rep].rank, rep, tuple(members), len(aut), commute(generators[-1], mul),
            group_exponent(aut, ident, mul),
        ))

    for si, (members, aut, transports) in enumerate(classes):
        blocks = {}  # target class -> the members U_k <= its lead
        for k in members:
            for j in cat.above[k]:
                if j in position:
                    blocks.setdefault(position[j], []).append(k)
        for ti in sorted(blocks.keys() - {si}):
            v, aut_t, block_of = objects[classes[ti][0][0]], classes[ti][1], {}
            for b, k in enumerate(blocks[ti]):
                head = mul(inclusion_matrix(objects[k], v), transports[k])
                block_of.update((mul(head, a), b) for a in aut)
            orbits, least_blocks = [], set()
            for m in sorted(block_of):  # each left orbit from its least member
                if m in block_of:
                    orbit = closure(m, generators[ti], lambda x, a: mul(a, x), len(aut_t))
                    least_blocks.add(min(block_of.pop(x) for x in orbit))
                    orbits.append((len(orbit), len(aut_t) // len(orbit)))
            report.edges.append(SkeletonEdge(
                si, ti, len(aut) * len(blocks[ti]), tuple(orbits), len(least_blocks)
            ))
    return report


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
    below the p-rank test candidates.  The levels shrink to A^(p-rank),
    the Quillen category, so that level is 1 past the last strict step."""
    fusion = Fusion(group, p)
    rank = fusion.rank
    cats = {n: fusion.category(n) for n in range(1, rank + 2)}
    strict = {
        n: not cats[n].equals(cats[n + 1]) for n in range(1, rank + 1)
    }
    stab = 1 + max((n for n in strict if strict[n]), default=0)
    return HomChainReport(p_rank=rank, stabilization_rank=stab, strict=strict)


def witness_scan(
    library: Sequence[tuple], p: int, n: int, order_cap: int = DEFAULT_ORDER_CAP
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
