"""F_q-rational points of category colimits.

For a category C of elementary abelian p-subgroups, the point set of an
object V of rank r is V (x) F_q = F_q^r; the colimit is the disjoint union of
those sets modulo x ~ f(x) for every morphism f.  The finite field stands in
for an algebraically closed one: results are always "F_q-points of the
colimit", never the variety itself, and equal counts are never promoted to
equality of varieties.

The quotient has a closed form.  Write F_q = F_p^m, so a point x of V is r
field elements, or m coordinate columns in F_p^r.  The support of x is the
subgroup S <= V those columns span, and x has full support when S = V, that
is when its r field elements are F_p-independent.  Every point is the
inclusion of a full-support point of its support.  Morphisms are injective
and restrict to morphisms between subgroups, so f carries x to a point with
support f(S), and x ~ y exactly when their supports are isomorphic in C and
the two full-support points, carried to one representative U, lie in one
orbit of Aut_C(U).  So each colimit class holds exactly one Aut_C(U)-orbit
of full-support points of one isomorphism class [U]:

* Aut_C(U) acts freely on the prod_{i<r} (q - p^i) full-support points of U,
  so [U] contributes that many points divided by |Aut_C(U)| classes;
* the class of a full-support x meets V in the points f(x), f in
  Hom_C(U, V), and f -> f(x) is injective, so it has sum_V |Hom_C(U, V)|
  points.

Objects are sorted by rank, so the least point of a class lies in the least
object U of [U]: the class walk below lists U's full-support points in
lexicographic order, and each point not yet seen is the least point of its
class: it takes the class's id and the actions of Aut_C(U)'s elements
other than the identity carry it to the rest.  A class with trivial Aut
applies no matrix: its points are its leads, numbered in one pass.  The
walk depends only on Aut_C(U), so a request walks each distinct Aut tuple
once and every class with that Aut, at every level of a tower, shares it;
a class's ids are its first id plus the walk's local orbit ids.  The
result keeps the classes of [U] as one block: [U]'s least object, the
points in each class, and the walk's leads, shared with the walk and
never copied; it keeps nothing else of the category or the walks, and the
CLI writes a block shared by several tower levels once.
The tower's connecting maps go one class at a time and read the lower
category itself: a level-(n+1) lead R lies in the level-n class
``class_of[R]``, whose least member and t_R the category stores.  A class
whose R is that least member and whose walk is the lower class's walk maps
its orbits in order, as one range; only a class whose R was joined to a
smaller lead a level down, by a matrix other than the identity, applies a
matrix to its points.  Walks and tables live for one call only.
F_q is ``modp.VectorSpace(p, m)``: a point is its point index, one int
whose base-q digits are its r vector codes, the full-support points of
rank r are the space's independent r-tuples, listed at once, and
``action`` turns a coded F_p-matrix into its map on point indices, built
once per matrix, with only addition and F_p-scaling: XOR and shifts at
p = 2, two tables at odd p.  Only that vector space is used, never the
field multiplication, so q may be any power of p.  The work still grows
with q: WORK_BOUND caps q^2 (the size of the addition table at odd p;
p = 2 adds by XOR and builds none, but is charged the same so that one
bound serves every p) plus the full-support points of every class, shared
walks counted once per class, and a larger request is refused before any
table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import modp
from .categories import ChromCategory, Fusion
from .elemab import injective_hom_count
from .groups import FiniteGroup, orbit_walk

# Most q^2 plus full-support points one colimit may use.
WORK_BOUND = 2 ** 20


class FqError(ValueError):
    pass


def q_to_pm(q: int, p: int) -> int:
    """The exponent m with q = p^m, or raise.

    Also raises when q^2 alone passes WORK_BOUND.
    Neither check needs a category, so callers run this before any build.
    """
    m = 0
    n = q
    while n > 1:
        if n % p:
            raise FqError("%d is not a power of %d" % (q, p))
        n //= p
        m += 1
    if m == 0:
        raise FqError("field size must be at least p")
    if q * q > WORK_BOUND:
        raise FqError(
            "q = %d is charged q^2 = %d, past the work bound %d"
            % (q, q * q, WORK_BOUND)
        )
    return m


class _Walk:
    """The orbits of one Aut tuple on the full-support points of its rank.

    ``points`` lists the point index of the least point of each orbit, in
    increasing order, and ``orbit`` maps every full-support point to its
    local orbit id.  A lead takes its id directly, so only the actions of
    Aut's other elements are applied; a trivial Aut makes every point a
    lead, numbered in one pass.  Every class whose least member has this
    Aut shares the walk, at every level of a tower.
    """

    def __init__(self, f: modp.VectorSpace, auts: tuple):
        rank = len(auts[0])
        unit = modp.identity_code(rank, f.p)
        points = f.independent_tuples(rank)
        if len(auts) == 1:
            self.points, self.orbit = points, dict(zip(points, range(len(points))))
        else:
            moves = [f.action(a) for a in auts if a != unit]
            self.points, self.orbit = orbit_walk(points, moves)
        if len(self.points) * len(auts) != injective_hom_count(rank, f.m, f.p):
            raise AssertionError(
                "Aut of rank %d does not act freely on its full-support points"
                % rank
            )


@dataclass
class ColimResult:
    q: int
    object_counts: list          # points per object
    size: int                    # number of colimit classes
    # per class [U], in class-id order: (least object R, points in each of
    # its colimit classes, the index in R of each one's least point); a [U]
    # of rank above m has no full-support point and so no class
    blocks: list


def _check_work(cat: ChromCategory, q: int) -> ChromCategory:
    """cat, or raise when q^2 plus the full-support points of every class
    pass WORK_BOUND.  Classes that share a walk are counted once each, so
    the bound does not depend on how much is shared."""
    walked = sum(
        math.prod(q - cat.p ** i for i in range(cat.objects[min(transports)].rank))
        for _, transports in cat.classes
    )
    if q * q + walked > WORK_BOUND:
        raise FqError(
            "q = %d is charged q^2 = %d plus %d full-support points, "
            "past the work bound %d on their sum" % (q, q * q, walked, WORK_BOUND)
        )
    return cat


def colim_points(cat: ChromCategory, q: int) -> ColimResult:
    """The colimit's F_q-points, one Aut-orbit walk per distinct Aut."""
    m = q_to_pm(q, cat.p)
    _check_work(cat, q)
    return _colim(cat, modp.VectorSpace(cat.p, m), {})


def _colim(cat: ChromCategory, f: modp.VectorSpace, walks: dict) -> ColimResult:
    """colim_points over the field f, taking each class's walk from
    ``walks`` (Aut tuple -> walk) and adding the walks it lacks."""
    counts = [f.q ** v.rank for v in cat.objects]
    blocks = []
    for auts, transports in cat.classes:
        if auts not in walks:
            walks[auts] = _Walk(f, auts)
        # Hom(U, V) is Iso(U, U_k) followed by U_k <= V, one V per object above U_k
        points = len(auts) * sum(len(cat.above[k]) for k in transports)
        blocks.append((min(transports), points, walks[auts].points))
    if sum(points * len(leads) for _, points, leads in blocks) != sum(counts):
        raise AssertionError("colimit classes do not partition the points")
    return ColimResult(
        q=f.q,
        object_counts=counts,
        size=sum(len(leads) for _, _, leads in blocks),
        blocks=blocks,
    )


@dataclass
class FiltrationTower:
    q: int
    levels: list                 # [(n, ColimResult)] from p-rank down to 1
    surjections: list            # maps: class id at level k -> class id at level k+1

    def sizes(self) -> list:
        return [res.size for _, res in self.levels]


def filtration_tower(group: FiniteGroup, p: int, q: int) -> FiltrationTower:
    """Colimit point counts for n = p-rank, ..., 1 with connecting maps.

    Hom-sets grow as n decreases, so each level's partition refines the next
    lower level's; the connecting map sends a level-(n+1) class to the
    level-n class of its representative and is checked surjective.  One
    Fusion builds every level, and one field and one walk per distinct Aut
    serve them all.  The map is read one level-(n+1) class at a time, off
    the two categories: its lead R lies in the level-n class ``class_of[R]``,
    whose first id is the number of leads of the classes before it, and
    each rep is looked up in that class's walk.  Only a class whose R is
    not the least member of its level-n class inverts t_R, once, and
    applies the inverse to each rep unless it is the identity matrix (S6
    and A6 at p = 2 join two classes through it).
    """
    m = q_to_pm(q, p)
    fusion = Fusion(group, p)
    cats = [
        (n, _check_work(fusion.category(n), q))
        for n in range(max(fusion.rank, 1), 0, -1)
    ]
    f = modp.VectorSpace(p, m)
    walks = {}
    levels = [(n, _colim(cat, f, walks)) for n, cat in cats]
    surjections = []
    for (n_hi, hi), (n_lo, lo) in zip(cats, cats[1:]):
        first = [0]
        for auts, _ in lo.classes:
            first.append(first[-1] + len(walks[auts].points))
        mapping = []
        for auts, transports in hi.classes:
            r = min(transports)
            c = lo.class_of[r]
            lower, joined = lo.classes[c]
            points = walks[auts].points
            if min(joined) == r:
                if lower == auts:  # one walk, one lead: orbit i maps to orbit i
                    mapping.extend(range(first[c], first[c] + len(points)))
                    continue
            else:
                back = fusion.space.inverse(joined[r])
                if back != modp.identity_code(len(back), p):
                    points = map(f.action(back), points)
            orbit = walks[lower].orbit
            mapping += [first[c] + orbit[pt] for pt in points]
        if set(mapping) != set(range(first[-1])):
            raise AssertionError(
                "connecting map not surjective between levels %d and %d"
                % (n_hi, n_lo)
            )
        surjections.append(mapping)
    return FiltrationTower(q=q, levels=levels, surjections=surjections)


def component_count(cat: ChromCategory) -> int:
    """Isomorphism classes of maximal objects (no morphism to larger rank).

    A morphism out of U reaches a larger object exactly when some U_k
    isomorphic to U lies below another object, so maximality is read off
    the inclusion poset.
    """
    return sum(
        1
        for _, transports in cat.classes
        if all(len(cat.above[k]) == 1 for k in transports)
    )
