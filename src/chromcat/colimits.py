"""F_q-rational points of category colimits.

For a category C of elementary abelian p-subgroups, the point set of an
object V of rank r is F_q^r; the colimit is the disjoint union of those sets
modulo x ~ f(x) for every morphism f, computed by union-find.  The finite
field stands in for an algebraically closed one: results are always
"F_q-points of the colimit", never the variety itself, and equal counts are
never promoted to equality of varieties.
"""

from __future__ import annotations

from dataclasses import dataclass

from .categories import ChromCategory, build_category, iso_classes
from .elemab import ElemAbelian, enumerate_elem_abelians
from .fqfield import GF
from .groups import FiniteGroup


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # deterministic class representative: smaller index wins
            if rx > ry:
                rx, ry = ry, rx
            self.parent[ry] = rx


def fq_points(v: ElemAbelian, q: int) -> list[tuple]:
    """All q^rank coordinate vectors of V over F_q, in lexicographic order."""
    field = GF.of_size(q, v.p)
    return _points_of_rank(v.rank, field)


def _points_of_rank(rank: int, field: GF) -> list[tuple]:
    points = [()]
    for _ in range(rank):
        points = [pt + (e,) for pt in points for e in field.elements]
    return points


@dataclass
class ColimResult:
    q: int
    object_counts: list          # points per object
    size: int                    # number of colimit classes
    node_class: list             # global node index -> class id
    class_members: list          # class id -> list of (object index, point index)
    class_reps: list             # class id -> (object index, point index)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "object_counts": list(self.object_counts),
            "size": self.size,
            "classes": [
                {"rep": list(rep), "size": len(members)}
                for rep, members in zip(self.class_reps, self.class_members)
            ],
        }


def colim_points(cat: ChromCategory, q: int) -> ColimResult:
    """Union-find quotient of the disjoint object point sets by all morphisms."""
    field = GF.of_size(q, cat.p)
    ranks = [v.rank for v in cat.objects]
    points = [_points_of_rank(r, field) for r in ranks]
    index = [{pt: k for k, pt in enumerate(pts)} for pts in points]
    offsets = []
    total = 0
    for pts in points:
        offsets.append(total)
        total += len(pts)

    uf = UnionFind(total)
    for (i, j), morphisms in sorted(cat.homs.items()):
        for f in morphisms:
            rows = f.matrix
            for k, pt in enumerate(points[i]):
                image = tuple(
                    _linear_combination(row, pt, field) for row in rows
                )
                uf.union(offsets[i] + k, offsets[j] + index[j][image])

    classes = {}
    for i in range(len(points)):
        for k in range(len(points[i])):
            node = offsets[i] + k
            classes.setdefault(uf.find(node), []).append((i, k))
    roots = sorted(classes)
    class_of_root = {r: c for c, r in enumerate(roots)}
    node_class = [class_of_root[uf.find(n)] for n in range(total)]
    members = [classes[r] for r in roots]
    reps = [m[0] for m in members]
    return ColimResult(
        q=q,
        object_counts=[len(pts) for pts in points],
        size=len(roots),
        node_class=node_class,
        class_members=members,
        class_reps=reps,
    )


def _linear_combination(row, pt, field):
    acc = field.zero
    for c, x in zip(row, pt):
        if c:
            acc = field.add(acc, field.scalar(c, x))
    return acc


@dataclass
class FiltrationTower:
    q: int
    levels: list                 # [(n, ColimResult)] from p-rank down to 1
    surjections: list            # maps: class id at level k -> class id at level k+1

    def sizes(self) -> list:
        return [res.size for _, res in self.levels]

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "levels": [
                {"n": n, "size": res.size, "classes": res.to_dict()["classes"]}
                for n, res in self.levels
            ],
            "surjections": [list(s) for s in self.surjections],
        }


def filtration_tower(group: FiniteGroup, p: int, q: int) -> FiltrationTower:
    """Colimit point counts for n = p-rank, ..., 1 with connecting maps.

    Hom-sets grow as n decreases, so each level's partition refines the next
    lower level's; the connecting map sends a level-(n+1) class to the
    level-n class containing it and is checked surjective.
    """
    rank = max(v.rank for v in enumerate_elem_abelians(group, p))
    top = max(rank, 1)
    levels = []
    for n in range(top, 0, -1):
        levels.append((n, colim_points(build_category(group, p, n), q)))
    surjections = []
    for (n_hi, hi), (n_lo, lo) in zip(levels, levels[1:]):
        mapping = [None] * hi.size
        for node, cls_hi in enumerate(hi.node_class):
            cls_lo = lo.node_class[node]
            if mapping[cls_hi] is None:
                mapping[cls_hi] = cls_lo
            elif mapping[cls_hi] != cls_lo:
                raise AssertionError(
                    "connecting map ill-defined between levels %d and %d"
                    % (n_hi, n_lo)
                )
        if set(mapping) != set(range(lo.size)):
            raise AssertionError(
                "connecting map not surjective between levels %d and %d"
                % (n_hi, n_lo)
            )
        surjections.append(mapping)
    return FiltrationTower(q=q, levels=levels, surjections=surjections)


def component_count(cat: ChromCategory) -> int:
    """Isomorphism classes of maximal objects (no morphism to larger rank).

    Maximality is invariant under isomorphism, so each class is tested
    through its representative.
    """
    n = len(cat.objects)

    def maximal(i):
        rank = cat.objects[i].rank
        return not any(cat.hom(i, j) and cat.objects[j].rank > rank for j in range(n))

    return sum(1 for members in iso_classes(cat) if maximal(members[0]))
