"""Independent brute-force oracles used to confirm derived fixture values.

Nothing here shares code paths with the library's optimized implementations:
the level oracle enumerates tuples, the subgroup oracle scans subsets, the
colimit oracles apply every morphism to every F_q-point, with F_q as
coordinate tuples of F_p^m added mod p, and merge by union-find or by
relabelling until stable, where the library walks one Aut-orbit of
full-support points per isomorphism class in base-p digit tables, and the
polynomial oracles multiply and compose in full before truncating instead
of dropping terms as products are formed, the injective-matrix enumerator
tests each column by a rank computation instead of a span of earlier
columns, and the Cayley table composes every pair of permutations instead of
reading the closure's generator steps.  The Hurewicz oracle convolves every split of
the coproduct with the * product before reducing, where the library writes
the reduced image in closed form.  ``all_pairs_star_mul`` and
``all_pairs_circ_mul`` form every coefficient product and let the bound
truncate afterwards, where the library skips each pair of terms whose
lowest degrees sum past the bound, and ``all_pairs_beta_pushforward``
runs the pushforward through them.  ``union_find_tower`` reads a tower's
connecting maps node by node, where the library maps a class at a time
from the shared walks.  ``reference_walk`` lists the independent tuples
point by point from a generator, applies every Aut element but the
identity to each lead by decoding it, multiplying digit by digit and
encoding again, and numbers each point in ``listed_orbit_walk``'s loop,
where the library lists each prefix's last coordinates in one
comprehension, acts by one map per matrix built once, and numbers a
trivial Aut's points in one pass; and ``two_sided_orbits`` multiplies every pair of
automorphisms into every morphism, where the skeleton counts the distinct
least blocks (one block per image) among its left orbits.
``elementwise_skeleton`` composes the hom-set between every pair of class
leads whole, multiplies every Aut(target) element into every morphism,
takes every Aut element's order and tests every pair for commutativity, and
counts two-sided orbits as Aut(target)-orbits of row-reduced subobject
spans, where the library composes only the pairs the poset links, block by
block, and walks Aut through greedy generators.  The all-pairs category
builders below share the level test and the enumeration of injective maps
with the library, but test every injective map W -> V for every pair of
objects and scan all of G for every pair, where the library composes
isomorphisms onto the image with inclusions; ``all_pairs_CR`` tests the
restriction equation on each such map, restricting along a chosen one of
the embeddings that ``embeddings_into`` lists, where the library restricts
along the scan's transport of P onto the first Sylow subgroup above the
object and searches the isomorphisms between G-class leads column by
column.  ``with_inclusions``
multiplies every such composite out into a morphism, where the library
composes a hom-set only when asked for it, and ``inverse_iso_classes``
joins two objects when some morphism has its inverse matrix among the
morphisms back, where the library reads its classes off the groupoids it
stores.  ``per_object_scan`` walks all of G from every object, where the
library walks one orbit per G-class from G's generators.
``class_count_by_all_conjugators`` conjugates each class lead by every
element, where the library closes each class under the generators.
``element_order_by_powers`` multiplies an element into itself until the
identity comes back, where ``FiniteGroup.elements_of_order`` reads only
whether g^p = 1, and ``span_by_powers`` multiplies each coordinate tuple
out, where ``FiniteGroup.times_powers`` walks a * e^j from a listed span.
``extend_and_dedupe_elem_abelians`` extends every subgroup by every
commuting order-p element outside it and drops repeats by element
set, with each least basis rebuilt span by span from scratch and the
coordinates multiplied out power by power, where the library builds each
subgroup once, from its least basis, through ``times_powers``.
``triple_loop_mat_mul`` and ``triple_loop_mat_vec`` index every entry of
a product, where ``modp`` zips each row with each column of b;
``whole_row_rref`` eliminates dense whole rows column by column and
reduces mod p as it goes, where ``modp`` reduces packed rows, which hold
only their nonzero entries, one at a time against the pivots kept so far;
``whole_row_inverse`` reads an inverse off the RREF of [m | 1], where
``VectorSpace.inverse`` walks the coded powers of m, and ``encode_matrix``
codes a tuple matrix row by row for the tests that feed coded routines;
``whole_row_kernel_basis`` reads a right kernel off that RREF, where
``modp.relations`` tags each row and finds the relations among them in
one forward elimination; ``substitute_invariant_basis`` substitutes every
monomial afresh, looks up each (sigma - id) entry by coefficient and
solves for the kernel, where the library walks each generator's monomial
images up the degrees once as packed rows over integer monomial names;
``matrix_group_elements`` lists the group a ``LinearAction`` generates,
frontier by frontier, where the library never lists it; and
``digit_tuple_add_table`` adds F_p^m vectors as digit tuples, where
``modp.VectorSpace`` builds its table a leading digit at a time.
``rational_honda_fgl`` builds the Honda law over the rationals from the
logarithm l itself and reduces it mod p after checking each coefficient's
p-integrality, where the library builds p G(s/p, t/p) over the integers
from l(px)/p; it inverts l by ``series_inverse_by_substitution``, one full
substitution per degree, where the library walks a table of power
coefficients once.  ``linear_substitution`` multiplies each term out in
full by ``naive_truncated_composition``, where ``substitute_linear``
expands cached powers of its linear forms; the C_R oracles and
``substitute_invariant_basis`` pull back through it.
``graded_piece_by_powers`` forms each monomial in the generators as a
product of ``PolyFp`` powers and lists the exponent tuples by filtering a
product of ranges, where ``graded_piece`` expands each monomial by one
substitution of coefficient dicts over a recursive tuple walk.
``class_lead_oracle`` tests every invertible matrix at each class lead,
listed by ``rank_injective_matrices`` and not by the library's walk, with
``level_iso_test``, which walks each subspace's conjugate tuples over G
afresh, or with ``subring_iso_test``, which pulls every restriction back
along the whole matrix, where the library's column search cuts a prefix as
soon as it fails and reads conjugacy from the scan.

``centralizer``, ``compose``, ``identity_morphism``,
``distinguishing_generator``, ``witness``, ``skeleton_class_by_rank`` and
``skeleton_edge`` are reference helpers with no caller in the library, and
``orbit_from_terms`` builds a pushforward's input from explicit terms.
``conjugate`` (h g h^-1) and ``conjugation_matrix`` (x -> g x g^-1 from
one object into another, or None) conjugate by any element of G, read off
the Cayley table, where the library conjugates only by its generators'
maps in the scan and otherwise takes inclusion matrices.
``inclusion_poset_all_pairs`` tests every pair of objects for inclusion,
where ``Fusion`` tests each object against those of higher rank only.
``conjugation_matrix`` and ``tuple_classes`` write matrices as tuples of
row tuples, so every oracle here works on tuples.
``render_by_items`` is ``PolyFp.render`` as it was before it sorted bare
exponent tuples: it sorts every (exponents, coefficient) item through a
lambda, a one-term polynomial's too.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from chromcat import (
    FGL,
    FiltrationTower,
    GroupError,
    HopfError,
    HopfExpr,
    LinearMorphism,
    PolyFp,
    b_series,
    build_category,
    enumerate_elem_abelians,
    injective_homs,
    is_level_n_morphism,
    mod_indecomposables,
    modp,
)
from chromcat.categories import SkeletonReport
from chromcat.hopf import OrbitRestriction
from chromcat.polyfp import default_names


def conjugate(group, g, h):
    """h g h^-1, read off the Cayley table; h^-1 is read off h's row."""
    t = group.table
    return t[t[h][g]][t[h].index(0)]


def brute_simultaneous_conjugacy(group, a, b):
    """Plain scan of the whole group for a witness."""
    for g in group.elements():
        if all(conjugate(group, x, g) == y for x, y in zip(a, b)):
            return g
    return None


def conjugation_matrix(sub, target, g):
    """The matrix of x -> g x g^-1 : sub -> target in basis coordinates, as
    a tuple of row tuples, or None when g does not conjugate sub into
    target; g = 0 gives the inclusion."""
    cols = []
    for b in sub.basis:
        image = conjugate(sub.group, b, g)
        if image not in target:
            return None
        cols.append(target.coordinates(image))
    return modp.decode_matrix(modp.from_columns(cols, target.rank, sub.p), sub.rank, sub.p)


def tuple_classes(classes, objects, p) -> list:
    """Classes (Aut(R), {U: t_U}) as a category or scan stores them, each
    coded matrix written as a tuple of row tuples."""
    out = []
    for aut, transports in classes:
        rank = objects[min(transports)].rank
        out.append((
            tuple(modp.decode_matrix(a, rank, p) for a in aut),
            {k: modp.decode_matrix(t, rank, p) for k, t in transports.items()},
        ))
    return out


def witness(cat, i, j, matrix):
    """The least g inducing the morphism objects[i] -> objects[j] of cat
    with this matrix, or None when it is not a conjugation morphism."""
    images = [cat.objects[j].element_at(modp.encode(col, cat.p)) for col in zip(*matrix)]
    return brute_simultaneous_conjugacy(cat.group, cat.objects[i].basis, images)


def level_oracle_all_tuples(f, n):
    """Direct reading of the level condition: every n-tuple of source
    elements has some g conjugating it onto its image tuple.

    The per-g fixed sets factor the "exists g forall i" check; no subgroup
    structure of the source is used anywhere.
    """
    group = f.source.group
    elements = sorted(f.source.elements)
    image = {w: f(w) for w in elements}
    fixes = set()
    for g in group.elements():
        fix = frozenset(w for w in elements if image[w] == conjugate(group, w, g))
        if len(fix) == len(elements):
            return True  # g conjugates every tuple at once
        fixes.add(fix)
    maximal = [s for s in fixes if not any(s < t for t in fixes)]
    for tup in itertools.product(elements, repeat=n):
        if not any(all(w in s for w in tup) for s in maximal):
            return False
    return True


def a1_elementwise(f):
    """Literal reading of the level-1 category: every source element maps to
    a conjugate of itself."""
    group = f.source.group
    return all(
        brute_simultaneous_conjugacy(group, (w,), (f(w),)) is not None
        for w in f.source.elements
    )


def brute_elem_abelian_count(group, p, rank, budget=200_000):
    """Count elementary abelian rank-``rank`` subgroups by scanning subsets
    of order-p elements; returns None when the scan would exceed the budget."""
    if rank == 0:
        return 1
    order_p = [
        g for g in group.elements() if g != 0 and element_order_by_powers(group, g) == p
    ]
    size = p ** rank
    import math

    if size - 1 > len(order_p):
        return 0
    if math.comb(len(order_p), size - 1) > budget:
        return None
    count = 0
    for subset in itertools.combinations(order_p, size - 1):
        elems = frozenset(subset) | {0}
        closed = all(group.mul(a, b) in elems for a in elems for b in elems)
        if not closed:
            continue
        abelian = all(
            group.mul(a, b) == group.mul(b, a) for a in elems for b in elems
        )
        if abelian:
            count += 1
    return count


@dataclass(frozen=True)
class ElemAbelianRecord:
    """An elementary abelian subgroup as the reference enumeration sees it."""

    elements: tuple
    basis: tuple
    by_coords: dict
    coords: dict


def _scratch_span(group, gens):
    span = {0}
    for g in gens:
        new = set()
        for s in span:
            x = s
            while True:
                new.add(x)
                x = group.mul(x, g)
                if x == s:
                    break
        span = new
    return span


def _reference_record(group, p, elements):
    basis, span = [], {0}
    for e in sorted(elements):
        if e not in span:
            basis.append(e)
            span = _scratch_span(group, basis)
    by_coords = dict(zip(
        itertools.product(range(p), repeat=len(basis)), span_by_powers(group, p, basis)
    ))
    coords = {g: c for c, g in by_coords.items()}
    return ElemAbelianRecord(tuple(sorted(elements)), tuple(basis), by_coords, coords)


def span_by_powers(group, p, basis):
    """b_1^c_1 ... b_r^c_r for every coordinate tuple c in lexicographic
    order, that is in code order, each multiplied out power by power."""
    out = []
    for c in itertools.product(range(p), repeat=len(basis)):
        g = 0
        for b, k in zip(basis, c):
            for _ in range(k):
                g = group.mul(g, b)
        out.append(g)
    return out


def extend_and_dedupe_elem_abelians(group, p):
    """Every elementary abelian p-subgroup, grown rank by rank: each subgroup
    is extended by every commuting order-p element outside it, and the
    results are deduplicated by element set.  Sorted by (rank, elements)."""
    order_p = [g for g in range(1, group.order) if element_order_by_powers(group, g) == p]
    levels = [{frozenset({0})}]
    while levels[-1]:
        nxt = set()
        for s in levels[-1]:
            for x in order_p:
                if x in s or any(group.mul(x, y) != group.mul(y, x) for y in s):
                    continue
                ext = set()
                for y in s:
                    for _ in range(p):
                        ext.add(y)
                        y = group.mul(y, x)
                nxt.add(frozenset(ext))
        levels.append(nxt)
    sets = sorted(
        (s for level in levels for s in level), key=lambda s: (len(s), sorted(s))
    )
    return [_reference_record(group, p, s) for s in sets]


def inclusion_poset_all_pairs(objects):
    """above[k]: every j with objects[k] <= objects[j], each pair tested."""
    return tuple(
        tuple(j for j, v in enumerate(objects) if u.elements <= v.elements) for u in objects
    )


def centralizer(group, elements):
    """Pointwise centralizer of a tuple of elements, as sorted indices."""
    t = group.table
    return tuple(
        g for g in range(group.order) if all(t[g][x] == t[x][g] for x in elements)
    )


def element_order_by_powers(group, g):
    """The order of g, found by multiplying g into itself until the identity
    comes back."""
    x, k = g, 1
    while x != 0:
        x, k = group.mul(x, g), k + 1
    return k


def exponent_by_powers(group):
    """The lcm of every element's order, each by ``element_order_by_powers``."""
    exponent = 1
    for g in group.elements():
        exponent = math.lcm(exponent, element_order_by_powers(group, g))
    return exponent


def abelian_all_pairs(group):
    """Does every pair of elements commute?"""
    elements = group.elements()
    return all(group.mul(a, b) == group.mul(b, a) for a in elements for b in elements)


def class_count_by_all_conjugators(group):
    """The number of conjugacy classes: each element not yet reached leads
    a class, {h x h^-1} over every h of G."""
    seen, count = set(), 0
    for x in group.elements():
        if x not in seen:
            seen.update(conjugate(group, x, h) for h in group.elements())
            count += 1
    return count


def product_span(group, gens):
    """Every product of ``gens``, multiplied out until no product is new."""
    span = new = {0}
    while new:
        new = {group.mul(x, g) for x in new for g in gens} - span
        span = span | new
    return span


def compose(f, g):
    """f after g (g: U -> W, f: W -> V)."""
    if g.target != f.source:
        raise GroupError("morphisms are not composable")
    return LinearMorphism(g.source, f.target, modp.mat_mul(f.matrix, g.matrix, f.p))


def identity_morphism(v):
    return LinearMorphism(v, v, modp.identity_matrix(v.rank))


def distinguishing_generator(presentation, f):
    """A generator witnessing that f is not a C_R morphism, if any."""
    pullback = modp.transpose(f.matrix)
    for gen, rv, rw in zip(
        presentation.generators,
        presentation.restrictions(f.target),
        presentation.restrictions(f.source),
    ):
        if linear_substitution(rv, pullback) != rw:
            return gen
    return None


def naive_quotient_size(n_nodes, pairs):
    """Equivalence closure by repeated relabeling (no union-find)."""
    labels = list(range(n_nodes))
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            la, lb = labels[a], labels[b]
            if la != lb:
                lo, hi = (la, lb) if la < lb else (lb, la)
                labels = [lo if x == hi else x for x in labels]
                changed = True
    return len(set(labels))


def fq_elements(q, p):
    """F_q as the vector space F_p^m: all coordinate m-tuples, in
    lexicographic order."""
    m = 0
    while p ** m < q:
        m += 1
    if m == 0 or p ** m != q:
        raise ValueError("%d is not a positive power of %d" % (q, p))
    return list(itertools.product(range(p), repeat=m))


def _fq_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def _points(rank, elements):
    pts = [()]
    for _ in range(rank):
        pts = [pt + (e,) for pt in pts for e in elements]
    return pts


def fq_points(v, q):
    """All q^rank coordinate vectors of V over F_q, in lexicographic order."""
    return _points(v.rank, fq_elements(q, v.p))


def colim_size_naive(cat, q):
    """Recompute a colimit point count with independent field application and
    the naive closure above."""
    elements = fq_elements(q, cat.p)
    zero = elements[0]
    points = [_points(v.rank, elements) for v in cat.objects]
    index = [{pt: k for k, pt in enumerate(pts)} for pts in points]
    offsets = []
    total = 0
    for pts in points:
        offsets.append(total)
        total += len(pts)
    pairs = []
    for (i, j), mats in cat.homs.items():
        for matrix in mats:
            for k, pt in enumerate(points[i]):
                out = []
                for row in matrix:
                    acc = zero
                    for c, x in zip(row, pt):
                        for _ in range(c):
                            acc = _fq_add(acc, x, cat.p)
                    out.append(acc)
                pairs.append((offsets[i] + k, offsets[j] + index[j][tuple(out)]))
    return naive_quotient_size(total, pairs)


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


@dataclass
class UnionFindColim:
    q: int
    object_counts: list          # points per object
    size: int                    # number of colimit classes
    node_class: list             # global node index -> class id
    class_members: list          # class id -> list of (object index, point index)
    class_reps: list             # class id -> (object index, point index)


def colim_classes(res) -> list:
    """The class list {"rep": [object, point], "size": points} of a
    ``UnionFindColim``, or of a ``ColimResult`` expanded from its blocks."""
    if isinstance(res, UnionFindColim):
        return [
            {"rep": list(rep), "size": len(members)}
            for rep, members in zip(res.class_reps, res.class_members)
        ]
    return [
        {"rep": [least, k], "size": points}
        for least, points, leads in res.blocks
        for k in leads
    ]


def colim_dict(res) -> dict:
    """Every field of a ``ColimResult`` or ``UnionFindColim`` that the
    colimit oracles compare, as plain lists and dicts."""
    return {
        "q": res.q,
        "object_counts": list(res.object_counts),
        "size": res.size,
        "classes": colim_classes(res),
    }


def tower_dict(tower) -> dict:
    """Every field of a ``FiltrationTower`` that the tower oracles compare:
    q, each level's n, size and classes, and the connecting maps."""
    return {
        "q": tower.q,
        "levels": [
            {"n": n, "size": res.size, "classes": colim_classes(res)}
            for n, res in tower.levels
        ],
        "surjections": [list(s) for s in tower.surjections],
    }


def listed_orbit_walk(items, group, act) -> tuple:
    """The orbits of a listed group on ``items``, walked in order: an item
    not yet reached leads a new orbit, and act(a, x) is given its id for
    every a in ``group``.  Returns the leads and {reached item: orbit id}."""
    leads, ids = [], {}
    for x in items:
        if x in ids:
            continue
        ids[x] = len(leads)
        for a in group:
            ids[act(a, x)] = len(leads)
        leads.append(x)
    return leads, ids


def independent_tuples_by_prefix(f, r):
    """The point index of every r-tuple of F_p-independent vectors of the
    space f, in increasing order, one point at a time from a generator."""
    q = f.q

    def extend(base, span, left):
        if left == 1:
            for x in range(q):
                if x not in span:
                    yield base + x
            return
        for x in range(q):
            if x not in span:
                yield from extend((base + x) * q, f.wider(span, x), left - 1)

    return extend(0, {0}, r) if r else iter([0])


def apply_by_digits(f, matrix, pt):
    """The point index of matrix . pt over the space f: pt's r vectors are
    decoded into F_p digits, multiplied by the decoded matrix and encoded
    again."""
    p, q, m, r = f.p, f.q, f.m, len(matrix)
    vectors = modp.decode(pt, r, q)
    rows = [modp.decode(v, m, p) for v in vectors]
    image = triple_loop_mat_mul(modp.decode_matrix(matrix, r, p), rows, p) if r else ()
    return modp.encode([modp.encode(row, p) for row in image], q)


def reference_walk(f, auts) -> tuple:
    """(leads, {point: orbit id}) of the Aut tuple ``auts`` on the
    full-support points of its rank over the space f, walked point by
    point: every Aut element but the identity is applied to each lead."""
    rank = len(auts[0])
    unit = modp.identity_code(rank, f.p)
    moves = [a for a in auts if a != unit]
    return listed_orbit_walk(
        independent_tuples_by_prefix(f, rank), moves, lambda a, pt: apply_by_digits(f, a, pt)
    )


def union_find_colim(cat, q) -> UnionFindColim:
    """Union-find quotient of the disjoint object point sets by all morphisms."""
    elements = fq_elements(q, cat.p)
    m = len(elements[0])
    points = [_points(v.rank, elements) for v in cat.objects]
    index = [{pt: k for k, pt in enumerate(pts)} for pts in points]
    offsets = []
    total = 0
    for pts in points:
        offsets.append(total)
        total += len(pts)

    uf = UnionFind(total)
    for (i, j), mats in sorted(cat.homs.items()):
        for rows in mats:
            for k, pt in enumerate(points[i]):
                image = tuple(
                    _linear_combination(row, pt, cat.p, m) for row in rows
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
    return UnionFindColim(
        q=q,
        object_counts=[len(pts) for pts in points],
        size=len(roots),
        node_class=node_class,
        class_members=members,
        class_reps=reps,
    )


def _linear_combination(row, pt, p, m):
    """sum_k row[k] * pt[k] in F_p^m, coordinate by coordinate."""
    return tuple(sum(c * x[t] for c, x in zip(row, pt)) % p for t in range(m))


def union_find_tower(group, p, q) -> FiltrationTower:
    """The filtration tower from union-find levels; the connecting map is
    read node by node and checked well defined and surjective."""
    rank = max(v.rank for v in enumerate_elem_abelians(group, p))
    top = max(rank, 1)
    levels = []
    for n in range(top, 0, -1):
        levels.append((n, union_find_colim(build_category(group, p, n), q)))
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


def two_sided_orbits(mats, aut_target, aut_source, p) -> list:
    """The orbits of Aut(target) x Aut(source) on a hom-set, a h b for every
    pair, each sorted, in order of least member."""
    remaining = set(mats)
    orbits = []
    while remaining:
        seed = min(remaining)
        orbit = {
            modp.mat_mul(modp.mat_mul(a, seed, p), b, p)
            for a in aut_target
            for b in aut_source
        }
        remaining -= orbit
        orbits.append(sorted(orbit))
    return orbits


def matrix_order(m: tuple, p: int) -> int:
    ident = modp.identity_matrix(len(m))
    acc, k = m, 1
    while acc != ident:
        acc = modp.mat_mul(acc, m, p)
        k += 1
        if k > p ** (len(m) ** 2):
            raise ValueError("matrix is not invertible")
    return k


def skeleton_class_by_rank(report: SkeletonReport, rank: int) -> dict:
    """The one class of the given rank in a skeleton report."""
    matches = [c for c in report.classes if c["rank"] == rank]
    if len(matches) != 1:
        raise KeyError("rank %d does not name a unique class" % rank)
    return matches[0]


def skeleton_edge(report: SkeletonReport, source_rank: int, target_rank: int) -> dict:
    """The edge between the one class of each of two ranks."""
    si = report.classes.index(skeleton_class_by_rank(report, source_rank))
    ti = report.classes.index(skeleton_class_by_rank(report, target_rank))
    for e in report.edges:
        if e["source"] == si and e["target"] == ti:
            return e
    raise KeyError("no edge %d -> %d" % (source_rank, target_rank))


def elementwise_skeleton(cat) -> SkeletonReport:
    """Object classes under isomorphism in the category, with orbit data.

    Only the hom-sets between class representatives are composed."""
    groups = [
        (sorted(transports), aut)
        for aut, transports in tuple_classes(cat.classes, cat.objects, cat.p)
    ]
    if len(groups) > 1:
        groups = [g for g in groups if cat.objects[g[0][0]].rank > 0]
    report = SkeletonReport()
    for members, mats in groups:
        rep = members[0]
        abelian = all(
            modp.mat_mul(a, b, cat.p) == modp.mat_mul(b, a, cat.p)
            for a in mats
            for b in mats
        )
        exponent = 1
        for m in mats:
            k = matrix_order(m, cat.p)
            exponent = exponent * k // math.gcd(exponent, k)
        report.classes.append({
            "rank": cat.objects[rep].rank,
            "representative": rep,
            "members": list(members),
            "aut_order": len(mats),
            "aut_abelian": abelian,
            "aut_exponent": exponent,
        })

    for si, (sources, _) in enumerate(groups):
        for ti, (targets, aut_t) in enumerate(groups):
            if si == ti:
                continue
            hom = cat.hom(sources[0], targets[0])
            if not hom:
                continue
            # hom is sorted, so the orbits come in order of least member
            ids = listed_orbit_walk(hom, aut_t, lambda a, m: modp.mat_mul(a, m, cat.p))[1]
            sizes = Counter(ids.values())
            report.edges.append({
                "source": si,
                "target": ti,
                "hom_size": len(hom),
                "orbits": [[size, len(aut_t) // size] for size in sizes.values()],
                "two_sided_orbit_count": _subobject_orbit_count(
                    cat, sources, targets[0], aut_t
                ),
            })
    return report


def _subobject_orbit_count(cat, members, v, aut_v) -> int:
    """The Aut(V) x Aut(R) orbits on Hom(R, V), R the least of ``members``.

    Hom(R, V) is the union of the blocks incl_k t_k Aut(R) over the members
    U_k <= V, and each block is one right Aut(R)-orbit, of the morphisms
    with image U_k.  A left a in Aut(V) carries that image to a(U_k), so
    the two-sided orbits are the Aut(V)-orbits of those subobjects, each
    named by the row-reduced basis of its column span.
    """
    p = cat.p

    def span(m):
        return whole_row_rref(modp.transpose(m), p)[0]

    subobjects = [
        span(conjugation_matrix(cat.objects[k], cat.objects[v], 0))
        for k in members
        if v in cat.above[k]
    ]
    leads = listed_orbit_walk(
        subobjects, aut_v, lambda a, s: span(modp.mat_mul(a, modp.transpose(s), p))
    )[0]
    return len(leads)


def canonical_tuple_class(group, tup):
    """Least conjugate of a tuple, by exhaustive enumeration."""
    return min(
        tuple(conjugate(group, x, g) for x in tup) for g in group.elements()
    )


def _full_product(a, b, p):
    """Untruncated product of two exponent -> coefficient dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    if p is not None:
        out = {e: c % p for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def _truncate_late(coeffs, bound, cap):
    """Drop terms of total degree above ``bound`` or with an exponent at or
    above ``cap`` (None disables either) from a finished result."""
    return {
        e: c
        for e, c in coeffs.items()
        if (bound is None or sum(e) <= bound) and (cap is None or all(x < cap for x in e))
    }


def naive_truncated_product(a, b, p, bound=None, cap=None):
    """Multiply in full, then truncate."""
    return _truncate_late(_full_product(a, b, p), bound, cap)


def naive_truncated_power(a, k, nvars, p, bound=None, cap=None):
    """k-fold full product, then truncate."""
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = _full_product(out, a, p)
    return _truncate_late(out, bound, cap)


def naive_truncated_composition(f, images, nvars, p, bound=None, cap=None):
    """Expand f(images[0], images[1], ...) in full, then truncate."""
    out = {}
    for exps, c in f.items():
        term = {(0,) * nvars: c}
        for img, e in zip(images, exps):
            for _ in range(e):
                term = _full_product(term, img, p)
        for e, v in term.items():
            out[e] = out.get(e, 0) + v
    if p is not None:
        out = {e: c % p for e, c in out.items()}
    return _truncate_late({e: c for e, c in out.items() if c}, bound, cap)


def linear_substitution(f, matrix):
    """f with x_j sent to sum_i matrix[i][j] x_i, each term multiplied out
    in full by ``naive_truncated_composition`` and truncated at f's bound
    afterwards, where ``substitute_linear`` expands cached powers of the
    linear forms.  Each linear form is built by the checking constructor,
    so a non-integer entry raises its ValueError.  The result has one
    variable per matrix row and no cap."""
    rows = len(matrix)
    if any(len(row) != f.nvars for row in matrix):
        raise ValueError("matrix shape does not match variable count")
    units = [tuple(int(i == k) for i in range(rows)) for k in range(rows)]
    forms = [
        PolyFp(f.p, rows, {units[k]: matrix[k][j] for k in range(rows)}).coeffs
        for j in range(f.nvars)
    ]
    composite = naive_truncated_composition(f.coeffs, forms, rows, f.p, f.bound)
    return PolyFp(f.p, rows, composite, f.bound)


def graded_piece_by_powers(generators, d):
    """``polyfp.graded_piece`` as a product of generator powers: each
    monomial of weighted degree d is 1 * g_1 ** e_1 * g_2 ** e_2 * ...,
    formed by ``PolyFp`` arithmetic, where the library expands it by one
    substitution of plain coefficient dicts."""
    if not generators:
        return []
    p, nvars = generators[0].p, generators[0].nvars
    weights = []
    for g in generators:
        if not g.is_homogeneous() or g.is_zero():
            raise ValueError("generators must be nonzero homogeneous polynomials")
        weights.append(g.degree())
    out = []
    for exps in itertools.product(*(range(d // w + 1 if w else 1) for w in weights)):
        if sum(e * w for e, w in zip(exps, weights)) != d:
            continue
        prod = PolyFp.constant(p, nvars, 1)
        for g, e in zip(generators, exps):
            prod = prod * g ** e
        if not prod.is_zero():
            out.append(prod)
    return out


def all_pairs_conjugation_homs(group, objects):
    """hom(W, V) = maps x -> gxg^-1 with gWg^-1 <= V, plus one witness each."""
    homs = {}
    witnesses = {}
    for i, w in enumerate(objects):
        for j, v in enumerate(objects):
            if w.rank > v.rank:
                continue
            seen = {}
            for g in group.elements():
                images = tuple(conjugate(group, b, g) for b in w.basis)
                if any(x not in v for x in images):
                    continue
                matrix = modp.transpose(
                    tuple(modp.decode(v.coordinates(x), v.rank, v.p) for x in images)
                )
                if w.rank == 0:
                    matrix = tuple(() for _ in range(v.rank))
                if matrix not in seen:
                    seen[matrix] = g
            if seen:
                homs[(i, j)] = tuple(
                    LinearMorphism(w, v, m) for m in sorted(seen)
                )
                for m, g in seen.items():
                    witnesses[(i, j, m)] = g
    return homs, witnesses


def per_object_scan(group, objects):
    """(classes, orbits) from a walk of all of G from every object:
    orbits[i] = {g W_i.basis g^-1}, and the least object R of each G-class
    also finds Aut_Q(R) and the first conjugation onto each conjugate, where
    the library walks one orbit from each class lead by G's generators and
    reads each member through its lead's orbit."""
    index = {u.elements: k for k, u in enumerate(objects)}
    classes = []
    orbits = []
    for i, w in enumerate(objects):
        leads = not any(i in transports for _, transports in classes)
        orbit, aut, transports = set(), [], {}
        for g in group.elements():
            images = tuple(conjugate(group, b, g) for b in w.basis)
            if images in orbit:
                continue
            orbit.add(images)
            if leads:
                k = index[frozenset(conjugate(group, x, g) for x in w.elements)]
                m = conjugation_matrix(w, objects[k], g)
                if k == i:
                    aut.append(m)
                transports.setdefault(k, m)
        orbits.append(orbit)
        if leads:
            classes.append((tuple(sorted(aut)), transports))
    return classes, orbits


def all_pairs_filtered_homs(objects, keep):
    """hom(W_i, V_j) = the injective maps f with keep(i, j, f)."""
    homs = {}
    for i, w in enumerate(objects):
        for j, v in enumerate(objects):
            if w.rank > v.rank:
                continue
            kept = tuple(f for f in injective_homs(w, v) if keep(i, j, f))
            if kept:
                homs[(i, j)] = kept
    return homs


def all_pairs_category(group, p, n):
    """(objects, homs, witnesses) of the Quillen category (n None) or of the
    level-n category, built pair by pair."""
    objects = enumerate_elem_abelians(group, p)
    homs, witnesses = all_pairs_conjugation_homs(group, objects)
    if n is not None:
        homs = all_pairs_filtered_homs(
            objects, lambda i, j, f: is_level_n_morphism(f, n).ok
        )
    return objects, homs, witnesses


def embeddings_into(group, sub, ambient):
    """All conjugation embeddings of sub into ambient, as distinct matrices
    in group-element scan order."""
    seen = []
    for g in group.elements():
        m = conjugation_matrix(sub, ambient, g)
        if m is not None and m not in seen:
            seen.append(m)
    return seen


def all_pairs_CR(group, presentation, embedding_choice=0):
    """(objects, homs, witnesses) of C_R, built pair by pair: f: W -> V is
    kept when f^* Res_V = Res_W on every generator.  The witnesses are those
    of the kept conjugation maps."""
    objects = enumerate_elem_abelians(group, presentation.p)
    res = []
    for v in objects:
        embs = embeddings_into(group, v, presentation.sylow)
        emb = modp.transpose(embs[embedding_choice % len(embs)])
        res.append([linear_substitution(g, emb) for g in presentation.generators])

    def keep(i, j, f):
        pullback = modp.transpose(f.matrix)
        return all(
            linear_substitution(rv, pullback) == rw for rv, rw in zip(res[j], res[i])
        )

    homs = all_pairs_filtered_homs(objects, keep)
    _, conjugations = all_pairs_conjugation_homs(group, objects)
    witnesses = {
        (i, j, f.matrix): conjugations[(i, j, f.matrix)]
        for (i, j), fs in homs.items()
        for f in fs
        if (i, j, f.matrix) in conjugations
    }
    return objects, homs, witnesses


def level_iso_test(cat, n):
    """iso(i, k): whether a matrix m: objects[i] -> objects[k] carries the
    basis of every rank-min(n, rank) subspace of objects[i] to a G-conjugate
    tuple, each subspace's conjugate tuples walked afresh over all of G."""
    group, p, subspaces = cat.group, cat.p, {}

    def iso(i, k):
        w, u = cat.objects[i], cat.objects[k]
        if i not in subspaces:
            subspaces[i] = []
            for rows in modp.enumerate_subspaces(w.rank, min(n, w.rank), p):
                basis = tuple(w.element_at(modp.encode(r, p)) for r in rows)
                orbit = {tuple(conjugate(group, b, g) for b in basis) for g in group.elements()}
                subspaces[i].append((rows, orbit))
        # the conjugates inside U, in U's coordinates, fewest first
        inside = sorted(
            (
                (
                    {
                        tuple(modp.decode(u.coordinates(x), u.rank, p) for x in t)
                        for t in orbit if u.elements.issuperset(t)
                    },
                    rows,
                )
                for rows, orbit in subspaces[i]
            ),
            key=lambda pair: len(pair[0]),
        )
        return lambda m: all(
            images and tuple(modp.mat_vec(m, r, p) for r in rows) in images
            for images, rows in inside
        )

    return iso


def subring_iso_test(cat, presentation):
    """iso(i, k): whether a matrix m: W = objects[i] -> U = objects[k] has
    m^* Res_U = Res_W, every object restricted along its first embedding
    into the Sylow."""
    res = []
    for v in cat.objects:
        emb = modp.transpose(embeddings_into(cat.group, v, presentation.sylow)[0])
        res.append(tuple(linear_substitution(f, emb) for f in presentation.generators))

    def iso(i, k):
        return lambda m: tuple(
            linear_substitution(f, modp.transpose(m)) for f in res[k]
        ) == res[i]

    return iso


def class_lead_oracle(cat, iso):
    """The faults in cat's classes, none when they agree with the unpruned
    test iso(i, k)(m) of each matrix m: objects[i] -> objects[k].  For the
    least member R of each class it filters every m in GL_rank(R): Aut(R)
    must be exactly the m that pass, each transport t_U must pass, and no
    m may carry R onto the least member of a later class of its rank."""
    faults = []
    classes = tuple_classes(cat.classes, cat.objects, cat.p)
    leads = [min(transports) for _, transports in classes]
    for (aut, transports), r in zip(classes, leads):
        rank = cat.objects[r].rank
        gl = list(rank_injective_matrices(rank, rank, cat.p))
        if aut != tuple(sorted(filter(iso(r, r), gl))):
            faults.append(("aut", r))
        faults += [("transport", r, k) for k, t in transports.items() if not iso(r, k)(t)]
        faults += [
            ("split", r, s)
            for s in leads
            if s > r and cat.objects[s].rank == rank and any(map(iso(r, s), gl))
        ]
    return faults


def rank_injective_matrices(rows, cols, p):
    """Full-column-rank rows x cols matrices, columns in lex order, each
    column kept when it raises the rank of the columns chosen before it."""
    if cols > rows:
        return

    def extend(chosen):
        if len(chosen) == cols:
            yield tuple(tuple(col[i] for col in chosen) for i in range(rows))
            return
        for v in itertools.product(range(p), repeat=rows):
            if modp.mat_rank(tuple(chosen) + (v,), p) == len(chosen) + 1:
                yield from extend(chosen + [v])

    yield from extend([])


def naive_closure(degree, generators):
    """The permutations reached breadth-first from the identity, each
    element times each generator (the generator applied first), in the
    order found."""
    gens = [tuple(g) for g in generators]
    elements = [tuple(range(degree))]
    seen = {elements[0]}
    for cur in elements:
        for g in gens:
            nxt = tuple(cur[g[i]] for i in range(degree))
            if nxt not in seen:
                seen.add(nxt)
                elements.append(nxt)
    return elements


def naive_cayley_table(degree, generators):
    """``naive_closure``, then table[a][b] = the index of a o b (b applied
    first), composing every pair of permutations."""
    elements = naive_closure(degree, generators)
    index = {e: k for k, e in enumerate(elements)}
    return tuple(
        tuple(index[tuple(a[b[i]] for i in range(degree))] for b in elements)
        for a in elements
    )


def with_inclusions(p, objects, isos, witnesses):
    """Hom(W, V) as the union over U <= V of Iso(W, U) followed by U <= V,
    every composite made a LinearMorphism.

    ``isos`` is an iterable of (i, k, matrix).  Distinct (U, iso) pairs give
    distinct composites, whose image is U.  An iso with an entry in
    ``witnesses`` passes its conjugating g on to each composite.  Returns
    (homs, witnesses) keyed as the all-pairs builders key them.
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


def inverse_iso_classes(objects, homs, p):
    """Object indices grouped into isomorphism classes, each sorted: i and j
    of equal rank are joined when some f in Hom(i, j) has its inverse matrix
    in Hom(j, i)."""
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
            back = {f.matrix for f in homs.get((j, i), ())}
            for f in homs.get((i, j), ()):
                if whole_row_inverse(f.matrix, p) in back:
                    parent[find(j)] = find(i)
                    break
    classes = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return [sorted(v) for _, v in sorted(classes.items())]


def _single_term_hurewicz(p, height, degree, coeff, power, t):
    """Image of beta_t under the map for coeff * x^power, unreduced."""
    if power == 0:
        if t == 0:
            return HopfExpr.grouplike(p, height, degree, coeff)
        return HopfExpr(p, height, degree)
    if t == 0:
        return HopfExpr.grouplike(p, height, degree, 0)
    total = HopfExpr(p, height, degree)
    # compositions of t into `power` positive parts, as cut points; parts
    # with a zero entry die against b_0
    for cuts in itertools.combinations(range(1, t), power - 1):
        bounds = (0, *cuts, t)
        parts = [b - a for a, b in zip(bounds, bounds[1:])]
        total = total + HopfExpr.omono(
            p, height, degree, parts, PolyFp.constant(p, 2, coeff)
        )
    return total


def hurewicz_by_coproduct(element, t, p, height, degree=0):
    """hurewicz_eval by convolving the terms of the element through the
    coproduct psi(beta_t) = sum beta_u x beta_v, one * product per split,
    and reducing mod *-decomposables at the end."""
    items = sorted((k, v % p) for k, v in element.items() if v % p)
    if not items:
        if t == 0:
            return HopfExpr.grouplike(p, height, degree, 0)
        return HopfExpr(p, height, degree)

    def convolve(terms, tt):
        power, coeff = terms[0]
        if len(terms) == 1:
            return _single_term_hurewicz(p, height, degree, coeff, power, tt)
        out = HopfExpr(p, height, degree)
        for u in range(tt + 1):
            left = _single_term_hurewicz(p, height, degree, coeff, power, u)
            if left.is_zero():
                continue
            out = out + left.star_mul(convolve(terms[1:], tt - u))
        return out

    return mod_indecomposables(convolve(items, t))


def _same_context(a, b):
    if (a.p, a.height, a.degree) != (b.p, b.height, b.degree):
        raise HopfError("expressions live in different contexts")


def all_pairs_star_mul(a, b):
    """The * product of two HopfExprs from every pair of terms."""
    _same_context(a, b)
    return HopfExpr(a.p, a.height, a.degree, (
        (((c1 + c2) % a.p, tuple(sorted(ms1 + ms2))), p1 * p2)
        for (c1, ms1), p1 in a.terms.items()
        for (c2, ms2), p2 in b.terms.items()
    ))


def all_pairs_circ_mul(a, b):
    """The o product of two atomic HopfExprs from every pair of terms,
    refusing a non-atomic term as the walk meets it."""
    _same_context(a, b)
    p = a.p

    def pairs():
        for (c1, ms1), p1 in a.terms.items():
            if len(ms1) > 1:
                raise HopfError("circle product needs atomic operands")
            for (c2, ms2), p2 in b.terms.items():
                if len(ms2) > 1:
                    raise HopfError("circle product needs atomic operands")
                if not ms1 and not ms2:
                    yield ((c1 * c2) % p, ()), p1 * p2
                elif not ms1:
                    if c1 % p:
                        yield (0, ms2), p1 * p2 * PolyFp.constant(p, 2, c1)
                elif not ms2:
                    if c2 % p:
                        yield (0, ms1), p1 * p2 * PolyFp.constant(p, 2, c2)
                else:
                    yield (0, (tuple(sorted(ms1[0] + ms2[0])),)), p1 * p2

    return HopfExpr(p, a.height, a.degree, pairs())


def orbit_from_terms(terms, ring, fgl):
    """The orbit presentation of explicit ((tag, power), ...) terms, valued
    in ``ring``: "s" and "t" are its variables and "s+t" is their formal sum
    under ``fgl``; used to rerun a pushforward in another height's model."""
    values = {"s": ring.variable(0)}
    if ring.rank > 1:
        values["t"] = ring.variable(1)
    if ring.rank == 2:
        values["s+t"] = ring.fgl_of_variables(fgl)
    total = ring.zero()
    for term in terms:
        prod = ring.elt({(0,) * ring.rank: 1})
        for tag, e in term:
            if tag not in values:
                raise HopfError("unknown series argument %r" % (tag,))
            prod = prod * values[tag] ** e
        total = total + prod
    return OrbitRestriction(fgl=fgl, total=total, terms=[tuple(t) for t in terms])


def all_pairs_beta_pushforward(orbit, degree):
    """beta_pushforward with every * and o product formed in full, in the
    library's order: b(u)^(o a) from [1] a factor at a time, each term's
    factors o-multiplied from [1], the term images *-multiplied from [0].
    The order matters: pure b_1 monomials of weight p^n are dropped as they
    form, so the o product is not associative in this calculus."""
    p, height = orbit.fgl.p, orbit.fgl.height
    args = {
        "s": PolyFp.variable(p, 2, 0),
        "t": PolyFp.variable(p, 2, 1),
        "s+t": PolyFp(p, 2, orbit.fgl.series.coeffs, bound=degree),
    }
    series = {tag: b_series(poly, p, height, degree) for tag, poly in args.items()}
    result = HopfExpr.grouplike(p, height, degree, 0)
    for term in orbit.terms:
        factor = HopfExpr.grouplike(p, height, degree, 1)
        for tag, power in term:
            powered = HopfExpr.grouplike(p, height, degree, 1)
            for _ in range(power):
                powered = all_pairs_circ_mul(powered, series[tag])
            factor = all_pairs_circ_mul(factor, powered)
        result = all_pairs_star_mul(result, factor)
    return result


def triple_loop_mat_mul(a, b, p):
    """a . b entry by entry, each entry a sum over k of a[i][k] b[k][j]
    reduced mod p at the end.  A b with no rows gives rows (), as in modp."""
    cols = len(b[0]) if b else 0
    out = []
    for i in range(len(a)):
        row = []
        for j in range(cols):
            acc = 0
            for k in range(len(b)):
                acc += a[i][k] * b[k][j]
            row.append(acc % p)
        out.append(tuple(row))
    return tuple(out)


def matrix_group_elements(action) -> set:
    """Every element of the group a ``LinearAction``'s generators generate,
    the identity included: a breadth-first walk, one frontier at a time,
    multiplying by ``triple_loop_mat_mul``."""
    n, p = action.nvars, action.p
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        found = []
        for m in frontier:
            for g in action.generators:
                x = triple_loop_mat_mul(m, g, p)
                if x not in seen:
                    seen.add(x)
                    found.append(x)
        frontier = found
    return seen


def triple_loop_mat_vec(m, v, p):
    """m . v entry by entry, as ``triple_loop_mat_mul`` with v a column."""
    out = []
    for i in range(len(m)):
        acc = 0
        for k in range(len(v)):
            acc += m[i][k] * v[k]
        out.append(acc % p)
    return tuple(out)


def whole_row_rref(m, p):
    """Reduced row echelon form by whole-row operations: (rows, pivots)."""
    rows = [list(r) for r in m]
    ncols = len(m[0]) if m else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return tuple(tuple(r) for r in rows[:rank]), tuple(pivots)


def whole_row_inverse(m, p):
    """The inverse of the square tuple matrix m, the right half of
    ``whole_row_rref`` of [m | 1]; a singular m leaves a pivot in that half
    and raises ValueError."""
    r = len(m)
    rows, pivots = whole_row_rref(
        [tuple(row) + e for row, e in zip(m, modp.identity_matrix(r))], p
    )
    if pivots[:r] != tuple(range(r)):
        raise ValueError("matrix is singular over F_%d" % p)
    return tuple(row[r:] for row in rows)


def encode_matrix(m, p):
    """The coded form of the tuple matrix m, the tuple of its row codes."""
    return tuple(modp.encode(row, p) for row in m)


def whole_row_kernel_basis(m, p, ncols):
    """The right kernel basis read off the RREF, written out as dense rows:
    one vector per free column j, 1 at j and minus column j of the RREF at
    the pivots, which is what ``modp.relations`` gives among the columns."""
    reduced, pivots = whole_row_rref(m, p)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [0] * ncols
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced[i][j]) % p
        basis.append(tuple(v))
    return basis


def substitute_invariant_basis(action, d, matrices=None):
    """The degree-d invariant basis from a fresh substitution per monomial
    and one coefficient lookup per (sigma - id) entry, sigma running over
    ``matrices``, the action's generators by default."""
    p, n = action.p, action.nvars
    mons = sorted(
        (e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d),
        key=lambda e: tuple(-x for x in e),
    )
    rows = []
    for g in action.generators if matrices is None else matrices:
        images = [linear_substitution(PolyFp.monomial(p, n, m), g) for m in mons]
        for e in mons:
            rows.append(tuple(
                (img.coefficient(e) - (1 if m == e else 0)) % p
                for m, img in zip(mons, images)
            ))
    return [
        PolyFp(p, n, dict(zip(mons, vec)))
        for vec in whole_row_kernel_basis(tuple(rows), p, len(mons))
    ]


def digit_tuple_add_table(p, m):
    """F_p^m addition on vector names, by adding digit tuples mod p."""
    digits = list(itertools.product(range(p), repeat=m))
    index = {e: k for k, e in enumerate(digits)}
    return [
        [index[tuple((x + y) % p for x, y in zip(a, b))] for b in digits]
        for a in digits
    ]


def series_inverse_by_substitution(f):
    """Compositional inverse of a truncated univariate series x + O(x^2),
    one full substitution per degree k: g is cut at degree k and coefficient
    k of f(g) is cancelled, where ``fgl.series_inverse`` fills a table of
    power coefficients in one walk."""
    if (
        f.nvars != 1
        or f.bound is None
        or f.coefficient((1,)) != 1
        or f.coefficient((0,))
    ):
        raise ValueError("inverse needs a truncated univariate series of the form x + ...")
    d = f.bound
    g_coeffs = {(1,): 1}
    for k in range(2, d + 1):
        g = PolyFp(f.p, 1, g_coeffs, bound=k)
        err = f.substitute([g]).coefficient((k,))
        if err:
            g_coeffs[(k,)] = -err
    return PolyFp(f.p, 1, g_coeffs, bound=d)


def rational_honda_log(p, n, degree):
    """The Honda logarithm l(x) = sum_i x^(p^(n i)) / p^i over Q."""
    log = {(1,): Fraction(1)}
    i = 1
    while p ** (n * i) <= degree:
        log[(p ** (n * i),)] = Fraction(1, p ** i)
        i += 1
    return PolyFp(None, 1, log, bound=degree)


def rational_honda_fgl(p, n, degree):
    """l^-1(l(s) + l(t)) in ``Fraction`` arithmetic, reduced mod p after
    checking that no coefficient has a denominator divisible by p."""
    log_series = rational_honda_log(p, n, degree)
    s, t = (PolyFp.variable(None, 2, i, bound=degree) for i in range(2))
    log_sum = log_series.substitute([s]) + log_series.substitute([t])
    coeffs = {}
    for e, c in series_inverse_by_substitution(log_series).substitute([log_sum]).coeffs.items():
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ValueError("coefficient %s at %r is not %d-integral" % (c, e, p))
        coeffs[e] = c.numerator * pow(c.denominator, -1, p)
    return FGL(p=p, height=n, degree=degree, series=PolyFp(p, 2, coeffs, bound=degree))


def render_by_items(poly, names=None, key=None):
    """'c*x^a*y^b + ...' with the (exponents, coefficient) items sorted by
    ``key`` on their exponents through a lambda; ``key`` defaults to
    ``PolyFp.render``'s graded order, built by a generator expression."""
    if key is None:
        key = lambda exps: (sum(exps), tuple(-e for e in exps))  # noqa: E731
    if not poly.coeffs:
        return "0"
    names = tuple(names) if names else default_names(poly.nvars)
    parts = []
    for exps, c in sorted(poly.coeffs.items(), key=lambda item: key(item[0])):
        factors = []
        if c != 1 or not any(exps):
            factors.append(str(c))
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        parts.append("*".join(factors))
    return " + ".join(parts)
