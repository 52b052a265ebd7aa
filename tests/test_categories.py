from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from chromcat import (
    Fusion,
    SubringPresentation,
    build_category,
    builtin_names,
    filtration_tower,
    hom_chain_report,
    injective_homs,
    is_level_n_morphism,
    modp,
    p_rank,
    parse_poly,
    skeleton,
    witness_scan,
)
from chromcat import elemab, subrings
from chromcat.categories import ChromCategory
from chromcat.cli import main
from chromcat.elemab import LinearMorphism
from chromcat.groups import FiniteGroup
from capture_cli_golden import _primes_dividing
from conftest import (
    SMALL_LIBRARY, STRETCH, category, group, small_permutation_groups, stretch_group,
)
from oracles import (
    centralizer,
    class_lead_oracle,
    conjugate,
    elementwise_skeleton,
    encode_matrix,
    inclusion_poset_all_pairs,
    level_iso_test,
    level_oracle_all_tuples,
    per_object_scan,
    skeleton_edge,
    tuple_classes,
    two_sided_orbits,
    whole_row_inverse,
    witness,
)

GENERATORS = Path(__file__).parent / "golden" / "generators"


def _a4_rank_objects():
    cat = category("a4", 2, None)
    return cat.objects[1], cat.objects[4]


def test_quillen_a4_counts():
    q = category("a4", 2, None)
    # hom(rank-1, rank-2) has exactly 3 elements
    assert len(q.hom(1, 4)) == 3
    # identities are present everywhere
    for i, v in enumerate(q.objects):
        assert modp.identity_matrix(v.rank) in q.hom(i, i)
    # rank-2 automorphisms form the Weyl group C_3
    assert len(q.hom(4, 4)) == 3


def test_level_membership_certificates():
    w, v = _a4_rank_objects()
    swap = LinearMorphism(v, v, ((0, 1), (1, 0)))
    cert1 = is_level_n_morphism(swap, 1)
    assert cert1.ok and cert1.failing is None and len(cert1.witnesses) == 3
    cert2 = is_level_n_morphism(swap, 2)
    assert not cert2.ok and cert2.failing is not None
    # conjugation-induced morphisms pass at every level
    q = category("a4", 2, None)
    for (i, j), mats in q.homs.items():
        for m in mats:
            f = LinearMorphism(q.objects[i], q.objects[j], m)
            assert all(is_level_n_morphism(f, n).ok for n in (1, 2, 3))


def test_level_zero_is_everything():
    c0 = category("a4", 2, 0)
    for i, w in enumerate(c0.objects):
        for j, v in enumerate(c0.objects):
            assert len(c0.hom(i, j)) == len(injective_homs(w, v))


def test_a4_level_categories():
    q = category("a4", 2, None)
    assert category("a4", 2, 2).equals(q)
    assert not category("a4", 2, 1).equals(q)
    assert len(category("a4", 2, 1).hom(4, 4)) == 6
    assert len(category("a4", 2, 2).hom(4, 4)) == 3


def test_skeleton_a4():
    sk2 = skeleton(category("a4", 2, 2))
    assert [(c["rank"], c["aut_order"]) for c in sk2.classes] == [(1, 1), (2, 3)]
    edge2 = skeleton_edge(sk2, 1, 2)
    assert edge2["hom_size"] == 3
    assert edge2["orbits"] == [[3, 1]]
    sk1 = skeleton(category("a4", 2, 1))
    assert [(c["rank"], c["aut_order"]) for c in sk1.classes] == [(1, 1), (2, 6)]
    edge1 = skeleton_edge(sk1, 1, 2)
    assert edge1["hom_size"] == 3
    assert edge1["orbits"] == [[3, 2]]
    # orbit sizes recover the hom-set size
    for edge in sk1.edges + sk2.edges:
        total = sum(size for size, _ in edge["orbits"])
        assert total == edge["hom_size"]


def test_skeleton_trivial_group():
    sk = skeleton(category("c1", 2, None))
    assert len(sk.classes) == 1
    assert sk.classes[0]["rank"] == 0


def test_skeleton_dot_round_trip():
    sk = skeleton(category("a4", 2, 2))
    dot = sk.to_dot()
    payload = sk.to_dict()
    assert dot.count("label=") == len(payload["classes"]) + len(
        [e for e in payload["edges"] if e["source"] != e["target"]]
    )


def test_stabilization_a4():
    report = hom_chain_report(group("a4"), 2)
    assert report["p_rank"] == 2
    assert report["stabilization_rank"] == 2
    assert report["strict"] == {"1": True, "2": False}


def test_stabilization_rank_one_groups():
    # cyclic 2-group: p-rank 1
    assert hom_chain_report(group("c4"), 2)["stabilization_rank"] == 1
    # elementary abelian: all conjugation is trivial, so every level is the
    # inclusion category
    report = hom_chain_report(group("k4"), 2)
    assert report["stabilization_rank"] == 1
    assert report["strict"] == {"1": False, "2": False}


@pytest.mark.parametrize("name", list(builtin_names()) + ["agl32", "f33h"])
def test_stabilization_rank_is_the_first_quillen_level(name):
    # the report reads the rank off its strict steps; the oracle is the
    # first n >= 1 at which A^(n) equals the Quillen category
    g = stretch_group(name) if name in STRETCH else group(name)
    for p in _primes_dividing(g.order):
        fusion = Fusion(g, p)
        quillen = fusion.category(None)
        first = next(n for n in itertools.count(1) if fusion.category(n).equals(quillen))
        assert hom_chain_report(g, p)["stabilization_rank"] == first, p


def test_quaternion_has_rank_one():
    report = hom_chain_report(group("q8"), 2)
    assert report["p_rank"] == 1
    assert report["stabilization_rank"] == 1


def test_witness_scan():
    lib = [("A4", group("a4")), ("C2", group("c2")), ("S4", group("s4"))]
    result = witness_scan(lib, 2, 1)
    assert "A4" in result["found"]
    assert "C2" not in result["found"]
    # Recorded scan outcome: in S4 the odd permutations already induce all of
    # GL_2(F_2) on the Klein fours, and the level-1 category collapses to the
    # conjugation category.
    assert "S4" not in result["found"]
    capped = witness_scan([("A6", group("a6"))], 2, 1, order_cap=100)
    assert capped["skipped"] == [{"name": "A6", "order": 360}]


def test_witness_cache_induces_morphisms():
    for name, p in [("a4", 2), ("d8", 2), ("s3", 3)]:
        q = category(name, p, None)
        g = q.group
        for (i, j), mats in q.homs.items():
            for m in mats:
                f = LinearMorphism(q.objects[i], q.objects[j], m)
                wit = witness(q, i, j, m)
                for x in f.source.elements:
                    assert conjugate(g, x, wit) == f(x)
                # level categories carry the same conjugation witnesses
                assert witness(category(name, p, 1), i, j, m) == wit


def test_equals_compares_transports_as_well_as_aut():
    # the A_5 Klein fours form one class with Aut = C_3 in GL_2(2); moving
    # one member's transport by the swap, which is outside C_3, keeps the
    # partition and Aut(R) but changes Iso(R, U)
    q = category("a5", 2, None)
    aut, transports = q.classes[2]
    swap = encode_matrix(((0, 1), (1, 0)), 2)
    assert len(aut) == 3 and swap not in aut
    u = max(transports)
    moved = dict(transports)
    moved[u] = q.space.mul(transports[u], swap)

    def rebuilt(classes):
        return ChromCategory(q.group, q.space, None, "quillen", q.objects, classes, q.above)

    twisted = rebuilt(q.classes[:2] + [(aut, moved)])
    assert q.equals(rebuilt(list(q.classes)))
    assert not q.equals(twisted) and not twisted.equals(q)
    assert set(q.hom(min(transports), u)) != set(twisted.hom(min(transports), u))
    # moving it by a rotation in Aut(R) instead keeps Iso(R, U) = t_U Aut(R)
    rotation = next(a for a in aut if a != modp.identity_code(2, 2))
    rotated = dict(transports)
    rotated[u] = q.space.mul(transports[u], rotation)
    same = rebuilt(q.classes[:2] + [(aut, rotated)])
    assert q.equals(same) and same.equals(q)
    assert set(q.hom(min(transports), u)) == set(same.hom(min(transports), u))


def test_prime_not_dividing_order():
    q = category("s3", 5, None)
    assert len(q.objects) == 1 and q.objects[0].rank == 0
    assert len(q.hom(0, 0)) == 1
    sk = skeleton(q)
    assert len(sk.classes) == 1 and sk.classes[0]["rank"] == 0


def test_oracle_agreement_spot():
    # dedicated exhaustive suite lives in test_properties; spot-check here
    w, v = _a4_rank_objects()
    for f in injective_homs(v, v):
        for n in (1, 2, 3):
            assert is_level_n_morphism(f, n).ok == level_oracle_all_tuples(f, n)


def test_odd_prime_witness():
    # recorded scan outcome: the affine group (C3xC3):SL(2,3) is a level-1
    # witness at p = 3 (all of GL_2(F_3) preserves elementwise conjugacy on
    # the translation subgroup, but only SL_2(3) acts by conjugation)
    g = group("e9sl23")
    assert g.order == 216
    assert not build_category(g, 3, 1).equals(build_category(g, 3, 2))


@pytest.fixture
def fusions(monkeypatch):
    """Every Fusion made while the test runs."""
    made = []
    init = Fusion.__init__

    def recording(self, group, p):
        init(self, group, p)
        made.append(self)

    monkeypatch.setattr(Fusion, "__init__", recording)
    return made


def _scans(fusions):
    """Scans run per (group name, p)."""
    out = {}
    for f in fusions:
        key = (f.group.name, f.p)
        out[key] = out.get(key, 0) + f.stats["scans"]
    return out


def test_hom_chain_report_scans_once(fusions):
    hom_chain_report(group("a4"), 2)
    assert _scans(fusions) == {("A4", 2): 1}
    # A^(1) tests 3 first columns on the Klein four and, below each, the 2
    # conjugates outside its span, 9 prefixes, and keeps the 6 of GL_2(2);
    # A^(2) and A^(3) are Quillen's and test none.  The scan finds 3
    # G-classes: the trivial group, the involutions and the Klein four, with
    # orbits of 1, 3 and 3 basis tuples, each conjugated by both generators
    assert fusions[0].stats == {
        "objects": 5, "scans": 1, "classes": 3, "scan_conjugations": 14,
        "level_candidates": 9, "level_kept": 6, "subring_pullbacks": 0,
    }
    hom_chain_report(group("s5"), 2)
    assert _scans(fusions) == {("A4", 2): 1, ("S5", 2): 1}


def test_level_search_tests_class_representatives_only(fusions):
    # Aut_n of each Quillen representative, and one column search per later
    # representative of its rank, counted in column prefixes tested; the
    # candidate product took 95 on S6, and testing every equal-rank pair of
    # objects took 1,140 candidates on S5 and 55,425 on S6.  The scan
    # conjugates each tuple of an orbit by each of the 2 generators; walking
    # all of G per class took 600 conjugations on S5 and 7,920 on S6
    hom_chain_report(group("s5"), 2)
    hom_chain_report(group("s6"), 2)
    assert [f.stats for f in fusions] == [
        {"objects": 46, "scans": 1, "classes": 5, "scan_conjugations": 172,
         "level_candidates": 13, "level_kept": 8, "subring_pullbacks": 0},
        {"objects": 271, "scans": 1, "classes": 11, "scan_conjugations": 1322,
         "level_candidates": 74, "level_kept": 36, "subring_pullbacks": 0},
    ]


@pytest.mark.parametrize(
    "name, p, n",
    [
        ("agl32", 2, 0), ("agl32", 2, 1), ("agl32", 2, 2), ("agl32", 2, 3),
        ("f33h", 3, 0), ("f33h", 3, 1), ("f33h", 3, 2), ("agl116", 2, 0),
    ],
)
def test_level_search_matches_class_lead_oracle(name, p, n):
    # levels past the all-pairs oracles' order 64: every class's Aut is GL
    # filtered by the level test, each transport passes it, and no matrix
    # joins two class leads.  At level 0 the later G-classes of each rank
    # join the first, so most transports there are not the identity
    cat = Fusion(stretch_group(name), p).category(n)
    assert class_lead_oracle(cat, level_iso_test(cat, n)) == []


def test_levels_read_conjugacy_from_the_scan(monkeypatch):
    # the scan, run when the Fusion is built, reads the generators'
    # conjugation maps once; after it no level reads them or the Cayley
    # table, so none conjugates an element: each basis element's G-class is
    # read off its object's orbit; the group keeps no inverse array
    reads = []
    maps = FiniteGroup.conjugation_maps

    def counting_maps(self):
        reads.append("maps")
        return maps.__get__(self, FiniteGroup)

    monkeypatch.setattr(FiniteGroup, "conjugation_maps", property(counting_maps))
    for name, p in [("a5", 2), ("s5", 2), ("h27", 3), ("x32", 2)]:
        fusion = Fusion(group(name), p)
        assert reads == ["maps"], (name, p)
        reads.clear()
        with monkeypatch.context() as m:
            assert not hasattr(fusion.group, "inverse")
            m.setattr(fusion.group, "table", None)
            for n in range(fusion.rank + 1):
                fusion.category(n)
        assert reads == [], (name, p)


def test_scan_walks_g_once_per_g_class(monkeypatch):
    # one orbit walk per G-class, from its least object R, and building the
    # Fusion, which runs the scan, never lists G: each of the |G : C_G(R)|
    # tuples of R's orbit is conjugated once by each generator; a member is
    # read through its lead's orbit, which every member of the class shares
    calls = []
    elements = FiniteGroup.elements

    def counting(self):
        calls.append(self.name)
        return elements(self)

    monkeypatch.setattr(FiniteGroup, "elements", counting)
    for name, walks in [("a5", 3), ("s5", 5), ("s6", 11)]:
        g = group(name)
        calls.clear()
        fusion = Fusion(g, 2)
        scan = fusion.scan
        assert calls == [], name
        assert len(scan.classes) == walks == len({id(orbit) for orbit in scan.orbits}), name
        leads = [min(transports) for _, transports in scan.classes]
        sizes = [g.order // len(centralizer(g, fusion.objects[r].basis)) for r in leads]
        assert [len(scan.orbits[r]) for r in leads] == sizes, name
        assert fusion.stats["scan_conjugations"] == sum(sizes) * len(g.generators), name


SCAN_CASES = [
    (name, p)
    for name in builtin_names()
    if group(name).order <= 64
    for p in _primes_dividing(group(name).order)
] + [("s6", 2), ("a6", 2), ("a6", 3)]


def _power_product(g, xs, exponents):
    """prod x_j^e_j by Cayley-table products."""
    out = 0
    for x, e in zip(xs, exponents):
        for _ in range(e):
            out = g.table[out][x]
    return out


def _check_scan_against_oracle(g, p):
    # the Quillen classes are the per-object walk's: the same Aut_Q(R) and
    # members, and each t_U in the oracle's t_U Aut_Q(R) = Iso_Q(R, U), as
    # the two walks may reach U first by different elements of G.  Writing
    # each object's basis as a word in tau_U carries its lead's orbit onto
    # the oracle's orbit of that basis
    fusion = Fusion(g, p)
    classes, orbits = per_object_scan(g, fusion.objects)
    scan = fusion.scan
    found = tuple_classes(scan.classes, fusion.objects, p)
    assert len(found) == len(classes)
    for (aut, transports), (oracle_aut, oracle_transports) in zip(found, classes):
        assert aut == oracle_aut
        assert transports.keys() == oracle_transports.keys()
        for k, t in transports.items():
            back = whole_row_inverse(oracle_transports[k], p)
            assert modp.mat_mul(back, t, p) in aut, (g.name, p, k)
    for k, u in enumerate(fusion.objects):
        tau = scan.tau[k]
        words = {
            _power_product(g, tau, e): e for e in itertools.product(range(p), repeat=u.rank)
        }
        assert len(words) == p ** u.rank and set(words) == u.elements
        coords = [words[b] for b in u.basis]
        rebased = {tuple(_power_product(g, t, e) for e in coords) for t in scan.orbits[k]}
        assert rebased == orbits[k], (g.name, p, k)
    for _, transports in scan.classes:
        lead = min(transports)
        assert scan.tau[lead] == fusion.objects[lead].basis


@pytest.mark.parametrize("name, p", SCAN_CASES)
def test_scan_matches_per_object_oracle(name, p):
    _check_scan_against_oracle(group(name), p)


@settings(max_examples=40, deadline=None)
@given(small_permutation_groups())
def test_scan_matches_per_object_oracle_on_random_groups(g):
    # the drawn generator lists repeat a generator and list the identity
    for p in _primes_dividing(g.order):
        _check_scan_against_oracle(g, p)



def _check_poset_against_all_pairs(g):
    for p in _primes_dividing(g.order):
        fusion = Fusion(g, p)
        assert fusion.above == inclusion_poset_all_pairs(fusion.objects), p


@pytest.mark.parametrize("name", builtin_names() + list(STRETCH))
def test_inclusion_poset_matches_all_pairs(name):
    # above[k] tests only the objects of higher rank than objects[k]
    _check_poset_against_all_pairs(stretch_group(name) if name in STRETCH else group(name))


@settings(max_examples=40, deadline=None)
@given(small_permutation_groups())
def test_inclusion_poset_matches_all_pairs_on_random_groups(g):
    _check_poset_against_all_pairs(g)


def test_restrictions_conjugate_once_per_object_in_the_sylow(monkeypatch):
    # an object inside P embeds by its one inclusion into P itself, with
    # the identity transport t_P
    calls = []
    inclusion_matrix = subrings.inclusion_matrix

    def counting(sub, target):
        calls.append((sub, target))
        return inclusion_matrix(sub, target)

    monkeypatch.setattr(subrings, "inclusion_matrix", counting)
    a5 = group("a5")
    presentation = SubringPresentation(Fusion(a5, 2), [])
    inside = [
        v for v in Fusion(a5, 2).objects
        if v.elements <= presentation.sylow.elements
    ]
    assert len(inside) == 5  # the trivial group, 3 involutions and P
    for v in inside:
        calls.clear()
        presentation.restrictions(v)
        assert calls == [(v, presentation.sylow)]


def test_filtration_tower_scans_once(fusions):
    filtration_tower(group("s4"), 2, 4)
    assert _scans(fusions) == {("S4", 2): 1}


def test_witness_scan_scans_once_per_checked_group(fusions):
    lib = [("A4", group("a4")), ("C2", group("c2")), ("A6", group("a6"))]
    result = witness_scan(lib, 2, 1, order_cap=100)
    assert [c["name"] for c in result["checked"]] == ["A4", "C2"]
    assert _scans(fusions) == {("A4", 2): 1, ("C2", 2): 1}


def test_cli_cr_scans_once(fusions, capsys):
    assert main(["cr", "-g", "a5", "--generators", str(GENERATORS / "chern.json")]) == 0
    assert capsys.readouterr().err == ""
    assert _scans(fusions) == {("A5", 2): 1}


def _wrap_everywhere(monkeypatch, module, name, wrapper):
    """Replace ``module.name`` by wrapper(real) in every chromcat module that
    imported it."""
    real = getattr(module, name)
    wrapped = wrapper(real)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "chromcat" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, wrapped)


def _counting_enumerations(monkeypatch):
    """The (group name, p) of every elementary abelian enumeration."""
    calls = []

    def wrapper(real):
        def counting(group, p):
            calls.append((group.name, p))
            return real(group, p)
        return counting

    _wrap_everywhere(monkeypatch, elemab, "enumerate_elem_abelians", wrapper)
    return calls


def test_cli_cr_enumerates_elementary_abelians_once(monkeypatch, capsys):
    # the Sylow subgroup is read off the Fusion's objects, so the request
    # enumerates the elementary abelian subgroups once
    calls = _counting_enumerations(monkeypatch)
    assert main(["cr", "-g", "a5", "--generators", str(GENERATORS / "chern.json")]) == 0
    assert capsys.readouterr().err == ""
    assert calls == [("A5", 2)]


def test_subring_requests_conjugate_by_g_only_in_the_scan(monkeypatch, capsys, fusions):
    # P, the Weyl group and the embeddings into P are read off the scan,
    # which reads each t_U off coordinates; every other matrix is an
    # inclusion, so only the scan reads the conjugation maps and nothing
    # searches G for a conjugating element
    readers = []
    maps = FiniteGroup.conjugation_maps

    def counting_maps(self):
        readers.append(sys._getframe(1).f_code.co_name)
        return maps.__get__(self, FiniteGroup)

    def no_search(self, a, b):
        raise AssertionError("simultaneous_conjugacy called")

    monkeypatch.setattr(FiniteGroup, "conjugation_maps", property(counting_maps))
    monkeypatch.setattr(FiniteGroup, "simultaneous_conjugacy", no_search)
    for argv in (
        ["cr", "-g", "a5", "--generators", str(GENERATORS / "full.json")],
        ["invariants", "-g", "a5", "-p", "2"],
        ["invariants", "-g", "s6", "-p", "3"],
    ):
        assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert set(readers) == {"_conjugation_scan"}
    assert _scans(fusions) == {("A5", 2): 2, ("S6", 3): 1}


def test_build_cr_makes_one_fusion_and_one_scan(monkeypatch, fusions):
    # the presentation holds the Fusion that build_CR builds on
    calls = _counting_enumerations(monkeypatch)
    a5 = group("a5")
    gens = [parse_poly(s, 2, 2) for s in ("x^2 + x*y + y^2", "x^2*y + x*y^2")]
    cat = subrings.build_CR(a5, SubringPresentation(Fusion(a5, 2), gens))
    assert cat.kind == "subring"
    assert calls == [("A5", 2)]
    assert len(fusions) == 1
    assert _scans(fusions) == {("A5", 2): 1}


@pytest.mark.parametrize("name", SMALL_LIBRARY)
def test_two_sided_orbits_are_subobject_orbits(name):
    # the skeleton counts the distinct least blocks (images) among its left
    # orbits; the oracle multiplies every pair of automorphisms into every
    # morphism
    g = group(name)
    for p in (2, 3, 5):
        if g.order % p:
            continue
        for n in list(range(p_rank(g, p) + 1)) + [None]:
            cat = category(name, p, n)
            report = skeleton(cat)
            for e in report.edges:
                i, j = (report.classes[e[end]]["representative"] for end in ("source", "target"))
                classes = tuple_classes(cat.classes, cat.objects, p)
                aut_s, aut_t = (classes[cat.class_of[k]][0] for k in (i, j))
                assert e["two_sided_orbit_count"] == len(
                    two_sided_orbits(cat.hom(i, j), aut_t, aut_s, p)
                ), (p, n, e["source"], e["target"])
                # with a trivial source group the oracle's orbits are the
                # one-sided Aut(target)-orbits, in order of least member
                ident = (modp.identity_matrix(cat.objects[i].rank),)
                assert e["orbits"] == [
                    [len(o), len(aut_t) // len(o)]
                    for o in two_sided_orbits(cat.hom(i, j), aut_t, ident, p)
                ], (p, n, e["source"], e["target"])


@pytest.mark.parametrize("name", builtin_names())
def test_skeleton_matches_elementwise_oracle(name):
    # the skeleton composes only the linked pairs, block by block, and walks
    # Aut through generators; the oracle composes every pair of class leads
    # whole and multiplies every Aut element into every morphism
    g = group(name)
    for p in _primes_dividing(g.order):
        fusion = Fusion(g, p)
        for n in list(range(fusion.rank + 1)) + [None]:
            cat = fusion.category(n)
            assert skeleton(cat).to_dict() == elementwise_skeleton(cat).to_dict(), (p, n)


@pytest.mark.parametrize("name, p", [("agl32", 2), ("f33h", 3)])
def test_skeleton_matches_elementwise_oracle_past_the_library(name, p):
    cat = Fusion(stretch_group(name), p).category(1)
    assert skeleton(cat).to_dict() == elementwise_skeleton(cat).to_dict()


def test_skeleton_multiplies_blocks_walks_and_generators_only(monkeypatch):
    # no row reduction at all (every elimination in modp, rank, kernel and
    # span test alike, passes through _echelon); the products
    # are the blocks of each linked pair, the left-orbit walks, the Dimino
    # spans of the greedy generators, their commutators and one walk per
    # cyclic subgroup.  The element-wise oracle makes 1,091 and 148,395
    # products (matrix orders aside) and 375 and 22,542 row reductions on
    # these two categories.  Every product is a coded one.
    cats = {"x32": category("x32", 2, None), "c3wrc3": category("c3wrc3", 3, 0)}
    calls = {"mul": 0, "_echelon": 0}
    for owner, fn in ((modp.VectorSpace, "mul"), (modp, "_echelon")):
        def counting(*args, fn=fn, real=getattr(owner, fn)):
            calls[fn] += 1
            return real(*args)

        monkeypatch.setattr(owner, fn, counting)
    counts = {}
    for name, cat in cats.items():
        calls.update(mul=0, _echelon=0)
        skeleton(cat)
        counts[name] = dict(calls)
    assert counts == {
        "x32": {"mul": 600, "_echelon": 0},
        "c3wrc3": {"mul": 32516, "_echelon": 0},
    }


def test_skeleton_refuses_an_aut_that_is_not_a_group():
    # A^(1) of A_4 at p = 2 has Aut = GL_2(2) on the Klein four; without an
    # element of order 3 it is not closed, and without the identity the span
    # of the rest is larger than the set
    cat = category("a4", 2, 1)
    c = cat.class_of[4]
    aut, transports = cat.classes[c]
    assert len(aut) == 6
    for drop in (encode_matrix(((0, 1), (1, 1)), 2), modp.identity_code(2, 2)):
        classes = list(cat.classes)
        classes[c] = (tuple(a for a in aut if a != drop), transports)
        broken = ChromCategory(cat.group, cat.space, 1, "level", cat.objects, classes, cat.above)
        with pytest.raises(AssertionError):
            skeleton(broken)


def test_stretch_group_levels_one_to_three():
    # F_3^3 x| H at p = 3: A^(1) > A^(2) > A^(3) = Quillen in morphisms, and
    # each one-member rank-3 class (a normal subgroup) has |Aut_2| = 144 and
    # |Aut_3| = 72
    fusion = Fusion(stretch_group("f33h"), 3)
    cats = {n: fusion.category(n) for n in (1, 2, 3)}
    assert {n: cat.morphism_count() for n, cat in cats.items()} == {
        1: 107_476, 2: 99_268, 3: 99_124,
    }
    for n, order in ((2, 144), (3, 72)):
        lone = [
            len(aut) for aut, ts in cats[n].classes
            if len(ts) == 1 and cats[n].objects[min(ts)].rank == 3
        ]
        assert lone == [order, order], n


# SHA-256 of repr(cat.homs), the tuple matrices of every nonempty hom-set,
# at every level and the Quillen category (n None), recorded while
# categories held their matrices as tuples of row tuples: the coded
# classes must decode to the same hom-sets, in the same order.
HOMS_PINS = [
    ("a4", 2, 0, "595d4eddf32c756abe1527e9095ca50396f200ddba80417ab958a0177f995d78"),
    ("a4", 2, 1, "595d4eddf32c756abe1527e9095ca50396f200ddba80417ab958a0177f995d78"),
    ("a4", 2, 2, "00b8bcdcc0a62cea6517a88d2ea6008fb74e6c1f467753e0e0e7a150c3ca3e13"),
    ("a4", 2, None, "00b8bcdcc0a62cea6517a88d2ea6008fb74e6c1f467753e0e0e7a150c3ca3e13"),
    ("x32", 2, 0, "09a65aab8101bb745e8ee8888650d4f071327fafb1e813d6a898b17c79b2403e"),
    ("x32", 2, 1, "71dc554e19b3cdb586b85b480f1b9d7a912f05dc6bafd0806747fe8680aad26d"),
    ("x32", 2, 2, "71dc554e19b3cdb586b85b480f1b9d7a912f05dc6bafd0806747fe8680aad26d"),
    ("x32", 2, 3, "71dc554e19b3cdb586b85b480f1b9d7a912f05dc6bafd0806747fe8680aad26d"),
    ("x32", 2, None, "71dc554e19b3cdb586b85b480f1b9d7a912f05dc6bafd0806747fe8680aad26d"),
    ("c3wrc3", 3, 0, "f7d814bf813a2d0ad1bb87c17d4fdbdbccebdcb16be8cfea3a8f9f32f5e494f3"),
    ("c3wrc3", 3, 1, "8eeb2cb9a159f980463cdb47445e36a751bc2808bd284642611394580bbb87b4"),
    ("c3wrc3", 3, 2, "8eeb2cb9a159f980463cdb47445e36a751bc2808bd284642611394580bbb87b4"),
    ("c3wrc3", 3, 3, "8eeb2cb9a159f980463cdb47445e36a751bc2808bd284642611394580bbb87b4"),
    ("c3wrc3", 3, None, "8eeb2cb9a159f980463cdb47445e36a751bc2808bd284642611394580bbb87b4"),
    ("h27", 3, 0, "61a462550373974fcfe11b9eed3c95c1bb63be6caa5049fc130e23ad7399741c"),
    ("h27", 3, 1, "0eb5ea34756ef21a84f36ad3368d2053bae8b56e69585bc7d9699174efd1bb23"),
    ("h27", 3, 2, "0eb5ea34756ef21a84f36ad3368d2053bae8b56e69585bc7d9699174efd1bb23"),
    ("h27", 3, None, "0eb5ea34756ef21a84f36ad3368d2053bae8b56e69585bc7d9699174efd1bb23"),
]


@pytest.mark.parametrize("name,p,n,digest", HOMS_PINS)
def test_homs_keep_their_bytes(name, p, n, digest):
    homs = Fusion(group(name), p).category(n).homs
    assert hashlib.sha256(repr(homs).encode()).hexdigest() == digest
