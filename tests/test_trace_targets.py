"""The traced benchmark run wraps chromcat functions and methods by name.

``perfbench/layers.py::TARGETS`` lists them; a rename or deletion in the
package would break ``perfbench/run.py --trace 1`` without failing any other
test, so every target is resolved here the way the tracer resolves it, and
every counter hook is run on a real result of its target, as the tracer
runs it.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

from chromcat import Fusion, LinearMorphism, SubringPresentation, load_builtin, quillen_category

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _targets():
    return [(module, attr) for module, attr, _, _ in _layers().TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_trace_target_resolves(module, attr):
    home = importlib.import_module(module)
    if "." in attr:
        # the tracer patches the method in the class's own namespace
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name))[meth])
    else:
        assert callable(getattr(home, attr))


def test_trace_hooks_count_real_results():
    # each hooked target runs on A_4 at p = 2 with the arguments below (self
    # first for a method, as the tracer passes them), then its hook.  A^(1)
    # and the unit C_R keep all 29 injective maps: 5 from the trivial group,
    # 9 line -> line, 9 line -> Klein four and 6 automorphisms of it; Quillen
    # keeps 3 of the 6.  The colimit walks 1 + 3 * 4 + 16 points at q = 4
    a4 = load_builtin("a4")
    quillen = quillen_category(a4, 2)
    line, klein = quillen.objects[1], quillen.objects[4]
    swap = LinearMorphism(klein, klein, ((0, 1), (1, 0)))
    presentation = SubringPresentation(Fusion(a4, 2), [])
    q = 4
    # |Iso(i, k)| |above[k]| q^rank(i) over the isomorphic pairs (i, k):
    # |Aut(R)| for each of a class's |members|^2 pairs
    unions = sum(
        len(aut) * len(ts) * sum(len(quillen.above[k]) for k in ts)
        * q ** quillen.objects[min(ts)].rank
        for aut, ts in quillen.classes
    )
    cases = {
        "group_from_permutations": (
            (4, [[1, 2, 0, 3], [1, 0, 3, 2]]), {"groups.elements": 12}),
        "FiniteGroup.simultaneous_conjugacy": (
            (a4, klein.basis, klein.basis), {"groups.simconj_hits": 1}),
        "enumerate_elem_abelians": ((a4, 2), {"elemab.objects": 5}),
        "injective_homs": ((line, klein), {"elemab.candidates": 3}),
        "build_category": ((a4, 2, 1), {"categories.morphisms": 29}),
        "quillen_category": ((a4, 2), {"categories.morphisms": 26}),
        "is_level_n_morphism": ((swap, 1), {"categories.level_accepted": 1}),
        "skeleton": ((quillen,), {"categories.iso_classes": 2}),
        "colim_points": ((quillen, q), {
            "colimits.points": 1 + 3 * 4 + 16,
            "colimits.classes": 6,
            "colimits.unions": unions,
        }),
        "build_CR": ((a4, presentation), {
            "subrings.cr_kept": 29, "subrings.cr_candidates": 29,
        }),
        "invariant_basis": ((presentation.weyl, 3), {"polyfp.invariant_dim": 2}),
        "honda_fgl": ((2, 1, 8), {"fgl.series_terms": 15}),
    }
    hooked = [(m, attr, hook) for m, attr, _, hook in _layers().TARGETS if hook]
    assert {attr for _, attr, _ in hooked} == set(cases)
    for module, attr, hook in hooked:
        fn = importlib.import_module(module)
        for part in attr.split("."):
            fn = getattr(fn, part)
        args, expected = cases[attr]
        counters = defaultdict(float)
        hook(counters, args, fn(*args))
        assert set(counters) == set(expected), attr
        for name, value in expected.items():
            assert counters[name] == value, (attr, name, counters[name])
