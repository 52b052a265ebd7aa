"""What the traced run wraps in chromcat, and the per-layer metrics it reports.

Layers are chromcat's modules.  Each target is a public function (wrapped in
every namespace that imported it) or a method, with the span name it records
and an optional counter hook run on its result.  Counts and seconds are
reported per op of the traced phase, ratios as they stand.
"""

from __future__ import annotations


def _add(counters, name, value):
    counters[name] += value


def _closure(c, args, group):
    _add(c, "groups.elements", group.order)


def _simconj(c, args, witness):
    _add(c, "groups.simconj_hits", witness is not None)


def _objects(c, args, objects):
    _add(c, "elemab.objects", len(objects))


def _candidates(c, args, homs):
    _add(c, "elemab.candidates", len(homs))


def _morphisms(c, args, cat):
    _add(c, "categories.morphisms", cat.morphism_count())


def _level(c, args, certificate):
    _add(c, "categories.level_accepted", certificate.ok)


def _skeleton(c, args, report):
    _add(c, "categories.iso_classes", len(report.classes))


def _colim(c, args, result):
    cat, q = args[0], args[1]
    _add(c, "colimits.points", sum(result.object_counts))
    _add(c, "colimits.classes", result.size)
    _add(c, "colimits.unions", sum(
        len(fs) * q ** cat.objects[i].rank for (i, _), fs in cat.homs.items()))


def _build_cr(c, args, cat):
    from chromcat.elemab import injective_hom_count

    ranks = [v.rank for v in cat.objects]
    _add(c, "subrings.cr_kept", cat.morphism_count())
    _add(c, "subrings.cr_candidates", sum(
        injective_hom_count(r, s, cat.p) for r in ranks for s in ranks if r <= s))


def _invariant_dim(c, args, basis):
    _add(c, "polyfp.invariant_dim", len(basis))


def _series_terms(c, args, fgl):
    _add(c, "fgl.series_terms", len(fgl.series.coeffs))


TARGETS = (
    ("chromcat.groups", "group_from_permutations", "groups.closure", _closure),
    ("chromcat.groups", "FiniteGroup.simultaneous_conjugacy", "groups.simconj", _simconj),
    ("chromcat.elemab", "enumerate_elem_abelians", "elemab.enumerate", _objects),
    ("chromcat.elemab", "injective_homs", "elemab.injective_homs", _candidates),
    ("chromcat.elemab", "LinearMorphism.__post_init__", "elemab.morphism_ctor", None),
    ("chromcat.modp", "mat_rank", "modp.mat_rank", None),
    ("chromcat.modp", "mat_mul", "modp.mat_mul", None),
    ("chromcat.categories", "build_category", "categories.build", _morphisms),
    ("chromcat.categories", "quillen_category", "categories.build", _morphisms),
    ("chromcat.categories", "is_level_n_morphism", "categories.level_test", _level),
    ("chromcat.categories", "skeleton", "categories.skeleton", _skeleton),
    ("chromcat.categories", "hom_chain_report", "categories.hom_chain", None),
    ("chromcat.colimits", "colim_points", "colimits.colim", _colim),
    ("chromcat.colimits", "filtration_tower", "colimits.tower", None),
    ("chromcat.colimits", "component_count", "colimits.component_count", None),
    ("chromcat.subrings", "build_CR", "subrings.build_cr", _build_cr),
    ("chromcat.subrings", "weyl_action", "subrings.weyl", None),
    ("chromcat.polyfp", "PolyFp.__mul__", "polyfp.mul", None),
    ("chromcat.polyfp", "PolyFp.substitute_linear", "polyfp.substitute", None),
    ("chromcat.polyfp", "invariant_basis", "polyfp.invariant_basis", _invariant_dim),
    ("chromcat.polyfp", "subring_membership", "polyfp.membership", None),
    ("chromcat.fgl", "honda_fgl", "fgl.honda", _series_terms),
    ("chromcat.hopf", "beta_pushforward", "hopf.pushforward", None),
    ("chromcat.hopf", "HopfExpr.star_mul", "hopf.star_mul", None),
    ("chromcat.hopf", "mod_indecomposables", "hopf.reduce", None),
    ("chromcat.hopf", "verify_kn_injectivity", "hopf.kn_injectivity", None),
    ("chromcat.cli", "main", "cli.main", None),
)

# The layers each workload is meant to load; the traced run reports the
# share of op time whose self time falls in them.
TARGET_LAYERS = {
    "category-build": ("groups", "elemab", "modp", "categories"),
    "colim-tower": ("colimits", "cli"),
    "algebra-pipeline": ("polyfp", "hopf", "fgl", "subrings"),
}

# (metric, unit, better, kind, source).  kind: "calls" and "self_s" read a
# span name, "count" a counter; all three are divided by ops.  "ratio" is
# counter / counter-or-calls, as noted per metric.
PER_LAYER = (
    ("groups.closure_calls", "count/op", "lower", "calls", "groups.closure"),
    ("groups.closure_s", "s/op", "lower", "self_s", "groups.closure"),
    ("groups.elements", "count/op", "lower", "count", "groups.elements"),
    ("groups.simconj_calls", "count/op", "lower", "calls", "groups.simconj"),
    ("groups.simconj_s", "s/op", "lower", "self_s", "groups.simconj"),
    ("groups.simconj_hit_ratio", "ratio", "higher", "ratio", ("groups.simconj_hits", "groups.simconj")),
    ("elemab.enumerate_calls", "count/op", "lower", "calls", "elemab.enumerate"),
    ("elemab.enumerate_s", "s/op", "lower", "self_s", "elemab.enumerate"),
    ("elemab.objects", "count/op", "lower", "count", "elemab.objects"),
    ("elemab.injective_homs_calls", "count/op", "lower", "calls", "elemab.injective_homs"),
    ("elemab.injective_homs_s", "s/op", "lower", "self_s", "elemab.injective_homs"),
    ("elemab.candidates", "count/op", "lower", "count", "elemab.candidates"),
    ("elemab.morphism_ctor_calls", "count/op", "lower", "calls", "elemab.morphism_ctor"),
    ("modp.mat_rank_calls", "count/op", "lower", "calls", "modp.mat_rank"),
    ("modp.mat_rank_s", "s/op", "lower", "self_s", "modp.mat_rank"),
    ("modp.mat_mul_calls", "count/op", "lower", "calls", "modp.mat_mul"),
    ("modp.mat_mul_s", "s/op", "lower", "self_s", "modp.mat_mul"),
    ("categories.build_calls", "count/op", "lower", "calls", "categories.build"),
    ("categories.build_s", "s/op", "lower", "self_s", "categories.build"),
    ("categories.morphisms", "count/op", "lower", "count", "categories.morphisms"),
    ("categories.level_tests", "count/op", "lower", "calls", "categories.level_test"),
    ("categories.level_test_s", "s/op", "lower", "self_s", "categories.level_test"),
    ("categories.level_accept_ratio", "ratio", "higher", "ratio",
     ("categories.level_accepted", "categories.level_test")),
    ("categories.skeleton_calls", "count/op", "lower", "calls", "categories.skeleton"),
    ("categories.skeleton_s", "s/op", "lower", "self_s", "categories.skeleton"),
    ("categories.iso_classes", "count/op", "lower", "count", "categories.iso_classes"),
    ("categories.hom_chain_calls", "count/op", "lower", "calls", "categories.hom_chain"),
    ("categories.hom_chain_s", "s/op", "lower", "self_s", "categories.hom_chain"),
    ("colimits.colim_calls", "count/op", "lower", "calls", "colimits.colim"),
    ("colimits.colim_s", "s/op", "lower", "self_s", "colimits.colim"),
    ("colimits.points", "count/op", "lower", "count", "colimits.points"),
    ("colimits.unions", "count/op", "lower", "count", "colimits.unions"),
    ("colimits.classes", "count/op", "lower", "count", "colimits.classes"),
    ("colimits.merge_ratio", "ratio", "higher", "merge", None),
    ("colimits.tower_calls", "count/op", "lower", "calls", "colimits.tower"),
    ("colimits.tower_s", "s/op", "lower", "self_s", "colimits.tower"),
    ("colimits.component_count_s", "s/op", "lower", "self_s", "colimits.component_count"),
    ("subrings.build_cr_calls", "count/op", "lower", "calls", "subrings.build_cr"),
    ("subrings.build_cr_s", "s/op", "lower", "self_s", "subrings.build_cr"),
    ("subrings.cr_accept_ratio", "ratio", "higher", "ratio",
     ("subrings.cr_kept", "subrings.cr_candidates")),
    ("subrings.weyl_s", "s/op", "lower", "self_s", "subrings.weyl"),
    ("polyfp.mul_calls", "count/op", "lower", "calls", "polyfp.mul"),
    ("polyfp.mul_s", "s/op", "lower", "self_s", "polyfp.mul"),
    ("polyfp.substitute_calls", "count/op", "lower", "calls", "polyfp.substitute"),
    ("polyfp.substitute_s", "s/op", "lower", "self_s", "polyfp.substitute"),
    ("polyfp.invariant_basis_calls", "count/op", "lower", "calls", "polyfp.invariant_basis"),
    ("polyfp.invariant_basis_s", "s/op", "lower", "self_s", "polyfp.invariant_basis"),
    ("polyfp.invariant_dim", "count/op", "lower", "count", "polyfp.invariant_dim"),
    ("polyfp.membership_calls", "count/op", "lower", "calls", "polyfp.membership"),
    ("polyfp.membership_s", "s/op", "lower", "self_s", "polyfp.membership"),
    ("fgl.honda_calls", "count/op", "lower", "calls", "fgl.honda"),
    ("fgl.honda_s", "s/op", "lower", "self_s", "fgl.honda"),
    ("fgl.series_terms", "count/op", "lower", "count", "fgl.series_terms"),
    ("hopf.pushforward_calls", "count/op", "lower", "calls", "hopf.pushforward"),
    ("hopf.pushforward_s", "s/op", "lower", "self_s", "hopf.pushforward"),
    ("hopf.star_mul_calls", "count/op", "lower", "calls", "hopf.star_mul"),
    ("hopf.star_mul_s", "s/op", "lower", "self_s", "hopf.star_mul"),
    ("hopf.reduce_s", "s/op", "lower", "self_s", "hopf.reduce"),
    ("hopf.kn_injectivity_s", "s/op", "lower", "self_s", "hopf.kn_injectivity"),
    ("cli.commands", "count/op", "lower", "calls", "cli.main"),
    ("cli.self_s", "s/op", "lower", "self_s", "cli.main"),
    ("cli.report_bytes", "B/op", "lower", "count", "cli.report_bytes"),
    ("trace.target_layer_share", "ratio", "higher", "share", None),
    ("trace.overhead_ratio", "ratio", "lower", "overhead", None),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, workload, ops, op_seconds, untraced_ops_per_s, traced_ops_per_s):
    """Every PER_LAYER metric from a finished traced phase of ``ops`` ops
    whose op wall times sum to ``op_seconds``."""
    spans = tracer.self_times()
    counters = tracer.counters

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    target_s = sum(s for name, (_, s) in spans.items()
                   if name.split(".")[0] in TARGET_LAYERS[workload])
    out = {}
    for name, unit, _, kind, source in PER_LAYER:
        if kind == "calls":
            value = calls(source) / ops
        elif kind == "self_s":
            value = self_s(source) / ops
        elif kind == "count":
            value = counters[source] / ops
        elif kind == "ratio":
            num, den = source
            value = _ratio(counters[num], counters[den] if den in counters else calls(den))
        elif kind == "merge":
            value = _ratio(counters["colimits.points"] - counters["colimits.classes"],
                           counters["colimits.unions"])
        elif kind == "share":
            value = _ratio(target_s, op_seconds)
        else:
            value = _ratio(untraced_ops_per_s, traced_ops_per_s)
        out[name] = {"value": value, "unit": unit}
    return out
