"""Label-invariant summaries of op outputs and the golden check.

A relabelled group file changes element indices, object order and class
order in the reports, so categories and colimits are compared through
invariants: counts, sorted multisets of class descriptors and edge data.
Reports that do not depend on labels (stab, invariants, cr, a4-demo and the
library calls) are compared whole.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Values the paper states for the A_4 example, checked on top of the goldens:
# request key -> (summary field, value).
PAPER_COEFFICIENT = "s^3 + s^2*t + t^3"
PAPER_VALUES = {
    "colim a4 p=2 q=4 tower": ("sizes", [6, 5]),
    "colim a4 p=2 q=2 tower": ("sizes", [2, 2]),
    "a4-demo": ("b1_cube_degree3", PAPER_COEFFICIENT),
}


def normalize(value):
    """JSON round trip: tuples become lists and dict keys strings."""
    return json.loads(json.dumps(value, sort_keys=True))


def multiset(values):
    """A multiset of numbers as sorted [value, multiplicity] pairs."""
    return sorted([v, n] for v, n in Counter(values).items())


def category_summary(doc):
    classes = doc["skeleton"]["classes"]
    desc = [
        [c["rank"], c["aut_order"], c["aut_abelian"], c["aut_exponent"], len(c["members"])]
        for c in classes
    ]
    edges = sorted(
        [desc[e["source"]], desc[e["target"]], e["hom_size"], sorted(e["orbits"]),
         e["two_sided_orbit_count"]]
        for e in doc["skeleton"]["edges"]
    )
    return {
        "level": doc["level"],
        "objects": doc["objects"],
        "morphisms": doc["morphisms"],
        "classes": sorted(desc),
        "edges": edges,
    }


def colim_summary(doc):
    return {
        "level": doc["level"],
        "q": doc["q"],
        "object_counts": sorted(doc["object_counts"]),
        "size": doc["size"],
        "class_sizes": multiset(c["size"] for c in doc["classes"]),
        "components": doc["components"],
    }


def tower_summary(doc):
    return {
        "q": doc["q"],
        "sizes": [level["size"] for level in doc["levels"]],
        "levels": [
            {"n": level["n"], "class_sizes": multiset(c["size"] for c in level["classes"])}
            for level in doc["levels"]
        ],
        "fibres": [multiset(Counter(s).values()) for s in doc["surjections"]],
    }


def cli_summary(argv, text):
    doc = json.loads(text)
    command = argv[0]
    if command == "category":
        return category_summary(doc)
    if command == "colim":
        return tower_summary(doc) if "--tower" in argv else colim_summary(doc)
    return doc


# Library op name -> summary of its result.
LIB_SUMMARIES = {
    "honda_fgl": lambda f: {"p": f.p, "height": f.height, "degree": f.degree,
                            "series": f.series.render(("s", "t"))},
    "weyl_orbit_restriction": lambda o: {"terms": o.rendered_terms(), "total": o.total.render()},
    "beta_pushforward": lambda e: e.render(),
    "mod_indecomposables": lambda e: e.render(),
    "coefficient_of": lambda poly: poly.render(names=("s", "t")),
    "invariant_basis": lambda basis: [f.render() for f in basis],
    "subring_membership": lambda member: member,
    "verify_kn_injectivity": lambda table: table,
}


class GoldenMismatch(AssertionError):
    pass


def of(request):
    """Run ``request``'s ops once, untimed, and return their summaries."""
    result, out = None, []
    for (_, fn), summarize in zip(request.ops, request.summarize):
        result = fn(result)
        out.append(normalize(summarize(result)))
    return out


def load_golden(workload):
    return json.loads((GOLDEN_DIR / (workload + ".json")).read_text())


def check(golden, key, index, summary):
    """Raise GoldenMismatch unless ``summary`` is the golden one for op
    ``index`` of request ``key`` and agrees with the paper's values."""
    summary = normalize(summary)
    expected = golden.get(key)
    if expected is None or index >= len(expected):
        raise GoldenMismatch("no golden summary for %s op %d" % (key, index))
    if summary != expected[index]:
        raise GoldenMismatch("%s op %d: summary differs from golden" % (key, index))
    if key in PAPER_VALUES and index == 0:
        field, value = PAPER_VALUES[key]
        if summary[field] != value:
            raise GoldenMismatch("%s: %s %r, paper says %r" % (key, field, summary[field], value))
    if key.startswith("a4-chain") and index == 4 and summary != PAPER_COEFFICIENT:
        raise GoldenMismatch("%s: degree-3 coefficient %r" % (key, summary))
