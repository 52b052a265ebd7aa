"""Request tables of the three workloads and the seeded input generator.

A request is one row of a workload's table; it runs as one or more ops.  A
CLI op is ``chromcat.cli.main(argv)`` run in-process with stdout captured; a
library op is one call to a public chromcat function.  Every request carries
a label-invariant key under which its golden summaries are stored.

For category-build and colim-tower the generator relabels each group's
permutation domain and lists its generators in a seeded order, so the program
sees fresh but isomorphic group files on every seed; every workload also
shuffles its request order per seed and pass.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from summaries import LIB_SUMMARIES, cli_summary

WORKLOADS = ("category-build", "colim-tower", "algebra-pipeline")
RELABELLED = ("category-build", "colim-tower")
VARIANTS = 6

# Each table row is (group, p, levels or ops).  A run repeats the whole
# table several times and an op's time is its best repetition, so every op
# must be short enough to repeat: the ROADMAP cases that take seconds per
# build (a6, s6, x32 n=1 and n=3, c3wrc3 n=1, e9sl23) are left out.

# Small groups run every level and ``stab``; s5, x32 and c3wrc3 run the
# builds that fit: every level of s5, and the Quillen build (n=inf) of the
# two ROADMAP groups.
_CATEGORY_CASES = (
    ("h27", 3, ("1", "2", "inf", "stab")),
    ("e8", 2, ("1", "3", "inf", "stab")),
    ("a5", 2, ("1", "2", "inf", "stab")),
    ("s5", 2, ("1", "2", "inf")),
    ("x32", 2, ("inf",)),
    ("c3wrc3", 3, ("inf",)),
)

# Ops at the largest field the Conway table holds for p, plus the paper's
# A_4 towers at q = 4 and 2.  The x32 and s5 colimits (2-11 s each) and
# e9sl23 are left out; h27 and e9 cover p = 3.
_COLIM_CASES = (
    ("a4", 2, ("tower", "1", "inf", "tower q=4", "tower q=2")),
    ("s4", 2, ("tower", "1", "inf")),
    ("d8", 2, ("tower", "1", "inf")),
    ("e9", 3, ("tower", "1", "inf")),
    ("h27", 3, ("tower", "1", "inf")),
    ("e8", 2, ("tower", "1", "inf")),
    ("a5", 2, ("tower", "1", "inf")),
)
_LARGEST_Q = {2: 16, 3: 27}

CHERN = {"name": "chern", "generators": ["x^4 + x^2*y^2 + y^4", "x^4*y^2 + x^2*y^4"]}
FULL = {"name": "full", "generators": ["x^2 + x*y + y^2", "x^2*y + x*y^2", "x^3 + x^2*y + y^3"]}
D1, D0, ETA = FULL["generators"]

# Generators of GL(3, 2) acting on three variables (closure order 168).
GL32 = (((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0)))

A4_CHAIN_DEGREES = (8, 12, 14, 16)
HONDA_CASES = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))
KN_CASES = ((2, 1), (2, 2), (3, 1))


def cli_table(workload):
    """CLI rows as (key, group or None, argv with ``{group}`` for the group
    file)."""
    rows = []
    if workload == "category-build":
        for g, p, levels in _CATEGORY_CASES:
            for n in levels:
                if n == "stab":
                    rows.append(("stab %s p=%d" % (g, p), g,
                                 ["stab", "--group", "{group}", "-p", str(p)]))
                else:
                    rows.append(("category %s p=%d n=%s" % (g, p, n), g,
                                 ["category", "--group", "{group}", "-p", str(p), "-n", n]))
    elif workload == "colim-tower":
        for g, p, ops in _COLIM_CASES:
            for op in ops:
                q = int(op.split("q=")[1]) if "q=" in op else _LARGEST_Q[p]
                argv = ["colim", "--group", "{group}", "-p", str(p), "-q", str(q)]
                if op.startswith("tower"):
                    rows.append(("colim %s p=%d q=%d tower" % (g, p, q), g,
                                 argv + ["--tower"]))
                else:
                    rows.append(("colim %s p=%d q=%d n=%s" % (g, p, q, op), g,
                                 argv + ["-n", op]))
    elif workload == "algebra-pipeline":
        rows.append(("a4-demo", None, ["a4-demo"]))
        for g in ("a4", "a5", "e8"):
            rows.append(("invariants %s p=2 d<=14" % g, g,
                         ["invariants", "--group", g, "-p", "2", "--max-degree", "14"]))
        for g in ("a4", "a5"):
            for gens in ("chern", "full"):
                rows.append(("cr %s %s" % (g, gens), g,
                             ["cr", "--group", g, "--generators", "{%s}" % gens]))
    else:
        raise ValueError("unknown workload %r" % workload)
    return rows


@dataclass
class Request:
    key: str
    ops: list          # [(op name, fn)]; fn(previous op's result) -> result
    summarize: list    # one fn(result) -> JSON-able summary per op


class CliExit(RuntimeError):
    """chromcat.cli.main returned a non-zero exit code."""


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv by exiting
            code = exc.code
    if code != 0:
        raise CliExit("exit %r: %s" % (code, err.getvalue().strip()))
    return out.getvalue()


def relabel(doc, rng, order):
    """An isomorphic copy of a permutation-group document: the domain is
    relabelled by a random bijection s (g -> s g s^-1) and the generators are
    listed in ``order``."""
    degree = doc["degree"]
    s = list(range(degree))
    rng.shuffle(s)
    gens = []
    for g in doc["generators"]:
        image = [0] * degree
        for i in range(degree):
            image[s[i]] = s[g[i]]
        gens.append(image)
    return {"name": doc["name"], "degree": degree, "generators": [gens[i] for i in order]}


class Inputs:
    """The generated inputs of one run.

    Pass i runs ``variants[i % len(variants)]`` in an order shuffled by
    (seed, i).  Variants differ only in the group files they read.
    """

    def __init__(self, seed, variants):
        self.seed = seed
        self.variants = variants

    def pass_requests(self, i):
        order = list(self.variants[i % len(self.variants)])
        random.Random("%s/%d" % (self.seed, i)).shuffle(order)
        return order


def generate(workload, seed, workdir: Path, cc) -> Inputs:
    """The workload's inputs for this seed; files are written under
    ``workdir`` and ``cc`` is the imported chromcat package.

    Relabelled workloads get VARIANTS group files per group, and pass v
    reads file v mod VARIANTS.  Closing a group discovers elements in
    generator order, so the generator order sets the element numbering and
    with it every search order downstream; relabelling the domain alone
    changes only the labels.  Each group's files cycle through a seeded
    shuffle of all its generator orders, so six passes run every order of a
    group with at most three generators (x32 has four: its six files hold
    six of its 24 orders), and an op's best time over the passes depends
    little on the order the seed drew first.  ``seed=None`` writes the
    bundled files unchanged (used to capture goldens).
    """
    rng = random.Random(seed)
    rows = cli_table(workload)
    paths = {}
    for name, doc in (("chern", CHERN), ("full", FULL)):
        path = workdir / (name + ".json")
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    group_paths = {}
    if workload in RELABELLED:
        for g in sorted({g for _, g, _ in rows}):
            doc = json.loads((cc.library.LIBRARY_DIR / (g + ".json")).read_text())
            orders = list(itertools.permutations(range(len(doc["generators"]))))
            rng.shuffle(orders)
            group_paths[g] = []
            for v in range(1 if seed is None else VARIANTS):
                variant = doc if seed is None else relabel(doc, rng, orders[v % len(orders)])
                path = workdir / ("%s-%d.json" % (g, v))
                path.write_text(json.dumps(variant))
                group_paths[g].append(str(path))

    library = _library_requests(cc) if workload == "algebra-pipeline" else []
    variants = []
    for v in range(VARIANTS if group_paths and seed is not None else 1):
        requests = []
        for key, g, argv in rows:
            group = group_paths[g][v] if g in group_paths else g
            requests.append(_cli_request(cc, key, [a.format(group=group, **paths) for a in argv]))
        variants.append(requests + library)
    return Inputs(seed, variants)


def _cli_request(cc, key, argv):
    def op(_, argv=tuple(argv)):
        return run_cli(cc.cli, list(argv))

    return Request(key, [(argv[0], op)], [lambda text, argv=argv: cli_summary(argv, text)])


def _library_requests(cc) -> list[Request]:
    """Library rows of algebra-pipeline.  Arguments are built here, in
    set-up; functions are looked up on their modules at call time."""
    parse = cc.polyfp.parse_poly
    d1, d0, eta = (parse(s, 2, 2) for s in (D1, D0, ETA))
    chern = [d1 ** 2, d0 ** 2]
    gl32 = cc.polyfp.LinearAction(2, GL32)
    out = []

    for degree in A4_CHAIN_DEGREES:
        def weyl_stage(fgl):
            ring = cc.hopf.CycRing(2, 2, 2)
            w, z = ring.variable(0), ring.variable(1)
            return cc.hopf.weyl_orbit_restriction(w * w * z, [[z, ring.fgl_of_variables(fgl)]], fgl)

        ops = [
            ("honda_fgl", lambda _, d=degree: cc.fgl.honda_fgl(2, 2, d)),
            ("weyl_orbit_restriction", weyl_stage),
            ("beta_pushforward", lambda orbit, d=degree: cc.hopf.beta_pushforward(orbit, d)),
            ("mod_indecomposables", lambda push: cc.hopf.mod_indecomposables(push)),
            ("coefficient_of", lambda reduced: cc.hopf.coefficient_of(reduced, (1, 1, 1), 3)),
        ]
        out.append(Request("a4-chain d=%d" % degree, ops, [LIB_SUMMARIES[name] for name, _ in ops]))

    for d in range(0, 15):
        out.append(_single("invariant_basis GL(3,2) d=%d" % d, "invariant_basis",
                           lambda _, d=d: cc.polyfp.invariant_basis(gl32, d)))
    for k in range(1, 5):
        out.append(_single("subring_membership eta^%d" % k, "subring_membership",
                           lambda _, f=eta ** k: cc.polyfp.subring_membership(f, chern)))
    for p, n in HONDA_CASES:
        out.append(_single("honda_fgl p=%d n=%d d=16" % (p, n), "honda_fgl",
                           lambda _, p=p, n=n: cc.fgl.honda_fgl(p, n, 16)))
    for p, n in KN_CASES:
        out.append(_single("verify_kn_injectivity p=%d n=%d" % (p, n), "verify_kn_injectivity",
                           lambda _, p=p, n=n: cc.hopf.verify_kn_injectivity(p, n)))
    return out


def _single(key, name, fn: Callable):
    return Request(key, [(name, fn)], [LIB_SUMMARIES[name]])
