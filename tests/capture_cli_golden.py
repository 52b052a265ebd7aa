"""Capture the CLI reports that ``test_cli.py::test_cli_matches_golden``
compares byte for byte.

Run from the repository root, with the package whose output is to be kept
on the path:

    PYTHONPATH=src python tests/capture_cli_golden.py

This deletes every golden first.  With ``--check`` it writes nothing: it
runs every case, prints the name of each golden that differs from its
report, is missing, or belongs to no case, and exits 1 if it printed any
(0 otherwise):

    PYTHONPATH=src python tests/capture_cli_golden.py --check

For every bundled group of order <= 64 it keeps ``group-info``.  For every
such group and every prime p dividing its order it keeps ``elemab``, which
lists the elementary abelian p-subgroups with their bases, and
``category --format json`` at each level 0..p-rank and at ``inf``,
``colim -q p --tower``, ``colim -q p -n 1`` and ``colim -q p^2 --tower``.
At q = p no point of rank >= 2 has F_p-independent coordinates, so the
q = p^2 towers are the reports whose colimit classes hold points of rank
>= 2.  x32 keeps only its ``elemab``, ``category -n inf``, q = p^2 tower and
``stab`` reports: its other category levels take seconds each.  Every group
and prime also keeps ``stab``.  Beyond the per-group reports it keeps ``cr``
with the unit subring for a4, a5, c1, c2, c3, c6, s3, k4 and e8, with the
Chern and full generator sets of ``tests/golden/generators/`` for a4, a5
and k4, and with ``e8-partial.json`` for e8, whose C_R joins some Quillen
classes and equals no level; and ``witness`` over the bundled library at
(p, n) = (2, 1), (2, 2) and (3, 1).  Past order 64 it keeps
``elemab`` for a6 and s6 at p = 2 and 3, ``colim -q 4 --tower`` for a6 and
s6 at p = 2, whose A^(1) joins G-classes of Klein fours, so their
connecting maps cross a level join, and ``category -n 1`` for a6 at p = 3,
where A^(1) and the Quillen category differ.  Three test-only groups of
``tests/golden/groups/``, not bundled, keep ``stab``: AGL(3,2), order
1344, AGL(1,16), order 240 and 2-rank 4, which also keeps ``invariants
--max-degree 15`` of its Weyl group C_15, and F_3^3 : H, order 1944, which
also keeps ``category -n 2`` at p = 3.  F_3^3 : H is the one group known
here with A^(2) != A^(3); the level searches of it and of AGL(3,2) read
many objects that lead no G-class, and AGL(1,16) has Aut_1 = GL_4(2).  The DOT
renderer keeps ``category --format dot`` for a4, s4 and a5 at p = 2 and
for h27 at p = 3, each at n = 1 and ``inf``.  ``invariants --max-degree 8``
is kept for every bundled group of order <= 64 at every prime where its
Sylow subgroup is elementary abelian, ``invariants --max-degree 14`` for
a4, a5 and e8 at p = 2, ``invariants --max-degree 8`` for a6 at p = 3, and
``a4-demo``.  Each report is written to ``tests/golden/cli/<case>.json``,
or ``<case>.dot`` for a DOT report.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from chromcat import (
    UnsupportedGroupError,
    builtin_names,
    enumerate_elem_abelians,
    load_builtin,
    p_rank,
)
from chromcat.cli import main
from chromcat.subrings import sylow_among

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
GENERATOR_DIR = Path(__file__).parent / "golden" / "generators"
GROUP_DIR = Path(__file__).parent / "golden" / "groups"
MAX_ORDER = 64
INF_ONLY = ("x32",)


def _primes_dividing(order):
    return [
        p for p in range(2, order + 1)
        if order % p == 0 and all(p % d for d in range(2, p))
    ]


def _invariants_case(name, p, max_degree):
    return (
        "%s-p%d-invariants-d%d" % (name, p, max_degree),
        ["invariants", "-g", name, "-p", str(p), "--max-degree", str(max_degree)],
    )


def cases():
    """(file name, argv) for every captured report, in a fixed order."""
    out = []
    for name in builtin_names():
        group = load_builtin(name)
        if group.order > MAX_ORDER:
            continue
        out.append(("%s-group-info" % name, ["group-info", "-g", name]))
        for p in _primes_dividing(group.order):
            common = ["-g", name, "-p", str(p)]
            out.append(("%s-p%d-elemab" % (name, p), ["elemab", *common]))
            levels = [str(n) for n in range(p_rank(group, p) + 1)] + ["inf"]
            if name in INF_ONLY:
                levels = ["inf"]
            for level in levels:
                out.append((
                    "%s-p%d-category-n%s" % (name, p, level),
                    ["category", *common, "--format", "json", "-n", level],
                ))
            out.append(("%s-p%d-stab" % (name, p), ["stab", *common]))
            out.append((
                "%s-p%d-colim-q%d-tower" % (name, p, p * p),
                ["colim", *common, "-q", str(p * p), "--tower"],
            ))
            if name in INF_ONLY:
                continue
            out.append((
                "%s-p%d-colim-tower" % (name, p),
                ["colim", *common, "-q", str(p), "--tower"],
            ))
            out.append((
                "%s-p%d-colim-n1" % (name, p),
                ["colim", *common, "-q", str(p), "-n", "1"],
            ))
    both = ("chern", "full")
    cr_sets = {"a4": both, "a5": both, "c1": (), "c2": (), "c3": (), "c6": (),
               "s3": (), "k4": both, "e8": ("e8-partial",)}
    for name, subrings in cr_sets.items():
        out.append(("%s-cr-unit" % name, ["cr", "-g", name]))
        for subring in subrings:
            out.append((
                "%s-cr-%s" % (name, subring),
                ["cr", "-g", name, "--generators", str(GENERATOR_DIR / (subring + ".json"))],
            ))
    for p, n in ((2, 1), (2, 2), (3, 1)):
        out.append((
            "witness-p%d-n%d" % (p, n), ["witness", "-p", str(p), "-n", str(n)]
        ))
    for name in ("a6", "s6"):
        for p in (2, 3):
            out.append((
                "%s-p%d-elemab" % (name, p), ["elemab", "-g", name, "-p", str(p)]
            ))
        out.append((
            "%s-p2-colim-q4-tower" % name,
            ["colim", "-g", name, "-p", "2", "-q", "4", "--tower"],
        ))
    out.append((
        "a6-p3-category-n1",
        ["category", "-g", "a6", "-p", "3", "--format", "json", "-n", "1"],
    ))
    stretch = {name: str(GROUP_DIR / (name + ".json")) for name in ("agl32", "agl116", "f33h")}
    out.append(("agl32-p2-stab", ["stab", "-g", stretch["agl32"], "-p", "2"]))
    out.append(("agl116-p2-stab", ["stab", "-g", stretch["agl116"], "-p", "2"]))
    out.append((
        "agl116-p2-invariants-d15",
        ["invariants", "-g", stretch["agl116"], "-p", "2", "--max-degree", "15"],
    ))
    out.append(("f33h-p3-stab", ["stab", "-g", stretch["f33h"], "-p", "3"]))
    out.append((
        "f33h-p3-category-n2",
        ["category", "-g", stretch["f33h"], "-p", "3", "--format", "json", "-n", "2"],
    ))
    for name, p in (("a4", 2), ("s4", 2), ("a5", 2), ("h27", 3)):
        for level in ("1", "inf"):
            out.append((
                "%s-p%d-category-n%s" % (name, p, level),
                ["category", "-g", name, "-p", str(p), "--format", "dot", "-n", level],
            ))
    for name in builtin_names():
        group = load_builtin(name)
        if group.order > MAX_ORDER:
            continue
        for p in _primes_dividing(group.order):
            try:
                sylow_among(enumerate_elem_abelians(group, p))
            except UnsupportedGroupError:
                continue
            out.append(_invariants_case(name, p, 8))
    out += [_invariants_case(name, 2, 14) for name in ("a4", "a5", "e8")]
    out.append(_invariants_case("a6", 3, 8))
    out.append(("a4-demo", ["a4-demo"]))
    return [
        (case + (".dot" if "dot" in argv else ".json"), argv) for case, argv in out
    ]


def report(argv):
    """The stdout of one CLI run; a nonzero exit status is an error."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError("%s exited with status %d" % (" ".join(argv), code))
    return buf.getvalue()


def check():
    """The file names of the goldens that a fresh capture would change:
    reports that differ or are missing, and files no case writes."""
    kept = cases()
    differ = [
        file_name for file_name, argv in kept
        if not (GOLDEN_DIR / file_name).is_file()
        or (GOLDEN_DIR / file_name).read_text() != report(argv)
    ]
    names = {file_name for file_name, _ in kept}
    stale = sorted(path.name for path in GOLDEN_DIR.glob("*.*") if path.name not in names)
    return differ + stale


def capture():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.*"):
        stale.unlink()
    kept = cases()
    for file_name, argv in kept:
        (GOLDEN_DIR / file_name).write_text(report(argv))
    sys.stdout.write("wrote %d reports to %s\n" % (len(kept), GOLDEN_DIR))


def run(argv):
    """The script: capture, or with ``--check`` list what a capture would
    change; the exit status."""
    if argv == ["--check"]:
        differ = check()
        sys.stdout.write("".join(name + "\n" for name in differ))
        return 1 if differ else 0
    if argv:
        sys.stderr.write("usage: capture_cli_golden.py [--check]\n")
        return 2
    capture()
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
