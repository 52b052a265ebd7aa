"""Alternating parent/change benchmark pairs, written as a BENCH_<k>.json.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --workload category-build --workload colim-tower --workload algebra-pipeline \\
        --seed 3600 --repeat-seed 3700 --out BENCH_35.json
    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --cli "stab -g s6 -p 2" --out BENCH_35.json

``--parent`` and ``--change`` are two checkouts of the trees compared, made
with ``git archive`` under directory names of equal length: the benchmark's
peak RSS reads the length of the checkout's path.  For each workload, pair
i of ten runs ``perfbench/run.py --workload W --seed <seed + i> --seconds 30
--trace 0`` in both trees, the parent first in even pairs and the change
first in odd ones, and the end-to-end metrics of its last stdout line are
kept.  Each metric is summarised per side (runs, median, quartile spread)
with the pairs the change wins and the change of the median, in the
direction ``BENCHMARK.json`` gives.  With ``--repeat-seed S`` each workload
also gets a second, independent series of ten pairs on seeds S..S+9, run
after every first series and written under ``repeat_series``: one series
can pass a small gain on noise, and a claim should hold in both.

Each ``--cli`` request is run three times per side, alternating,
as ``python3 -m chromcat <args>`` from the tree's root with its ``src`` on
the path; the wall time includes process start, and stdout is hashed so
identical reports can be told.  Paths in the arguments are read relative
to each tree.

The output file is updated in place: the workloads, repeat series and
CLI rows of this call replace those of the same name, and the rest of the
file is kept, so separate calls can fill one file.  Each call also writes ``src_lines``,
the newline count of each tree's ``src/chromcat/*.py`` (what ``wc -l``
totals), the size the project tracks from change to change.  Each run
prints one progress line to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
SECONDS = 30
CLI_RUNS = 3


def _run_workload(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit("run failed in %s (seed %d): %s" % (tree, seed, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _src_lines(tree: Path) -> int:
    paths = (tree / "src" / "chromcat").glob("*.py")
    return sum(path.read_bytes().count(b"\n") for path in paths)


def _spread(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": statistics.median(runs), "iqr": q3 - q1, "min": min(runs)}


def _compare(parent: list, change: list, better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    p_side, c_side = _spread(parent), _spread(change)
    return {
        "better": better,
        "parent": p_side,
        "change": c_side,
        "change_wins_pairs": wins,
        "median_change_pct": 100.0 * (c_side["median"] - p_side["median"]) / p_side["median"],
        "median_gap_over_parent_iqr": (
            abs(c_side["median"] - p_side["median"]) / p_side["iqr"] if p_side["iqr"] else None
        ),
    }


def bench_workload(trees: dict, workload: str, seeds: list, better: dict) -> dict:
    results = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(_run_workload(trees[side], workload, seed))
            sys.stderr.write("%s seed %d %s: ops_per_s %.1f\n" % (
                workload, seed, side, results[side][-1]["metrics"]["ops_per_s"]["value"]))
    metrics = {
        name: _compare(
            [r["metrics"][name]["value"] for r in results["parent"]],
            [r["metrics"][name]["value"] for r in results["change"]],
            direction,
        )
        for name, direction in better.items()
    }
    return {
        "command": "python3 perfbench/run.py --workload %s --seed S --seconds %d --trace 0"
        % (workload, SECONDS),
        "seeds": seeds,
        "correct": {side: all(r["correct"] for r in rs) for side, rs in results.items()},
        "attempted_ops": {side: sum(r["attempted"] for r in rs) for side, rs in results.items()},
        "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in results.items()},
        "metrics": metrics,
    }


def bench_cli(trees: dict, request: str) -> dict:
    args = shlex.split(request)
    times, hashes = {"parent": [], "change": []}, {"parent": set(), "change": set()}
    for i in range(CLI_RUNS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            env = dict(os.environ, PYTHONPATH=str(trees[side] / "src"))
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "chromcat", *args], cwd=trees[side],
                                  env=env, capture_output=True)
            times[side].append(round(time.perf_counter() - start, 4))
            if proc.returncode != 0:
                raise SystemExit("%r failed in %s: %s" % (request, trees[side], proc.stderr))
            hashes[side].add(hashlib.sha256(proc.stdout).hexdigest())
            sys.stderr.write("%s %s: %.3f s\n" % (request, side, times[side][-1]))
    return {
        "request": "python3 -m chromcat " + request,
        "runs_s": times,
        "stdout_sha256": {side: sorted(h) for side, h in hashes.items()},
        "stdout_identical": len(hashes["parent"] | hashes["change"]) == 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat-seed", type=int,
                        help="first seed of a second series per workload (repeat_series)")
    parser.add_argument("--cli", action="append", default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(trees["parent"])) != len(str(trees["change"])):
        parser.error("the two checkouts must sit under paths of equal length")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["machine"] = "%s, %d cores, Python %s" % (
        platform.system(), os.cpu_count() or 0, platform.python_version())
    out["src_lines"] = {side: _src_lines(tree) for side, tree in trees.items()}
    series = [("workloads", args.seed)]
    if args.repeat_seed is not None:
        series.append(("repeat_series", args.repeat_seed))
    for key, first in series:
        runs = out.setdefault(key, {})
        for workload in args.workload:
            seeds = list(range(first, first + PAIRS))
            runs[workload] = bench_workload(trees, workload, seeds, better)
    cli = out.setdefault("cli", {})
    for request in args.cli:
        cli[request] = bench_cli(trees, request)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
