"""Steadiness report: run each named workload N times and print, for each
metric with its unit, the median, the quartiles and the interquartile spread
as a share of the median, next to the bound BENCHMARK.json sets for it.

    python3 perfbench/steady.py --workload colim-tower --runs 10 [--first-seed 1]
    python3 perfbench/steady.py --workload category-build colim-tower algebra-pipeline --runs 2

Each run is a separate ``run.py`` process with its own seed, one after the
other; every run's correctness and failed/attempted counts are printed.  The
bounds in BENCHMARK.json were set from this report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workload:
        print("== %s" % workload)
        values, units = {}, {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print("seed %d: correct=%s attempted=%d failed=%d %s" % (
                seed, result["correct"], result["attempted"], result["failed"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]

        print("%-32s %-9s %12s %12s %12s %8s %6s" % (
            "metric", "unit", "median", "q1", "q3", "iqr/med", "bound"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, spread = stats.quartile_spread(vals)
            bound = bounds.get(name)
            print("%-32s %-9s %12.6g %12.6g %12.6g %8.3f %6s" % (
                name, units[name], med, q1, q3, spread, "" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
