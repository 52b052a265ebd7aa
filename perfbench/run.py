"""chromcat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload category-build --seed 1 --seconds 30 --trace 0

The load is a closed loop: one client, one process, no threads.  The run
sets up once in-process (imports chromcat from ``src/``, generates the seeded
inputs, loads the golden summaries) and reports as ``setup_s`` the median
corrected time of several cold set-ups, each a fresh interpreter doing the
same from process start.  It then runs a fixed number of whole passes over the
workload's requests, each pass in a fresh seeded order, and checks every
op's output against its golden summary.  Every op time is corrected for
the machine's speed at that moment (see speed.py); the median and the
throughput are taken from each op's median corrected time over the passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run first measures untraced passes for half the time,
then repeats the same number of passes with spans around every layer, and
the last line carries the per-layer metrics.  Human-readable lines precede
the JSON line.  The exit code is 2 if chromcat cannot be imported from the
checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import summaries  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Cold set-ups before the timed phases and after them; setup_s is the median
# of all, so it spans the run rather than one moment of the machine's speed.
SETUP_BEFORE, SETUP_AFTER = 3, 4
# One cold set-up: a fresh interpreter imports the benchmark and chromcat,
# generates the inputs and loads the goldens, as run.py does before its
# first op.  argv: perfbench directory, workload, seed, work directory.
COLD_SETUP = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
              "import run; run.set_up(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))")
# Seconds per pass that the pass count assumes: a run holds --seconds /
# PASS_SECONDS passes, never a measured number, so every run of a workload
# holds the same op runs and the tail reads the same order statistic.  On a
# shared 2-core machine a pass takes 4-6 s (category-build and colim-tower)
# and 2.5-3.5 s (algebra-pipeline); a 30 s run holds 6, 6 and 8 passes.  Six
# passes run every generator order of a group with at most three generators,
# each as often (see workloads.generate), so an op's median does not depend
# on the seed's choice of which order comes first.  algebra-pipeline's
# slowest op, the degree-16 beta_pushforward, runs once per pass; with ten
# passes the tail (the eleventh largest op run) would be the single slowest
# run of the next op, and with eight it is the third slowest of the sixteen
# `cr a5` runs.
PASS_SECONDS = {"category-build": 5.0, "colim-tower": 5.0, "algebra-pipeline": 3.75}
FAILURES_SHOWN = 5


class SetupError(Exception):
    """chromcat could not be imported from the checkout."""


def import_chromcat():
    """Import chromcat afresh from ``src/`` (dropping any loaded copy)."""
    src = ROOT / "src"
    if not (src / "chromcat" / "__init__.py").is_file():
        raise SetupError("no chromcat package under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "chromcat" or m.startswith("chromcat.")]:
        del sys.modules[name]
    cc = importlib.import_module("chromcat")
    importlib.import_module("chromcat.cli")
    if Path(cc.__file__).resolve().parent != (src / "chromcat").resolve():
        raise SetupError("chromcat was imported from %s, not %s" % (cc.__file__, src))
    return cc


def set_up(workload, seed, workdir):
    cc = import_chromcat()
    inputs = workloads.generate(workload, seed, workdir, cc)
    golden = summaries.load_golden(workload)
    return cc, inputs, golden


def cold_set_up(workload, seed, workdir, timeline):
    """Seconds from starting a fresh interpreter to the end of its set-up,
    as (start, end) on ``timeline``, which is sampled around it."""
    workdir.mkdir(exist_ok=True)
    timeline.sample()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_SETUP, str(HERE), workload,
                           str(seed), str(workdir)], capture_output=True, text=True)
    end = time.perf_counter()
    timeline.sample()
    if proc.returncode != 0:
        raise SetupError("cold set-up failed: %s" % proc.stderr.strip())
    return start, end


def pass_count(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


class Phase:
    """Op times and outcome counts of one timed phase.  ``ops`` holds each
    timed op, (request key, op index), with its start and end; ``timeline``
    the reference timings taken around them (see speed.py)."""

    def __init__(self):
        self.ops = []
        self.timeline = speed.Timeline()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.passes = 0

    def times(self):
        """Each op's corrected and measured times, one per pass."""
        corrected, measured = {}, {}
        for op, start, end in self.ops:
            corrected.setdefault(op, []).append(self.timeline.correct(start, end))
            measured.setdefault(op, []).append(end - start)
        return list(corrected.values()), list(measured.values())

    def fail(self, key, index, message):
        self.failed += 1
        if len(self.failures) < FAILURES_SHOWN:
            self.failures.append("%s op %d: %s" % (key, index, message))


def run_phase(inputs, golden, passes, tracer=None):
    """Run ``passes`` whole passes and time every op.

    Before each op the garbage earlier ops left is collected, as a CLI user's
    fresh process would start without it; that collection, the reference
    timings around the op and the output check after it are not timed.
    """
    phase = Phase()
    for _ in range(passes):
        for request in inputs.pass_requests(phase.passes):
            result = None
            for index, (_, fn) in enumerate(request.ops):
                phase.attempted += 1
                if tracer is not None:
                    tracer.op_id = phase.attempted
                gc.collect()
                phase.timeline.sample()
                start = time.perf_counter()
                error = None
                try:
                    result = fn(result)
                except Exception as exc:  # an op that raises counts as failed
                    error = exc
                phase.ops.append(((request.key, index), start, time.perf_counter()))
                phase.timeline.sample()
                if error is not None:
                    phase.fail(request.key, index, "%s: %s" % (type(error).__name__, error))
                    # later ops of the request consume this one's result
                    skipped = len(request.ops) - index - 1
                    phase.attempted += skipped
                    phase.failed += skipped
                    break
                if tracer is not None:
                    tracer.enabled = False
                    if isinstance(result, str):
                        tracer.counters["cli.report_bytes"] += len(result)
                try:
                    summaries.check(golden, request.key, index, request.summarize[index](result))
                except Exception as exc:  # a wrong or unreadable output
                    phase.fail(request.key, index, "%s: %s" % (type(exc).__name__, exc))
                finally:
                    if tracer is not None:
                        tracer.enabled = True
        phase.passes += 1
    return phase


def summary(times):
    """(p50, tail, tail percentile, sample count, ops per second) of per-op
    time lists: the median and the ops per second from each op's median
    over the passes, the tail from every op run."""
    medians = [statistics.median(t) for t in times]
    tail, pct, n = stats.tail([x for t in times for x in t])
    return statistics.median(medians), tail, pct, n, len(medians) / sum(medians)


def end_to_end(phase, setup_s, rss_mb):
    """End-to-end metrics from the corrected op times, with the same figures
    from measured times as notes."""
    corrected, measured = phase.times()
    p50, tail, pct, n, rate = summary(corrected)
    measured = summary(measured)
    metrics = {
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail, "s"),
        "ops_per_s": (rate, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "op_s.p50": "measured %.4g s" % measured[0],
        "op_s.tail": "p%.1f of %d op runs; measured %.4g s" % (pct, n, measured[1]),
        "ops_per_s": "measured %.4g 1/s" % measured[4],
    }
    return metrics, notes


def print_metrics(metrics, notes):
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print("  %-32s %14.6g %-8s %s" % (name, value, unit, note))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, inputs, golden = set_up(args.workload, args.seed, workdir)
        cold_dir = workdir / "cold"
        setup_timeline = speed.Timeline()
        setups = [cold_set_up(args.workload, args.seed, cold_dir, setup_timeline)
                  for _ in range(SETUP_BEFORE)]
        # set-up objects (modules, goldens) are never garbage: keep them out
        # of the collections between ops
        gc.collect()
        gc.freeze()

        seconds = args.seconds / 2 if args.trace else args.seconds
        phase = run_phase(inputs, golden, pass_count(args.workload, seconds))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer, layers.TARGETS)
            try:
                traced = run_phase(inputs, golden, phase.passes, tracer=tracer)
            finally:
                tracing.uninstall(patches)
        setups += [cold_set_up(args.workload, args.seed, cold_dir, setup_timeline)
                   for _ in range(SETUP_AFTER)]
        setup_s = statistics.median(setup_timeline.correct(*span) for span in setups)
        metrics, notes = end_to_end(phase, setup_s, rss_mb)
        notes["setup_s"] = "median of %d cold set-ups; measured %.4g s" % (
            len(setups), statistics.median(end - start for start, end in setups))
    except SetupError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print("chromcat benchmark: workload %s, seed %d, %d passes, %d ops, %d failed"
          % (args.workload, args.seed, phase.passes, phase.attempted, phase.failed))
    print("  %-32s %14.6g %-8s (%d/%d)" % ("failed_frac", phase.failed / phase.attempted,
                                           "", phase.failed, phase.attempted))
    print_metrics(metrics, notes)
    runs = [phase]
    if traced is not None:
        runs.append(traced)
        untraced_rate = metrics["ops_per_s"][0]
        traced_rate = summary(traced.times()[0])[4]
        layer = layers.layer_metrics(tracer, args.workload, traced.attempted,
                                     sum(end - start for _, start, end in traced.ops), untraced_rate,
                                     traced_rate)
        print("traced: %d passes, %d ops, %d spans" % (traced.passes, traced.attempted, len(tracer)))
        for name, entry in layer.items():
            print("  %-32s %14.6g %s" % (name, entry["value"], entry["unit"]))
        result_metrics = layer
    else:
        result_metrics = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}
    for run in runs:
        for line in run.failures:
            print("FAILED " + line)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
