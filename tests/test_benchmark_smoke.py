"""One short pass of each benchmark workload, checked against its goldens.

``perfbench/run.py`` drives the CLI and library on seeded requests and
compares every op's output with a golden summary; a change in src that breaks
a request or moves a golden value shows up here as a failed op.  A traced
pass also runs every layer hook and ``layers.layer_metrics``, so a src change
that breaks a hook at run time fails here too.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ["category-build", "colim-tower", "algebra-pipeline"]


def _run(workload, trace):
    """The last line of one seeded one-second run, as JSON."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_clean(workload):
    _run(workload, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_reports_every_layer_metric(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    result = _run(workload, 1)
    assert list(result["metrics"]) == [m["name"] for m in declared]
