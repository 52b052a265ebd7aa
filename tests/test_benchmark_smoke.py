"""One short pass of each benchmark workload, checked against its goldens.

``perfbench/run.py`` drives the CLI and library on seeded requests and
compares every op's output with a golden summary; a change in src that breaks
a request or moves a golden value shows up here as a failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["category-build", "colim-tower", "algebra-pipeline"])
def test_benchmark_workload_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True
