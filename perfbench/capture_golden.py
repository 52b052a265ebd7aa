"""Capture the golden summaries from the current program.

    python3 perfbench/capture_golden.py [workload ...]

Runs every request of each workload once on the bundled group labelling and
writes ``perfbench/golden/<workload>.json``.  Goldens are captured once, from
a commit whose output is trusted; a later change that alters a summary fails
the benchmark's correctness check instead of re-capturing.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import import_chromcat
import summaries
import workloads


def capture(workload, workdir):
    cc = import_chromcat()
    golden = {}
    for request in sorted(workloads.generate(workload, None, workdir, cc).variants[0],
                          key=lambda r: r.key):
        golden[request.key] = summaries.of(request)
    return golden


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    summaries.GOLDEN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=summaries.GOLDEN_DIR.parent))
    try:
        for name in names:
            golden = capture(name, workdir)
            path = summaries.GOLDEN_DIR / (name + ".json")
            path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            print("%s: %d requests -> %s" % (name, len(golden), path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
