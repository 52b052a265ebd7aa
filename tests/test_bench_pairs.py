"""``tools/bench_pairs.py``, the tool every benchmark claim is made with,
checked without running the benchmark: how pairs are won, when the median
gap has no parent spread to be measured in, that trees under paths of
unequal length are refused before anything is read or written, and that
each tree's source line count is written."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()


def test_compare_counts_wins_in_the_metrics_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
    # pairs 1 and 4 are lower, pair 3 higher, pair 2 a tie for neither side
    lower = bench_pairs._compare(parent, change, "lower")
    higher = bench_pairs._compare(parent, change, "higher")
    assert lower["change_wins_pairs"] == 2
    assert higher["change_wins_pairs"] == 1
    assert lower["better"] == "lower" and higher["better"] == "higher"
    assert lower["parent"]["runs"] == parent and lower["change"]["runs"] == change
    assert bench_pairs._compare([2.0] * 3, [2.0] * 3, "lower")["change_wins_pairs"] == 0
    assert bench_pairs._compare([2.0] * 3, [2.0] * 3, "higher")["change_wins_pairs"] == 0


def test_median_gap_needs_a_parent_spread():
    flat = bench_pairs._compare([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0], "lower")
    assert flat["parent"]["iqr"] == 0
    assert flat["median_gap_over_parent_iqr"] is None
    assert flat["median_change_pct"] == -50.0
    spread = bench_pairs._compare([1.0, 2.0, 3.0, 4.0, 5.0], [2.0] * 5, "lower")
    # parent quartiles 2 and 4, median 3: a gap of 1 over an IQR of 2
    assert spread["parent"]["iqr"] == 2.0
    assert spread["median_gap_over_parent_iqr"] == 0.5


def test_main_refuses_paths_of_unequal_length_before_reading(tmp_path, capsys):
    # neither tree exists, so a read of either would raise something else
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([
            "--parent", str(tmp_path / "p"), "--change", str(tmp_path / "change"),
            "--workload", "category-build", "--out", str(out),
        ])
    assert exit_info.value.code == 2
    assert "equal length" in capsys.readouterr().err
    assert not out.exists()


def test_main_writes_each_trees_source_line_count(tmp_path):
    # no workload and no request: only the machine and the line counts
    for side, files in (("parent", {"a.py": "x = 1\ny = 2\n"}),
                        ("change", {"a.py": "x = 1\n", "b.py": "\n\n\n", "c.txt": "z\n"})):
        src = tmp_path / side / "src" / "chromcat"
        src.mkdir(parents=True)
        for name, text in files.items():
            (src / name).write_text(text)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"kept": {}}}))
    assert bench_pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--out", str(out),
    ]) == 0
    written = json.loads(out.read_text())
    assert written["src_lines"] == {"parent": 2, "change": 4}
    assert written["workloads"] == {"kept": {}}
