"""``tools/bench_pairs.py``, the tool every benchmark claim is made with,
checked without running the benchmark: how pairs are won, when the median
gap has no parent spread to be measured in, that trees under paths of
unequal length are refused before anything is read or written, that
each tree's source line count is written, and that ``--repeat-seed`` runs
a second series of pairs on its own seeds."""

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


def test_repeat_seed_writes_a_second_series_on_its_own_seeds(tmp_path, monkeypatch):
    # _run_workload is stubbed, so no benchmark runs: each run reads its
    # seed as ops_per_s, the change 5 higher than the parent
    runs = []

    def stub(tree, workload, seed):
        side = tree.name
        runs.append((workload, seed, side))
        value = seed + (5 if side == "change" else 0)
        return {"metrics": {"ops_per_s": {"value": value}},
                "correct": True, "attempted": 3, "failed": 0}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "_run_workload", stub)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w1", "--workload", "w2", "--seed", "100", "--out", str(out)]
    assert bench_pairs.main(argv + ["--repeat-seed", "500"]) == 0
    written = json.loads(out.read_text())
    for key, first in (("workloads", 100), ("repeat_series", 500)):
        assert sorted(written[key]) == ["w1", "w2"]
        for workload in ("w1", "w2"):
            series = written[key][workload]
            seeds = list(range(first, first + bench_pairs.PAIRS))
            assert series["seeds"] == seeds
            metric = series["metrics"]["ops_per_s"]
            assert metric["parent"]["runs"] == seeds
            assert metric["change_wins_pairs"] == bench_pairs.PAIRS
            assert series["attempted_ops"] == {"parent": 30, "change": 30}
            assert "--workload %s" % workload in series["command"]
    # every first series runs before any repeat, each pair alternating
    # which side goes first
    firsts = list(range(100, 110))
    repeats = list(range(500, 510))
    assert [seed for _, seed, _ in runs[::2]] == 2 * firsts + 2 * repeats
    assert [side for _, _, side in runs[:4]] == ["parent", "change", "change", "parent"]
    assert len(runs) == 2 * 2 * 2 * bench_pairs.PAIRS
    # without the option no repeat series is run, and the one on file is kept
    runs.clear()
    assert bench_pairs.main(argv[:-2] + ["--workload", "w3", "--out", str(out)]) == 0
    again = json.loads(out.read_text())
    assert again["repeat_series"] == written["repeat_series"]
    assert sorted(again["workloads"]) == ["w1", "w2", "w3"]
    assert {seed for _, seed, _ in runs} == set(range(100, 110))
