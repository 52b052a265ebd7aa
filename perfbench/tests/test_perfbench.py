"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import summaries  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cc():
    return run.import_chromcat()


def _request(cc, tmp_path, workload, seed, key):
    inputs = workloads.generate(workload, seed, tmp_path, cc)
    return next(r for r in inputs.variants[0] if r.key == key)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == (90, 90.0, 100)
    value, pct, n = stats.tail(list(range(25)))
    assert (value, n) == (14, 25) and pct == pytest.approx(60.0)
    assert sorted(range(25))[15:] == list(range(15, 25))  # ten samples beyond
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()

    def span(name, start, end, parent):
        tracer.span_name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.op.append(1)
        tracer.parent.append(parent)
        return len(tracer) - 1

    a = span("a", 0.0, 10.0, -1)
    span("b", 1.0, 4.0, a)
    c = span("c", 5.0, 9.0, a)
    span("b", 6.0, 8.0, c)
    times = tracer.self_times()
    assert times["a"] == (1, pytest.approx(3.0))
    assert times["c"] == (1, pytest.approx(2.0))
    assert times["b"] == (2, pytest.approx(5.0))


def test_summary_is_label_invariant_across_relabellings(cc, tmp_path):
    key = "category x32 p=2 n=inf"
    docs, outs = [], []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        outs.append(summaries.of(_request(cc, workdir, "category-build", seed, key)))
        docs.append(json.loads((workdir / "x32-0.json").read_text()))
    assert docs[0]["generators"] != docs[1]["generators"]
    assert outs[0] == outs[1] == summaries.load_golden("category-build")[key]


def test_wrappers_are_restored_after_a_traced_phase(cc, tmp_path):
    def snapshot():
        names = {}
        for module in tracing._namespaces():
            for key, value in vars(module).items():
                names[(module.__name__, key)] = value
        for cls in (cc.groups.FiniteGroup, cc.polyfp.PolyFp, cc.hopf.HopfExpr,
                    cc.elemab.LinearMorphism):
            for key, value in vars(cls).items():
                names[(cls.__name__, key)] = value
        return names

    before = snapshot()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, layers.TARGETS)
    try:
        assert cc.cli.build_category is not before[("chromcat.cli", "build_category")]
        assert cc.colimits.build_category is cc.categories.build_category
        request = _request(cc, tmp_path, "category-build", 1, "stab a5 p=2")
        phase = run.run_phase(workloads.Inputs(1, [[request]]),
                              summaries.load_golden("category-build"), 1, tracer=tracer)
    finally:
        tracing.uninstall(patches)
    assert phase.failed == 0
    assert {"cli.main", "categories.build", "groups.simconj"} <= set(tracer.self_times())
    assert tracer.names[tracer.span_name[0]] == "cli.main" and tracer.parent[0] == -1
    assert all(tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
               for i, p in enumerate(tracer.parent) if p >= 0)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_golden_check_fails_on_an_altered_summary(cc, tmp_path):
    key = "category a5 p=2 n=1"
    golden = summaries.load_golden("category-build")
    request = _request(cc, tmp_path, "category-build", 3, key)
    inputs = workloads.Inputs(3, [[request]])
    assert run.run_phase(inputs, golden, 1).failed == 0

    altered = copy.deepcopy(golden)
    altered[key][0]["morphisms"] += 1
    phase = run.run_phase(inputs, altered, 1)
    assert (phase.attempted, phase.failed) == (1, 1)
    with pytest.raises(summaries.GoldenMismatch):
        summaries.check(altered, key, 0, summaries.of(request)[0])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    # the pass counts the generator orders and the tail are laid out for
    assert [run.pass_count(w, spec["run_seconds"]) for w in workloads.WORKLOADS] == [6, 6, 8]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in layers.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m[0]: m[1] for m in layers.PER_LAYER}
    # reference timings at twice REF_S halve the op times
    phase = run.Phase()
    for i in range(20):
        for j, seconds in enumerate((0.2, 0.6, 0.2)):
            start = 10.0 * (3 * i + j)
            phase.timeline.at += [start - 1e-3, start + seconds + 1e-3]
            phase.timeline.seconds += [2 * speed.REF_S] * 2
            phase.ops.append((("op", i), start, start + seconds))
    metrics, _ = run.end_to_end(phase, 0.05, 30.0)
    assert metrics["op_s.p50"][0] == pytest.approx(0.1)
    assert metrics["op_s.tail"][0] == pytest.approx(0.3)  # 11th largest of 60 op runs
    assert metrics["ops_per_s"][0] == pytest.approx(10.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}
