"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q benchmarks/selftest.py

The default ``pytest`` run collects only tests/ and does not pick these up.
The smoke tests start child processes on a tiny scenario (n=4, 3 steps) and
take a few seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import spans  # noqa: E402
from record_references import observe  # noqa: E402
from run import END_TO_END, OUT_DIR, run_workload  # noqa: E402
from workloads import WORKLOADS, Scenario  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def synthetic_trace() -> spans.Trace:
    # steady [0, 10] holds assemble [1, 3] (which holds basis [1.5, 2]) and splu [4, 8];
    # transient [12, 20] holds two steps, each holding one assemble.
    return spans.Trace([
        ("solvers.solve_steady", 0.0, 10.0, None, "r"),
        ("assembly.assemble_raw", 1.0, 3.0, 0, "r"),
        ("elements.build_basis", 1.5, 2.0, 1, "r"),
        ("solvers.splu", 4.0, 8.0, 0, "r"),
        ("solvers.solve_transient", 12.0, 20.0, None, "r"),
        ("solvers.step", 12.0, 15.0, 4, "r"),
        ("assembly.assemble_raw", 12.5, 13.0, 5, "r"),
        ("solvers.step", 16.0, 20.0, 4, "r"),
        ("assembly.assemble_raw", 17.0, 18.0, 7, "r"),
    ])


def test_self_times_subtract_direct_children_only():
    t = synthetic_trace()
    assert t.self_times() == [4.0, 1.5, 0.5, 4.0, 1.0, 2.5, 0.5, 3.0, 1.0]
    assert t.self_total("assembly.assemble_raw") == 3.0  # 1.5 + 0.5 + 1.0
    assert t.self_total(spans.SOLVER_SPANS) == 4.0 + 1.0 + 2.5 + 3.0
    assert t.total("assembly.assemble_raw") == 3.5
    assert t.total(spans.STEP) == 7.0
    assert t.count("assembly.assemble_raw", under=spans.STEP) == 2
    assert t.total(spans.TRANSIENT, parent="cli.run_verify") == 0.0
    assert t.first_start((spans.STEADY, spans.TRANSIENT)) == 0.0


def test_nested_repeats_count_once_in_totals():
    t = spans.Trace([("mesh.build", 0.0, 4.0, None, "r"), ("mesh.build", 1.0, 2.0, 0, "r")])
    assert t.total("mesh.build") == 4.0
    assert t.count("mesh.build") == 2


def test_percentile_reports_sample_count():
    assert spans.percentile([], 50) == (0.0, 0)
    assert spans.percentile([7.0], 95) == (7.0, 1)
    assert spans.percentile([4.0, 1.0, 3.0, 2.0], 50) == (2.5, 4)
    value, n = spans.percentile(range(1, 101), 95)
    assert n == 100 and value == pytest.approx(95.05)


def test_step_percentiles_pool_every_traced_run():
    metrics = spans.layer_metrics([synthetic_trace(), synthetic_trace()], [], 1.0)
    assert metrics["solvers.step_samples"]["value"] == 4
    assert metrics["solvers.step_ms_p50"]["value"] == pytest.approx(3500.0)
    assert metrics["solvers.line_search_cutbacks"]["value"] == 3 - 3 - 0


def test_recorder_links_parents_and_reports_missing_names():
    fake = types.ModuleType("fake_layer")
    fake.outer = lambda: fake.inner() + 1
    fake.inner = lambda: 1
    sys.modules["fake_layer"] = fake
    try:
        rec = spans.Recorder("run-0")
        rec.install([("fake_layer", "outer", "a.outer", None),
                     ("fake_layer", "inner", "a.inner", None),
                     ("fake_layer", "gone", "a.gone", None)])
        assert fake.outer() == 2
    finally:
        del sys.modules["fake_layer"]
    assert rec.missing == ["fake_layer.gone"]
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [("a.outer", None, "run-0"), ("a.inner", 0, "run-0")]
    assert all(s[1] <= s[2] for s in rec.spans)


def test_removed_layer_reports_null_with_reason():
    metrics = spans.layer_metrics([synthetic_trace()], ["vasctherm.solvers.assemble_raw"], 1.0)
    assert metrics["assembly.calls"]["value"] is None
    assert "vasctherm.solvers.assemble_raw" in metrics["assembly.calls"]["reason"]
    assert metrics["solvers.line_search_cutbacks"]["value"] is None
    assert metrics["solvers.factorizations"]["value"] == 1


def test_metric_names_and_benchmark_json_match_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == [(k, u, b) for k, (u, b) in END_TO_END.items()]
    assert layers == [(m.name, m.unit, m.better) for m in spans.LAYER_METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    names = [n for n, _, _ in e2e + layers] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    for metric in spans.LAYER_METRICS:
        assert set(metric.workloads) <= set(WORKLOADS) and metric.moves


SMOKE = Scenario("smoke_p1", n=4, order=1, steps=3, why="tiny scenario for the self-tests")
TIME_LIMIT_S = 120.0


@pytest.fixture(scope="module")
def smoke_reference():
    workdir = os.path.join(ROOT, OUT_DIR, "selftest-reference")
    shutil.rmtree(workdir, ignore_errors=True)
    _, key, values = observe(SMOKE, SMOKE.inputs(0), workdir)
    return key, values


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_without_failures(smoke_reference, trace):
    key, values = smoke_reference
    result = run_workload("smoke_p1", SMOKE, 0, 0.0, trace, {"smoke_p1": {key: values}}, ROOT,
                          TIME_LIMIT_S)
    assert result["failed"] == 0 and result["attempted"] == (2 if trace else 1)
    metrics = result["per_layer"] if trace else result["end_to_end"]
    expected = [m.name for m in spans.LAYER_METRICS] if trace else list(END_TO_END)
    assert list(metrics) == expected
    for name, metric in metrics.items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    if trace:
        assert metrics["solvers.step_samples"]["value"] == 3
        assert metrics["assembly.calls"]["value"] > 0
    else:
        assert all(metrics[k]["value"] > 0 for k in END_TO_END)


def test_wrong_reference_counts_as_failure(smoke_reference):
    key, values = smoke_reference
    wrong = dict(values, final_mst=values["final_mst"] + 1e-3)
    result = run_workload("smoke_p1", SMOKE, 0, 0.0, False, {"smoke_p1": {key: wrong}}, ROOT,
                          TIME_LIMIT_S)
    assert result["failed"] == result["attempted"] == 1
    assert "final_mst" in result["children"][0]["problems"][0]
