"""Tests of the benchmark itself, at tiny sizes.

Run with: python3 -m pytest benchmark/test_benchmark.py
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def private_work_dir(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORK", tmp_path / "work")


def tiny(name: str) -> workloads.Workload:
    return {
        "log_scale": lambda: workloads.LogScale(multiplier=2),
        "verify_corpus": lambda: workloads.VerifyCorpus(corpus=3),
        "cold_start": lambda: workloads.ColdStart(processes=1),
    }[name]()


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    predictions = json.loads((HERE / "predictions.json").read_text())["predictions"]
    per_layer = set(run.per_layer_units())
    for row in predictions:
        assert set(row["layer_metrics"]) <= per_layer
        for workload, metrics in row["moves"].items():
            assert workload in run.WORKLOAD_NAMES
            assert set(metrics) <= set(run.END_TO_END)
        assert set(row["no_change"]) <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_emits_every_end_to_end_metric(name):
    result, metrics, extra = run.end_to_end(tiny(name), seed=3, seconds=0)
    assert result.failures == []
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values()), metrics
    if name == "cold_start":
        assert extra["import_ms"] > 0 and extra["cli_discover_ms"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_emits_every_per_layer_metric(name):
    result, metrics, extra, spans = run.traced(tiny(name), seed=3)
    assert result.failures == []
    assert set(metrics) == set(run.per_layer_units())
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert math.isclose(layers + metrics["trace.unattributed_s"], metrics["trace.op_s"], rel_tol=1e-9)
    assert spans and all(s["op"] is not None for s in spans)
    if name == "cold_start":
        assert metrics["cli.import_bpa_ms"] > metrics["cli.import_networkx_ms"] > 0
        assert metrics["cli.self_s"] > 0


@pytest.mark.parametrize(
    "name, reference, corrupt",
    [
        ("log_scale", "CLAIMS_EXPECTED", lambda ref: {**ref, ("RBP", "RP", "AP"): 2}),
        ("log_scale", "ORDERS_EXPECTED", lambda ref: {**ref, ("RQ", "DQ"): 3}),
        ("cold_start", "CLAIMS_TREE", lambda ref: ref.replace("RP", "ZZ")),
    ],
)
def test_a_corrupted_reference_counts_as_failure(monkeypatch, name, reference, corrupt):
    workload = tiny(name)
    workload.prepare(1)
    monkeypatch.setattr(workloads, reference, corrupt(getattr(workloads, reference)))
    result = run.Run()
    result.one_pass(workload)
    assert len(result.failures) == len(result.latencies) > 0
    assert "CheckFailed" in result.failures[0]


def test_an_op_that_raises_is_counted(monkeypatch):
    workload = tiny("verify_corpus")
    workload.prepare(1)
    monkeypatch.setattr(workloads.pipeline, "verify", lambda n, seed: 1 / 0)
    result = run.Run()
    result.one_pass(workload)
    assert len(result.failures) == len(result.latencies) == 3
    assert "ZeroDivisionError" in result.failures[0]


def test_nested_calls_of_one_function_share_a_span():
    from bpa import trees

    tree = trees.parse_tree("seq(a,seq(b,xor(c,xor(d,e))),and(f,g))")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_op(trees.normal_form, tree)
        tracer.run_op(trees.isomorphic, tree, tree)
    finally:
        tracer.uninstall()
    assert trees.normal_form.__name__ == "normal_form"
    assert not hasattr(trees.normal_form, "__wrapped__")
    calls = tracer.calls()
    assert calls["trees.normal_form"] == 1  # the recursion opened no spans
    assert calls["op"] == 2
    selfs = tracer.self_times()
    assert math.isclose(sum(selfs.values()), tracer.op_time(), rel_tol=1e-9)
    assert all(v >= 0 for v in selfs.values())


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *json.loads((ROOT / "BENCHMARK.json").read_text())["command"][1:],
         "--workload", "log_scale", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
