"""The tracer sees every call site: exact span counts for one suite pass."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import weakconv
import weakconv.cli  # noqa: F401
from layers import METRICS
from tracing import WRAPPED, Tracer
from worker import run_pass

ROOT = Path(__file__).resolve().parents[2]

# one suite-agreement pass at workload seed 0
SEED0_PASS_COUNTS = {
    "measure.bl_distance": 1280,
    "convergence.integral_gap": 34640,
    "funcs.validate_metadata": 1340,
    "measure.prefix": 100,
    "convergence.generate_battery": 80,
    "convergence.certify": 80,
    "convergence.equivalence_report": 20,
    "simplex.solve_max": 1280,
    "suite.bundled_suite": 1,
}


@pytest.fixture(scope="module")
def suite_pass(tmp_path_factory):
    tracer = Tracer()
    record = run_pass(weakconv, "suite-agreement", 0, 0, tmp_path_factory.mktemp("pass"),
                      tracer)
    return tracer, record


def test_seed0_pass_counts_are_exact(suite_pass):
    tracer, record = suite_pass
    counts = Counter(tracer.names[i] for i in tracer.name_ids)
    assert {name: counts[name] for name in SEED0_PASS_COUNTS} == SEED0_PASS_COUNTS
    assert len(record["ops"]) == 20


def test_spans_nest_and_carry_op_ids(suite_pass):
    tracer, _ = suite_pass
    ident = {name: i for i, name in enumerate(tracer.names)}
    for i, (name_id, parent) in enumerate(zip(tracer.name_ids, tracer.parents)):
        if name_id == ident["convergence.integral_gap"]:
            assert parent >= 0 and tracer.starts[parent] <= tracer.starts[i]
            assert tracer.ends[i] <= tracer.ends[parent]
            assert 0 <= tracer.ops[i] < 20
    assert tracer.ops[tracer.name_ids.index(ident["suite.bundled_suite"])] == -1


def test_pass_completes_when_a_wrapped_layer_is_gone(monkeypatch, tmp_path):
    """A checkout without ``simplex`` (or any wrapped name) still yields a traced pass."""
    monkeypatch.delitem(sys.modules, "weakconv.simplex")
    monkeypatch.delattr(weakconv.cli, "cmd_bl")
    tracer = Tracer()
    record = run_pass(weakconv, "suite-agreement", 0, 0, tmp_path / "pass", tracer)
    assert tracer.absent == ["simplex.solve_max", "cli.cmd_bl"]
    counts = Counter(tracer.names[i] for i in tracer.name_ids)
    assert counts["simplex.solve_max"] == 0
    assert counts["measure.bl_distance"] == SEED0_PASS_COUNTS["measure.bl_distance"]
    assert len(record["ops"]) == 20 and all(op["error"] is None for op in record["ops"])
    assert record["trace"]["absent"] == tracer.absent


def test_uninstall_restores_every_binding(suite_pass):
    for layer, attr in WRAPPED:
        owner = getattr(weakconv, layer)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), f"{layer}.{attr}"
    assert not hasattr(weakconv.bl_distance, "__wrapped__")
    assert not hasattr(weakconv.convergence.bl_distance, "__wrapped__")


def test_benchmark_json_declares_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert declared == dict(METRICS)
    assert [m["name"] for m in doc["end_to_end"]] == [
        "ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"]
