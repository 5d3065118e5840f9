"""Unit tests for the benchmark's own arithmetic and metric definitions.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spec import PER_LAYER_TARGETS  # noqa: E402
from tracing import Tracer, layer_metrics, patched, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_use_self_time_and_skip_setup_spans():
    tracer = Tracer()
    tracer.spans = [
        ["persist.load", 0.0, 0.002, -1, -1],
        ["mlp_fwd", 0.0, 0.5, -1, -1],  # set-up warm-up: not counted
        ["estimate", 1.0, 2.0, -1, 1],
        ["log_weights", 1.1, 1.9, 2, 1],
        ["verlet", 1.2, 1.8, 3, 1],
        ["coeff", 1.3, 1.5, 4, 1],
        ["mlp_fwd", 1.3, 1.4, 5, 1],
    ]
    tracer.notes[6] = {"rows": 1000}
    out = layer_metrics(tracer, units=1)
    assert out["persist.load_ms"] == pytest.approx(2.0)
    assert out["mlp_fwd.calls"] == 1 and out["mlp_fwd.rows"] == 1000
    assert out["mlp_fwd.ms"] == pytest.approx(100.0)
    assert out["mlp_fwd.ns_per_row"] == pytest.approx(1e5)
    assert out["estimate.self_ms"] == pytest.approx(200.0)
    assert out["log_weights.self_ms"] == pytest.approx(200.0)
    assert out["verlet.self_ms"] == pytest.approx(400.0)
    assert layer_metrics(tracer, units=2)["verlet.self_ms"] == pytest.approx(200.0)


def test_patched_records_nested_spans_and_restores_originals():
    from verletflow import autodiff, importance, training
    from verletflow.autodiff import Mlp

    before = (Mlp.__dict__["__call__"], autodiff.grad, training.verlet_integrate,
              importance.integrate)
    tracer = Tracer()
    tracer.op = 0
    net = Mlp([3, 4, 2], seed=0)
    with patched(tracer):
        net(__import__("numpy").zeros((5, 3)))
    after = (Mlp.__dict__["__call__"], autodiff.grad, training.verlet_integrate,
             importance.integrate)
    assert after == before
    assert [s[0] for s in tracer.spans] == ["mlp_fwd"]
    assert tracer.notes[0]["rows"] == 5


def test_metric_names_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and n[0].isalnum() and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_per_layer_metrics_match_what_the_run_emits():
    emitted = set(layer_metrics(Tracer(), 1)) | {
        "training.skipped_batches", "trace.overhead_pct"}
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared == emitted
    assert declared == set(PER_LAYER_TARGETS)


def test_workloads_match_the_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))  # 100 samples: p90 leaves exactly ten beyond
    pct, value = run.tail(values)
    assert pct == 90.0 and value == pytest.approx(90.1)
    assert run.tail(list(range(1, 1001)))[0] == 99.0
    assert run.tail([1.0, 2.0]) == (None, 2.0)


def test_fallback_chunks_count_only_batched_failures_under_log_weights():
    tracer = Tracer()
    tracer.spans = [
        ["log_weights", 0.0, 1.0, -1, 0],
        ["rk4", 0.1, 0.2, 0, 0],  # batched chunk that raised: a fallback
        ["rk4", 0.3, 0.4, 0, 0],  # per-sample retry that raised: not one
        ["rk4", 0.5, 0.6, 0, 0],  # per-sample retry that succeeded
    ]
    tracer.notes[1] = {"rows": 64, "raised": "IntegrationError"}
    tracer.notes[2] = {"rows": 1, "raised": "IntegrationError"}
    tracer.notes[3] = {"rows": 1, "samples": 1, "field_evals": 400}
    out = layer_metrics(tracer, units=1)
    assert out["fallback_chunks"] == 1
    assert out["field_evals_per_sample"] == 400
