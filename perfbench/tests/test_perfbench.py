"""Tests of the benchmark itself: span arithmetic, the tail rule, a tiny smoke run.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_hand_built_tree():
    # op [0,10] > a [1,4] > b [2,3];  op > c [5,9] > d [6,7], e [7.5,8]
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 7.5])
    end = np.array([10.0, 4.0, 3.0, 9.0, 7.0, 8.0])
    parent = np.array([-1, 0, 1, 0, 3, 3])
    own = spans.self_times(start, end, parent)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 2.5, 1.0, 0.5])
    assert own[1:].sum() <= end[0] - start[0]


def _span(tracer, name, op, parent, start, end, ok=True):
    tracer.name.append(tracer.ids[name])
    tracer.op.append(op)
    tracer.parent.append(parent)
    tracer.ok.append(ok)
    tracer.start.append(start)
    tracer.end.append(end)
    return len(tracer.start) - 1


def test_layer_metrics_per_op_counts_self_time_and_ok_ratio():
    tracer = spans.Tracer()
    for op, t in ((0, 0.0), (1, 10.0)):
        root = _span(tracer, spans.OP_SPAN, op, -1, t, t + 4.0)
        tf = _span(tracer, "bounds.bound_tilde_free", op, root, t + 1.0, t + 3.0, ok=op == 0)
        _span(tracer, "bounds.hat_partition", op, tf, t + 1.5, t + 2.0, ok=op == 0)
    tracer.bytes_read = 300
    metrics = spans.layer_metrics(tracer, ops_per_s=0.1)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["bounds.bound_tilde_free.calls"] == 1.0
    assert value["bounds.bound_tilde_free.self_s"] == pytest.approx(1.5)
    assert value["bounds.hat_partition.self_s"] == pytest.approx(0.5)
    assert value["bounds.bound_tilde_free.ok_ratio"] == 0.5
    assert value["graphs.nullspace_bound_known_base.ok_ratio"] == 1.0  # never called
    assert value["graphs.coupling.calls"] == 0.0
    assert value["fileio.bytes_read"] == 150.0
    assert value["trace.ops_per_s"] == pytest.approx(0.1)
    assert value["trace.op_wall_s"] == pytest.approx(4.0)
    assert value["trace.layers_self_s"] == pytest.approx(2.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    import specbound
    from specbound import bounds, experiments, graphs

    originals = (bounds.bound_full_main, graphs.WeightedGraph.adjacency)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert experiments.bound_full_main is bounds.bound_full_main
        assert specbound.bound_full_main is bounds.bound_full_main
        assert bounds.bound_full_main is not originals[0]
        assert graphs.WeightedGraph.adjacency is not originals[1]
        graphs.WeightedGraph(2, ((0, 1, 1.0),)).adjacency()  # outside an op
        assert len(tracer.start) == 0
        with tracer.operation(0):
            graphs.WeightedGraph(2, ((0, 1, 1.0),)).adjacency()
        assert [tracer.names[k] for k in tracer.name] == [
            "op", "graphs.WeightedGraph.init", "graphs.WeightedGraph.adjacency"
        ]
    finally:
        tracer.uninstall()
    assert (bounds.bound_full_main, graphs.WeightedGraph.adjacency) == originals
    assert experiments.bound_full_main is originals[0]


@pytest.mark.parametrize(
    "count, expected",
    [
        (1, None),
        (39, None),
        (40, (75.0, 30)),
        (199, (90.0, 180)),
        (200, (95.0, 190)),
        (1000, (99.0, 990)),
        (9999, (99.0, 9900)),
        (10000, (99.9, 9990)),
    ],
)
def test_latency_tail_rule(count, expected):
    samples = [float(k) for k in range(1, count + 1)][::-1]
    tail = timing.latency_tail(samples)
    if expected is None:
        assert "value" not in tail and "omitted" in tail
        return
    percentile, rank = expected
    assert tail == {"value": float(rank), "percentile": percentile, "samples": count}
    assert count - rank >= timing.TAIL_MIN_BEYOND


def test_speed_sampler_ticks_while_entered_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with timing.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert sampler.slowdown() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_compare_uses_relative_tolerance():
    assert workloads.compare({"x": 1.0, "k": [1, 2]}, {"x": 1.0 + 1e-12, "k": [1, 2]}) == []
    assert workloads.compare({"x": 1.0}, {"x": 1.0 + 1e-7})
    assert workloads.compare({"k": [1, 2]}, {"k": [1, 3]})


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_emits_every_metric(workload, trace):
    out = run.run_once(workload, seed=3, seconds=0.2, trace=trace, scale="tiny")
    result, record = out["result"], out["record"]
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
    expected = spans.PER_LAYER if trace else run.END_TO_END
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == list(expected)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["trace.layers_self_s"] <= values["trace.op_wall_s"]
    else:
        assert all(v > 0 for v in values.values())
    assert record["env"]["blas_threads_in_use"] in (1, None)
    assert set(record["env"]["thread_env"].values()) == {"1"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-n10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
