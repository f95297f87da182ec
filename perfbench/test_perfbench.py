"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the repository root."""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_run_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(result["metrics"]) == {w["name"] for w in SPEC["workloads"]}
    for metrics in result["metrics"].values():
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        for m in SPEC["end_to_end"]:
            assert metrics[m["name"]]["value"] > 0, m["name"]


def test_every_per_layer_metric_names_what_it_should_move():
    predictions = json.loads((HERE / "predictions.json").read_text())
    names = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(predictions) == {m["name"] for m in SPEC["per_layer"]}
    for pred in predictions.values():
        assert set(pred["on"]) <= names
        assert set(pred["moves"]) <= end_to_end


def test_tail_keeps_ten_ops_beyond_it_or_a_tenth_of_them():
    assert run.tail([float(k) for k in range(1, 201)]) == (190.0, 190)
    assert run.tail([float(k) for k in range(1, 101)]) == (90.0, 90)
    assert run.tail([float(k) for k in range(1, 16)]) == (13.0, 13)
    assert run.tail([5.0, 1.0, 4.0, 2.0, 3.0]) == (4.0, 4)
    assert run.tail([3.0]) == (3.0, 1)


def test_self_times_flag_children_that_overrun_their_parent():
    spans = [tracing.Span(0, "op", 0.0, 1.0, None, 1),
             tracing.Span(1, "a", 0.1, 0.5, 0, 1),
             tracing.Span(2, "b", 0.5, 0.9, 0, 1)]
    own, problems = tracing.self_times(spans)
    assert problems == []
    assert abs(own[0] - 0.2) < 1e-12
    spans[2] = tracing.Span(2, "b", 0.5, 1.2, 0, 1)
    _, problems = tracing.self_times(spans)
    assert problems
