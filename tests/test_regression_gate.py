"""The microbenchmark regression gate (``benchmarks/check_regression.py``)."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(gate, tmp_path, baseline: dict, measured: dict, *extra):
    base = tmp_path / "baseline.json"
    base.write_text(json.dumps(baseline))
    result = tmp_path / "result.json"
    result.write_text(json.dumps(measured))
    return gate.main([str(result), "--baseline", str(base), *extra])


def test_per_metric_tolerance_overrides_the_shared_one(gate, tmp_path, capsys):
    baseline = {
        "_tolerances": {"speedup": 0.02},
        "speedup": 1.7,
        "rate": 1000,
    }
    # 1.65 is inside the shared 30% but outside the metric's own 2%
    assert _run(gate, tmp_path, baseline, {"speedup": 1.65, "rate": 800}) == 1
    out = capsys.readouterr().out
    assert "REGRESSED speedup" in out
    assert "1.65 (floor 1.70, minimum 1.67, tolerance 2%)" in out
    assert "800 (floor 1,000, minimum 700, tolerance 30%)" in out
    assert _run(gate, tmp_path, baseline, {"speedup": 1.68, "rate": 800}) == 0


def test_shared_tolerance_flag_leaves_listed_metrics_alone(gate, tmp_path):
    baseline = {"_tolerances": {"speedup": 0.02}, "speedup": 1.7}
    loose = ("--tolerance", "0.5")
    assert _run(gate, tmp_path, baseline, {"speedup": 1.6}, *loose) == 1


def test_checked_in_baseline_holds_the_recovery_bar(gate):
    doc = json.loads((ROOT / "benchmarks" / "baseline.json").read_text())
    floor = gate.flatten(doc)["malleable_recover.post_fault_speedup"]
    tolerance = doc["_tolerances"]["malleable_recover.post_fault_speedup"]
    assert floor * (1 - tolerance) >= 1.2  # the benchmark's acceptance bar
    assert "messages_per_sec" in doc
