"""Tests for the experiment engine: specs, runs, and run reports."""

import json

import pytest

from repro.engine import (
    REPORT_SCHEMA,
    SWEEP_SCHEMA,
    Engine,
    ExperimentSpec,
    RunReport,
    SweepReport,
    normalize_mode,
    preset_machine,
)
from repro.apps.xpic import Mode, XpicConfig


# -- ExperimentSpec ---------------------------------------------------------

def test_spec_defaults_and_mode_normalization():
    spec = ExperimentSpec(mode="cb")
    assert spec.mode == "C+B"
    assert ExperimentSpec(mode="Cluster").mode == "Cluster"
    assert ExperimentSpec(mode="booster").mode == "Booster"
    assert ExperimentSpec(app="seismic", mode="split").mode == "Split"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"preset": "nonexistent"},
        {"app": "weather"},
        {"mode": "hybrid"},
        {"steps": -1},
        {"nodes_per_solver": 0},
        {"app": "seismic", "mode": "C+B"},
    ],
)
def test_spec_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ExperimentSpec(**kwargs)


def test_normalize_mode_aliases():
    assert normalize_mode("c+b") is Mode.CB
    assert normalize_mode(Mode.CLUSTER) is Mode.CLUSTER
    assert normalize_mode("Booster") is Mode.BOOSTER
    with pytest.raises(ValueError):
        normalize_mode("gpu")


def test_spec_dict_round_trip_with_config():
    cfg = XpicConfig(nx=32, ny=32, steps=7)
    spec = ExperimentSpec(
        mode="cb",
        steps=7,
        config=cfg,
        machine_overrides={"cluster_nodes": 2, "booster_nodes": 2},
    )
    back = ExperimentSpec.from_dict(spec.to_dict())
    assert back == spec
    assert back.config == cfg


def test_spec_from_dict_drops_the_1_9_backend_key():
    spec = ExperimentSpec(mode="cb", steps=7)
    for value in (None, "heap", "calendar"):
        legacy = dict(spec.to_dict(), sim_backend=value)
        assert ExperimentSpec.from_dict(legacy) == spec
    assert "sim_backend" not in spec.to_dict()
    # any other unknown key still fails loudly
    with pytest.raises(TypeError):
        ExperimentSpec.from_dict(dict(spec.to_dict(), sim_wheel=None))


def test_preset_machine_builds_through_spec_path():
    m = preset_machine(cluster_nodes=2, booster_nodes=2)
    assert len(m.cluster) == 2 and len(m.booster) == 2
    with pytest.raises(ValueError):
        preset_machine("nonexistent")


def test_build_machine_applies_overrides():
    spec = ExperimentSpec(machine_overrides={"cluster_nodes": 3})
    assert len(Engine().build_machine(spec).cluster) == 3


# -- engine runs ------------------------------------------------------------

@pytest.fixture(scope="module")
def cb_report():
    """One traced 5-step C+B run shared by the inspection tests."""
    return Engine().run(ExperimentSpec(mode="cb", steps=5, trace=True))


def test_cb_run_reports_all_layers(cb_report):
    r = cb_report
    # app result
    assert r.total_runtime > 0
    assert r.fields_time > 0 and r.particles_time > 0
    # simulator counters
    assert r.sim["events_processed"] > 0
    assert r.sim["fast_wakeups"] > 0
    assert r.sim["sim_time_s"] >= r.total_runtime
    # fabric: the C<->B exchange crossed real links
    assert r.network["total_bytes"] > 0
    assert r.network["links"], "expected per-link traffic"
    for stats in r.network["links"].values():
        assert stats["bytes"] > 0 and stats["messages"] > 0
    # MPI: the spawn inter-communicator carried the exchange
    inter = r.comm_stats("world<->xpic-field-solver")
    assert inter["p2p_messages"] > 0 and inter["p2p_bytes"] > 0
    # traced phases rolled up per actor
    assert r.phases["CN0"]["fields"] > 0
    assert r.phases["BN0"]["particles"] > 0


def test_run_report_json_round_trip(cb_report):
    text = cb_report.to_json()
    back = RunReport.from_json(text)
    assert back.to_dict() == cb_report.to_dict()
    d = json.loads(text)
    assert d["schema"] == REPORT_SCHEMA
    assert set(d) == {
        "schema", "spec", "result", "sim", "network", "mpi",
        "phases", "intervals", "resiliency", "malleability",
    }


def test_run_report_save_load(tmp_path, cb_report):
    path = tmp_path / "report.json"
    cb_report.save(path)
    loaded = RunReport.load(path)
    assert loaded.total_runtime == cb_report.total_runtime
    assert loaded.network == cb_report.network


def test_chrome_trace_export(tmp_path, cb_report):
    events = cb_report.to_chrome_trace()
    assert events, "expected trace events"
    phs = {e["ph"] for e in events}
    assert {"M", "X", "C"} <= phs
    for e in events:
        if e["ph"] == "X":
            assert e["dur"] >= 0 and e["ts"] >= 0
    path = tmp_path / "run.trace.json"
    cb_report.save_chrome_trace(path)
    assert json.loads(path.read_text()) == events


def test_deterministic_across_identical_runs():
    spec = ExperimentSpec(mode="cb", steps=5, trace=True, seed=7)
    a = Engine().run(spec)
    b = Engine().run(spec)
    # everything but host-side timing must match exactly
    for key in ("spec", "result", "network", "mpi", "phases", "intervals"):
        assert a.to_dict()[key] == b.to_dict()[key], key
    for key in ("events_processed", "fast_wakeups", "sim_time_s"):
        assert a.sim[key] == b.sim[key], key


def test_seed_changes_the_workload():
    base = Engine().run(ExperimentSpec(mode="cb", steps=5))
    other = Engine().run(ExperimentSpec(mode="cb", steps=5, seed=99))
    assert base.spec["seed"] != other.spec["seed"]


def test_custom_config_wins_over_steps():
    cfg = XpicConfig(nx=32, ny=32, steps=3)
    r = Engine().run(ExperimentSpec(mode="cluster", steps=100, config=cfg))
    assert r.result["steps"] == 3


def test_seismic_run_through_engine():
    r = Engine().run(ExperimentSpec(app="seismic", mode="Booster", steps=20))
    assert r.result["app"] == "seismic"
    assert r.total_runtime > 0
    # monolithic single-node run: no fabric traffic, but the sim ran
    assert r.sim["events_processed"] > 0


def test_seismic_split_reports_fabric_traffic():
    r = Engine().run(ExperimentSpec(app="seismic", mode="Split", steps=5))
    assert r.network["total_bytes"] > 0
    assert r.comm_overhead_fraction > 0


def test_untraced_run_has_no_intervals():
    r = Engine().run(ExperimentSpec(mode="cb", steps=3))
    assert r.intervals == []
    assert r.phases == {}
    # the chrome trace degrades gracefully to counters only
    assert all(e["ph"] in ("M", "C") for e in r.to_chrome_trace())


# -- run_many / SweepReport -------------------------------------------------

SWEEP_SPECS = [ExperimentSpec(mode="cb", steps=s) for s in (2, 3, 4)]


def test_run_many_parallel_matches_serial_in_spec_order():
    serial = Engine().run_many(SWEEP_SPECS, workers=1)
    parallel = Engine().run_many(SWEEP_SPECS, workers=2)
    assert serial.workers == 1 and parallel.workers == 2
    # spec order regardless of worker completion order
    assert [r.result["steps"] for r in parallel.reports] == [2, 3, 4]
    # parallel payloads are bit-identical to a serial sweep
    for a, b in zip(serial.reports, parallel.reports):
        assert a.result == b.result
        assert a.network == b.network
        assert a.mpi == b.mpi
    # pooled reports lose the in-memory handle but keep attribute access
    assert parallel.reports[0].run_result is None
    assert serial.reports[0].run_result is not None
    for sweep in (serial, parallel):
        assert sweep.reports[0].result_view.total_runtime > 0


def test_run_many_serial_fallback_for_unpicklable_spec():
    class _N(int):  # local class: runnable, but its pickle fails
        pass

    specs = [
        ExperimentSpec(mode="cb", steps=2, machine_overrides={"cluster_nodes": _N(1)}),
        ExperimentSpec(mode="cb", steps=2),
    ]
    sweep = Engine().run_many(specs, workers=4)
    assert sweep.workers == 1  # fell back to serial
    assert all(r.run_result is not None for r in sweep.reports)
    assert all(r.total_runtime > 0 for r in sweep.reports)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_many_worker_failure_surfaces_original_exception(workers):
    specs = [
        ExperimentSpec(mode="cb", steps=2),
        ExperimentSpec(mode="cb", steps=2, machine_overrides={"bogus_kw": 1}),
    ]
    with pytest.raises(TypeError, match="bogus_kw"):
        Engine().run_many(specs, workers=workers)


def test_run_many_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        Engine().run_many(SWEEP_SPECS, workers=0)


def test_sweep_report_merged_metrics_and_json_round_trip(tmp_path):
    sweep = Engine().run_many(SWEEP_SPECS, workers=1)
    merged = sweep.merged_metrics()
    assert merged["runs"] == len(sweep) == 3
    assert merged["sim_events"] == sum(r.sim["events_processed"] for r in sweep)
    assert merged["network_bytes"] == sum(r.network["total_bytes"] for r in sweep)
    assert merged["fast_transfers"] > 0
    assert merged["sim_time_s"] > 0
    path = tmp_path / "sweep.json"
    sweep.save(path)
    loaded = SweepReport.load(path)
    assert loaded.schema == SWEEP_SCHEMA
    assert loaded.workers == sweep.workers
    assert loaded.to_dict() == sweep.to_dict()
    assert [r.result for r in loaded] == sweep.results
    with pytest.raises(ValueError):
        SweepReport.from_dict({"schema": SWEEP_SCHEMA})
