"""End-to-end tests of the resilient xPic supervisor and engine wiring.

The headline scenarios of the fault-injection stack: a partitioned C+B
run losing a Booster node mid-flight and completing through an SCR
restart, graceful degradation to a Cluster-only run when the Booster
partition stays down, the zero-fault guarantee (an empty plan perturbs
nothing), and the Daly model validated against the simulator.
"""

import statistics
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.apps.xpic import Mode, XpicConfig, run_experiment
from repro.apps.xpic.supervisor import HealOrDegrade, run_supervised_experiment
from repro.engine import Engine, ExperimentSpec
from repro.hardware import build_deep_er_prototype
from repro.partition import Partition
from repro.resiliency import FaultEvent, FaultPlan, expected_runtime

CFG = XpicConfig(steps=120)


def run_static(machine, allow_reboot=True, **kwargs):
    """A C+B 1+1 run under the static heal-or-degrade policy."""
    rr, res, mal = run_supervised_experiment(
        machine, CFG, Partition(1, 1),
        recovery=HealOrDegrade(allow_reboot), **kwargs
    )
    assert mal == {}
    return rr, res


def _plain_runtime():
    m = build_deep_er_prototype()
    return run_experiment(m, Mode.CB, CFG).total_runtime


# ------------------------------------------------------- crash + restart
def test_booster_crash_recovers_via_scr_restart():
    base = _plain_runtime()
    plan = FaultPlan(
        [FaultEvent(time_s=0.6 * base, kind="node_crash", target="bn00")]
    )
    m = build_deep_er_prototype()
    rr, res = run_static(m, fault_plan=plan, ckpt_interval_s=0.8)
    assert res["restarts"] >= 1
    assert res["lost_work_s"] > 0
    assert res["restored_steps"] and res["restored_steps"][0] > 0
    assert res["checkpoints"]["buddy"] > 0
    assert res["node_replacements"] >= 1
    assert not res["degraded_mode"]
    # the run completed all its steps, and the crash + rework shows up
    # in the wall clock
    assert rr.steps == CFG.steps
    assert rr.total_runtime > base


def test_crash_without_checkpoints_restarts_from_scratch():
    plan = FaultPlan(
        [FaultEvent(time_s=0.5, kind="node_crash", target="bn00")]
    )
    m = build_deep_er_prototype()
    rr, res = run_static(m, fault_plan=plan)
    # no cadence configured: nothing to restart from, the whole prefix
    # is lost work
    assert res["restarts"] == 1
    assert res["restored_steps"] == []
    assert res["lost_work_s"] == pytest.approx(0.5, abs=0.2)
    assert rr.steps == CFG.steps


# ------------------------------------------------------- degradation
def test_booster_loss_degrades_to_cluster_run():
    m = build_deep_er_prototype()
    events = [
        FaultEvent(time_s=1.0, kind="node_crash", target=n.node_id)
        for n in m.booster
    ]
    rr, res = run_static(
        m,
        fault_plan=FaultPlan(events),
        ckpt_interval_s=0.8,
        allow_reboot=False,
    )
    assert res["degraded_mode"]
    assert res["restarts"] >= 1
    assert rr.steps == CFG.steps


# ------------------------------------------------------- zero-fault path
def test_zero_fault_plan_is_bit_identical_to_plain_run():
    m_plain = build_deep_er_prototype()
    plain = run_experiment(m_plain, Mode.CB, CFG)
    m_chaos = build_deep_er_prototype()
    rr, res = run_static(m_chaos, fault_plan=FaultPlan())
    assert rr.total_runtime == plain.total_runtime
    assert rr.fields_time == plain.fields_time
    assert rr.particles_time == plain.particles_time
    assert m_chaos.sim.now == m_plain.sim.now
    assert res["restarts"] == 0 and res["epochs"] == 1
    assert res["faults"]["injected"]["node_crash"] == 0


def test_engine_zero_event_plan_uses_plain_driver():
    plan = FaultPlan()
    spec = ExperimentSpec(mode="cb", steps=10, fault_plan=plan)
    assert not spec.wants_resiliency
    report = Engine().run(spec)
    assert report.resiliency == {}
    base = Engine().run(ExperimentSpec(mode="cb", steps=10))
    assert report.result == base.result


# ------------------------------------------------------- engine + sweeps
@pytest.fixture(scope="module")
def chaos_spec():
    """A small engine-level chaos spec shared by the sweep tests."""
    plan = FaultPlan(
        [FaultEvent(time_s=1.0, kind="node_crash", target="bn00")]
    )
    return ExperimentSpec(
        mode="cb", steps=60, fault_plan=plan, ckpt_interval_s=0.5
    )


def test_engine_reports_resiliency_section(chaos_spec):
    report = Engine().run(chaos_spec)
    res = report.resiliency
    assert res["enabled"]
    assert res["restarts"] >= 1
    assert res["lost_work_s"] > 0
    assert report.mpi["transport"]["failures"] >= 0
    # the section round-trips through JSON with the rest of the report
    from repro.engine import RunReport

    back = RunReport.from_json(report.to_json())
    assert back.resiliency == res


HOST_TIMING_KEYS = ("wall_time_s", "host_wall_s", "events_per_sec")


def _comparable(report):
    d = report.to_dict()
    for k in HOST_TIMING_KEYS:
        d["sim"].pop(k, None)
    return d


def test_chaos_run_deterministic_serial_and_pooled(chaos_spec):
    serial = Engine().run_many([chaos_spec, chaos_spec], workers=1)
    pooled = Engine().run_many([chaos_spec, chaos_spec], workers=2)
    dicts = [
        _comparable(r) for r in (*serial.reports, *pooled.reports)
    ]
    assert dicts[0] == dicts[1] == dicts[2] == dicts[3]


def test_run_many_broken_pool_falls_back_to_serial(chaos_spec, monkeypatch):
    import concurrent.futures

    class _DyingPool:
        def __init__(self, *a, **kw):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, *a, **kw):
            raise BrokenProcessPool("worker died")

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _DyingPool
    )
    specs = [ExperimentSpec(mode="cb", steps=2), ExperimentSpec(mode="cb", steps=3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep = Engine().run_many(specs, workers=2)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    assert sweep.workers == 1
    assert [r.result["steps"] for r in sweep.reports] == [2, 3]


# ------------------------------------------------------- Daly validation
def test_poisson_failures_match_daly_expected_runtime():
    """Mean wall time over 10 seeded MTBF runs tracks the Daly model."""
    work = _plain_runtime()
    mtbf = 5.0
    walls, intervals, ccosts, rcosts = [], [], [], []
    for seed in range(10):
        m = build_deep_er_prototype()
        rr, res = run_static(m, mtbf_s=mtbf, fault_seed=seed)
        walls.append(rr.total_runtime)
        intervals.append(res["ckpt_interval_s"])
        if res["checkpoint_cost_s"]:
            ccosts.append(res["checkpoint_cost_s"])
        if res["restart_cost_s"]:
            rcosts.append(res["restart_cost_s"])
    c = statistics.mean(ccosts)
    r = statistics.mean(rcosts) if rcosts else c
    model = expected_runtime(
        work, statistics.mean(intervals), c, r, mtbf
    )
    mean_wall = statistics.mean(walls)
    assert mean_wall == pytest.approx(model, rel=0.15)
