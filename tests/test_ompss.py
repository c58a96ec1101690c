"""Tests of the OmpSs-like dataflow runtime and its resiliency features."""

import numpy as np
import pytest

from repro.hardware import build_deep_er_prototype
from repro.ompss import (
    OmpSsRuntime,
    TaskFailure,
    TaskSpec,
    TaskState,
    build_dependency_graph,
    critical_path_length,
    ready_tasks,
)


def make_runtime(**kw):
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
    defaults = dict(cluster_workers=2, booster_workers=2)
    defaults.update(kw)
    return OmpSsRuntime(machine, **defaults)


# ------------------------------------------------------------------- specs
def test_taskspec_validation():
    with pytest.raises(ValueError):
        TaskSpec("t", lambda: None, duration_s=-1)
    with pytest.raises(ValueError):
        TaskSpec("t", lambda: None, ins=("a",), outs=("a",))


# ---------------------------------------------------------------- depgraph
def make_specs(defs):
    return [
        TaskSpec(name, lambda: None, ins=tuple(i), outs=tuple(o), duration_s=d)
        for name, i, o, d in defs
    ]


def test_raw_dependency():
    a, b = make_specs([("w", [], ["x"], 1.0), ("r", ["x"], [], 1.0)])
    g = build_dependency_graph([a, b])
    assert g.has_edge(a.task_id, b.task_id)
    assert g.edge(a.task_id, b.task_id).kind == "RAW"


def test_waw_and_war_dependencies():
    w1, r, w2 = make_specs(
        [("w1", [], ["x"], 1), ("r", ["x"], [], 1), ("w2", [], ["x"], 1)]
    )
    g = build_dependency_graph([w1, r, w2])
    assert g.edge(w1.task_id, w2.task_id).kind == "WAW"
    assert g.edge(r.task_id, w2.task_id).kind == "WAR"


def test_independent_tasks_have_no_edges():
    a, b = make_specs([("a", [], ["x"], 1), ("b", [], ["y"], 1)])
    g = build_dependency_graph([a, b])
    assert len(g.edges()) == 0
    assert len(ready_tasks(g, set())) == 2


def test_critical_path():
    a, b, c = make_specs(
        [("a", [], ["x"], 2.0), ("b", ["x"], ["y"], 3.0), ("c", [], ["z"], 4.0)]
    )
    g = build_dependency_graph([a, b, c])
    assert critical_path_length(g) == pytest.approx(5.0)


# ----------------------------------------------------------------- runtime
def test_sequential_dataflow_executes_in_order():
    rt = make_runtime()
    rt.set_data("x", 1)

    @rt.task(ins=["x"], outs=["y"], duration_s=1.0)
    def double(x):
        return 2 * x

    @rt.task(ins=["y"], outs=["z"], duration_s=1.0)
    def add_three(y):
        return y + 3

    data = rt.run()
    assert data["z"] == 5
    assert rt.machine.sim.now == pytest.approx(2.0)


def test_independent_tasks_run_concurrently():
    rt = make_runtime(cluster_workers=2)

    @rt.task(outs=["a"], duration_s=2.0)
    def ta():
        return 1

    @rt.task(outs=["b"], duration_s=2.0)
    def tb():
        return 2

    rt.run()
    assert rt.machine.sim.now == pytest.approx(2.0)  # not 4.0


def test_worker_limit_serializes():
    rt = make_runtime(cluster_workers=1)

    @rt.task(outs=["a"], duration_s=2.0)
    def ta():
        return 1

    @rt.task(outs=["b"], duration_s=2.0)
    def tb():
        return 2

    rt.run()
    assert rt.machine.sim.now == pytest.approx(4.0)


def test_real_computation_through_dataflow():
    rt = make_runtime()
    rt.set_data("v", np.arange(10.0))

    @rt.task(ins=["v"], outs=["s"])
    def total(v):
        return float(v.sum())

    assert rt.run()["s"] == 45.0


def test_offload_charges_transfer():
    """An offloaded task moves its input data over the fabric."""
    rt = make_runtime()
    big = np.zeros(2**20)  # 8 MB
    rt.set_data("arr", big)

    @rt.task(ins=["arr"], outs=["r"], target="booster", duration_s=0.0)
    def norm(arr):
        return float(np.sum(arr))

    rt.run()
    assert rt.transfers_bytes == big.nbytes
    assert rt.machine.sim.now > 0  # fabric time charged


def test_offload_result_travels_back_when_read_locally():
    rt = make_runtime()
    rt.set_data("a", np.ones(1000))

    @rt.task(ins=["a"], outs=["b"], target="booster")
    def on_booster(a):
        return a * 2

    @rt.task(ins=["b"], outs=["c"], target="cluster")
    def on_cluster(b):
        return float(b.sum())

    data = rt.run()
    assert data["c"] == 2000.0
    # two transfers: a -> booster, b -> cluster
    assert rt.transfers_bytes == 2 * 8000


def test_data_already_on_module_not_retransferred():
    rt = make_runtime()
    rt.set_data("a", np.ones(1000))

    @rt.task(ins=["a"], outs=["b"], target="booster")
    def t1(a):
        return a + 1

    @rt.task(ins=["b"], outs=["c"], target="booster")
    def t2(b):
        return b + 1

    rt.run()
    assert rt.transfers_bytes == 8000  # only the initial staging of a


def test_kernel_cost_charged_on_target_node():
    from repro.perfmodel import particle_kernel

    rt = make_runtime()
    k = particle_kernel(10**6)

    @rt.task(outs=["x"], target="booster", kernel=k)
    def burn():
        return 1

    rt.run()
    from repro.perfmodel import time_on_node

    expected = time_on_node(rt.machine.booster[0], k)
    assert rt.machine.sim.now == pytest.approx(expected, rel=0.01)


def test_multiple_outputs_tuple_contract():
    rt = make_runtime()

    @rt.task(outs=["a", "b"])
    def two():
        return 1, 2

    data = rt.run()
    assert (data["a"], data["b"]) == (1, 2)

    rt2 = make_runtime()

    @rt2.task(outs=["a", "b"])
    def bad():
        return 1  # wrong arity

    with pytest.raises(ValueError):
        rt2.run()


def test_inout_clause():
    rt = make_runtime()
    rt.set_data("acc", 10)

    @rt.task(inouts=["acc"])
    def bump(acc):
        return acc + 1

    @rt.task(inouts=["acc"])
    def bump2(acc):
        return acc + 1

    assert rt.run()["acc"] == 12


# -------------------------------------------------------------- resiliency
def test_failed_task_retries_with_restored_inputs():
    """Section III-D: inputs saved before start; task restarted on
    failure."""
    rt = make_runtime(max_retries=2)
    rt.set_data("x", 5)
    rt.inject_failure("flaky", times=2)

    @rt.task(name="flaky", ins=["x"], outs=["y"], duration_s=0.5)
    def flaky(x):
        return x * 10

    data = rt.run()
    spec = next(t for t in rt.tasks if t.name == "flaky")
    assert spec.attempts == 3
    assert data["y"] == 50


def test_permanent_failure_raises():
    rt = make_runtime(max_retries=1)
    rt.inject_failure("doomed", times=5)

    @rt.task(name="doomed", outs=["y"])
    def doomed():
        return 1

    with pytest.raises(TaskFailure):
        rt.run()


def test_offloaded_failure_does_not_lose_parallel_work():
    """Section III-D: restarting an offloaded task preserves the work
    done in parallel by other tasks (they execute exactly once)."""
    rt = make_runtime(max_retries=1)
    rt.inject_failure("offloaded", times=1)
    counter = {"steady": 0}

    @rt.task(name="offloaded", outs=["a"], target="booster", duration_s=1.0)
    def offloaded():
        return 1

    @rt.task(name="steady", outs=["b"], target="cluster", duration_s=1.0)
    def steady():
        counter["steady"] += 1
        return 2

    data = rt.run()
    assert data["a"] == 1 and data["b"] == 2
    assert counter["steady"] == 1
    assert next(t for t in rt.tasks if t.name == "offloaded").attempts == 2


def test_fast_forward_skips_completed_tasks():
    """Section III-D: a restarted application fast-forwards past tasks
    recorded as complete."""
    executed = []

    def build():
        rt = make_runtime()
        rt.set_data("x", 1)

        @rt.task(name="t1", ins=["x"], outs=["y"], duration_s=1.0)
        def t1(x):
            executed.append("t1")
            return x + 1

        @rt.task(name="t2", ins=["y"], outs=["z"], duration_s=1.0)
        def t2(y):
            executed.append("t2")
            return y + 1

        return rt

    first = build()
    first.run()
    assert first.completed_log == ["t1", "t2"]

    executed.clear()
    second = build()
    second.set_data("y", 2)  # restored from checkpoint by the caller
    second.run(restart_log=["t1"])
    assert executed == ["t2"]
    t1_spec = next(t for t in second.tasks if t.name == "t1")
    assert t1_spec.state is TaskState.SKIPPED
    assert second.machine.sim.now == pytest.approx(1.0)  # only t2's second


def test_run_reports_completion_states():
    rt = make_runtime()

    @rt.task(outs=["a"])
    def t():
        return 1

    rt.run()
    assert all(t.state is TaskState.COMPLETED for t in rt.tasks)
    assert all(t.end_time is not None for t in rt.tasks)


# ---------------------------------------------------------------- taskwait
def test_taskwait_orders_phases():
    """Tasks after a taskwait start only when everything before it is
    done, even without data dependencies."""
    rt = make_runtime(cluster_workers=4)
    order = []

    @rt.task(outs=["a"], duration_s=2.0)
    def slow():
        order.append("slow")
        return 1

    @rt.task(outs=["b"], duration_s=0.5)
    def quick():
        order.append("quick")
        return 2

    rt.taskwait()

    @rt.task(outs=["c"], duration_s=0.1)
    def after(_=None):
        order.append("after")
        return 3

    rt.run()
    assert order[-1] == "after"
    t_after = next(t for t in rt.tasks if t.name == "after")
    t_slow = next(t for t in rt.tasks if t.name == "slow")
    assert t_after.start_time >= t_slow.end_time


def test_taskwait_without_it_tasks_overlap():
    """Control: without the taskwait the independent task runs first."""
    rt = make_runtime(cluster_workers=4)

    @rt.task(outs=["a"], duration_s=2.0)
    def slow():
        return 1

    @rt.task(outs=["c"], duration_s=0.1)
    def independent():
        return 3

    rt.run()
    t_ind = next(t for t in rt.tasks if t.name == "independent")
    t_slow = next(t for t in rt.tasks if t.name == "slow")
    assert t_ind.end_time < t_slow.end_time


def test_multiple_taskwaits():
    rt = make_runtime(cluster_workers=4)
    phases = []

    for phase in range(3):
        @rt.task(name=f"work{phase}", outs=[f"x{phase}"], duration_s=0.5)
        def work(_=None, p=phase):
            phases.append(p)
            return p

        rt.taskwait()

    rt.run()
    assert phases == [0, 1, 2]
