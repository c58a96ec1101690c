"""Cross-cutting property-based tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import build_deep_er_prototype
from repro.mpi import MPIRuntime
from repro.ompss import OmpSsRuntime, TaskSpec, build_dependency_graph
from repro.resiliency import SCR, CheckpointLevel


# ----------------------------------------------------------- OmpSs graphs
@st.composite
def task_sequences(draw):
    """Random task lists over a small data-name alphabet."""
    names = ["a", "b", "c", "d"]
    n = draw(st.integers(2, 10))
    tasks = []
    for i in range(n):
        ins = draw(st.sets(st.sampled_from(names), max_size=2))
        outs = draw(
            st.sets(
                st.sampled_from(names).filter(lambda x: x not in ins),
                min_size=1,
                max_size=2,
            )
        )
        outs = {o for o in outs if o not in ins}
        if not outs:
            outs = {names[i % 4]} - ins or {"d"}
        tasks.append((f"t{i}", tuple(sorted(ins - outs)), tuple(sorted(outs))))
    return tasks


@given(task_sequences())
@settings(max_examples=40, deadline=None)
def test_dependency_graph_is_always_a_dag(seq):
    specs = [
        TaskSpec(name, lambda: None, ins=ins, outs=outs, duration_s=0.1)
        for name, ins, outs in seq
    ]
    g = build_dependency_graph(specs)
    order = g.topological_order()  # raises ValueError on a cycle
    position = {node: i for i, node in enumerate(order)}
    assert all(position[u] < position[v] for u, v in g.edges())
    assert len(g) == len(specs)


@given(task_sequences())
@settings(max_examples=15, deadline=None)
def test_execution_respects_dependencies(seq):
    """No task starts before every predecessor has finished."""
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=2)
    rt = OmpSsRuntime(machine, cluster_workers=3)
    for name in "abcd":
        rt.set_data(name, 0)
    specs = []
    for name, ins, outs in seq:
        spec = rt.submit(
            lambda *args: tuple(0 for _ in range(99)),  # placeholder
            name=name,
            ins=ins,
            outs=outs,
            duration_s=0.05,
        )
        # fix the return arity to the task's writes
        spec.fn = (lambda k: (lambda *a: tuple(0 for _ in range(k)) if k > 1 else 0))(
            len(spec.writes)
        )
        specs.append(spec)
    rt.run()
    g = build_dependency_graph(specs)
    by_id = {s.task_id: s for s in specs}
    for u, v in g.edges():
        assert by_id[u].end_time <= by_id[v].start_time + 1e-12


# --------------------------------------------------------------- MPI p2p
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 2**16)),
        min_size=1,
        max_size=12,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=20, deadline=None)
def test_out_of_order_receive_by_tag(messages):
    """Messages sent in one order, received by tag in reverse order —
    every payload must arrive under its own tag."""
    machine = build_deep_er_prototype(cluster_nodes=2, booster_nodes=2)
    rt = MPIRuntime(machine)

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            for tag, size in messages:
                yield from comm.send(("payload", tag), dest=1, tag=tag, nbytes=size)
            return None
        got = {}
        for tag, _size in reversed(messages):
            got[tag] = yield from comm.recv(source=0, tag=tag)
        return got

    results = rt.run_app(app, machine.cluster[:2])
    for tag, _ in messages:
        assert results[1][tag] == ("payload", tag)


@given(st.integers(2, 8), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_fabric_byte_accounting(nranks, nbytes):
    """The fabric's byte counter equals the sum of injected messages."""
    machine = build_deep_er_prototype()
    rt = MPIRuntime(machine)

    def app(ctx):
        comm = ctx.world
        if comm.rank > 0:
            yield from comm.send(None, dest=0, nbytes=nbytes)
        else:
            for _ in range(comm.size - 1):
                yield from comm.recv()

    before = machine.fabric.bytes_transferred
    rt.run_app(app, machine.cluster[:nranks])
    assert machine.fabric.bytes_transferred - before == (nranks - 1) * nbytes


# ------------------------------------------------------------ SCR database
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 30)),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=20, deadline=None)
def test_latest_restartable_is_max_common_step(entries):
    """Property: latest_restartable_step == max of the intersection of
    per-rank checkpointed steps (with all data intact)."""
    machine = build_deep_er_prototype()
    scr = SCR(machine.sim, machine.booster[:4], machine.fabric)

    def proc():
        for rank, step in entries:
            yield from scr.checkpoint(
                rank, step=step, nbytes=1000, level=CheckpointLevel.BUDDY
            )

    machine.sim.run_process(proc())
    per_rank = {r: set() for r in range(4)}
    for rank, step in entries:
        per_rank[rank].add(step)
    common = set.intersection(*per_rank.values()) if all(per_rank.values()) else set()
    expected = max(common) if common else None
    assert scr.latest_restartable_step(range(4)) == expected


@given(st.integers(1, 5), st.integers(1, 100))
@settings(max_examples=25, deadline=None)
def test_collectives_on_random_subsets(size, value):
    """allreduce/bcast/gather agree for any subgroup size and payload."""
    machine = build_deep_er_prototype()
    rt = MPIRuntime(machine)

    def app(ctx):
        comm = ctx.world
        s = yield from comm.allreduce(value + comm.rank)
        b = yield from comm.bcast(value if comm.rank == 0 else None, root=0)
        g = yield from comm.gather(comm.rank, root=0)
        return (s, b, g)

    results = rt.run_app(app, machine.cluster[:size])
    expected_sum = sum(value + r for r in range(size))
    for rank, (s, b, g) in enumerate(results):
        assert s == expected_sum
        assert b == value
        if rank == 0:
            assert g == list(range(size))
        else:
            assert g is None
