"""The MPI message path: the callback-driven send op and its fallback.

``Comm.isend`` returns a request over a :class:`~repro.mpi.runtime.SendOp`
that moves an uncontended message with two queue entries (its start and
its transfer wakeup) and resumes the reference ``transmit`` generator in
every other case.  A differential check pins the two paths together on
full xPic runs; the edge cases cover what the fast path must not change:
failures, back-pressure, abandoned receives and late waits.
"""

import pytest

from repro.engine import Engine, ExperimentSpec
from repro.hardware import build_deep_er_prototype
from repro.mpi import MPIRuntime
from repro.network.fabric import Fabric, NodeFailedError
from repro.sim import Interrupt


@pytest.fixture()
def rt():
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
    return MPIRuntime(machine)


@pytest.fixture(params=[True, False], ids=["fast", "generator"])
def fast_path(request, monkeypatch):
    monkeypatch.setattr(Fabric, "fast_path_enabled", request.param)
    return request.param


def _physics(report) -> dict:
    d = report.to_dict()
    network = {
        k: v
        for k, v in d["network"].items()
        if k not in ("fast_transfers", "slow_transfers")  # the path mix
    }
    return {"result": d["result"], "network": network, "mpi": d["mpi"]}


@pytest.mark.parametrize("nodes", [1, 2, 4])
@pytest.mark.parametrize("mode", ["Cluster", "Booster", "C+B"])
def test_op_and_generator_paths_report_identically(mode, nodes, monkeypatch):
    spec = ExperimentSpec(mode=mode, steps=10, nodes_per_solver=nodes)
    fast = Engine().run(spec)
    monkeypatch.setattr(Fabric, "fast_path_enabled", False)
    slow = Engine().run(spec)
    assert slow.network["fast_transfers"] == 0
    if nodes > 1 or mode == "C+B":
        assert fast.network["fast_transfers"] > 0
    assert _physics(fast) == _physics(slow)
    assert fast.sim["sim_time_s"] == slow.sim["sim_time_s"]


def test_unwaited_isend_costs_two_queue_entries():
    def app(send):
        def rank(ctx):
            if send and ctx.world.rank == 0:
                ctx.world.isend(b"x" * 64, dest=1)
            yield 0.0

        return rank

    counts = []
    for send in (False, True):
        machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
        runtime = MPIRuntime(machine)
        runtime.run_app(app(send), machine.cluster[:2])
        counts.append(machine.sim.events_processed)
        assert machine.fabric.messages_transferred == int(send)
    # the op's start and its transfer wakeup: no put, no completion
    assert counts[1] - counts[0] == 2


def test_isend_to_failed_node_fails_its_request(rt, fast_path):
    rt.machine.node("cn01").fail()

    def app(ctx):
        if ctx.world.rank == 0:
            req = ctx.world.isend("doomed", dest=1)
            try:
                yield req.wait()
            except NodeFailedError:
                return "failed"
            return "delivered"
        yield 0.0

    assert rt.run_app(app, rt.machine.cluster[:2])[0] == "failed"


def test_unwaited_failed_isend_raises_from_run(rt, fast_path):
    rt.machine.node("cn01").fail()

    def app(ctx):
        if ctx.world.rank == 0:
            ctx.world.isend("doomed", dest=1)
        yield 1e-3

    with pytest.raises(NodeFailedError):
        rt.run_app(app, rt.machine.cluster[:2])


def test_isend_into_full_bounded_mailbox_blocks_until_drained(rt, fast_path):
    drain_at = 1e-3

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            first = comm.isend("a", dest=1, tag=1)
            yield first.wait()
            t_first = ctx.sim.now
            # the route is idle again: this one takes the op itself
            second = comm.isend("b", dest=1, tag=2)
            yield second.wait()
            return t_first, ctx.sim.now
        ctx.proc.mailbox.capacity = 1
        yield drain_at
        a = yield from comm.recv(source=0, tag=1)
        b = yield from comm.recv(source=0, tag=2)
        return a, b

    (t_first, t_second), received = rt.run_app(app, rt.machine.cluster[:2])
    assert received == ("a", "b")
    assert t_first < drain_at  # room in the mailbox: wire time only
    assert t_second == drain_at  # held until the receiver drained "a"


def test_interrupted_irecv_does_not_swallow_the_message(rt, fast_path):
    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield 1e-3
            yield from comm.send("prize", dest=1, tag=5)
            return None
        abandoned = comm.irecv(source=0, tag=5)
        yield 1e-6  # let the irecv post its mailbox get
        abandoned.process.interrupt("cancelled")
        try:
            yield abandoned.wait()
        except Interrupt:
            pass
        got = yield from comm.recv(source=0, tag=5)
        return got

    assert rt.run_app(app, rt.machine.cluster[:2])[1] == "prize"


def test_wait_after_completion_resumes_at_the_same_time(rt, fast_path):
    def app(ctx):
        if ctx.world.rank == 0:
            req = ctx.world.isend("early", dest=1)
            yield 1e-3  # far longer than the message takes
            assert req.test()
            before = ctx.sim.now
            value = yield req.wait()
            return before, ctx.sim.now, value
        got = yield from ctx.world.recv(source=0)
        return got

    (before, after, value), got = rt.run_app(app, rt.machine.cluster[:2])
    assert after == before == 1e-3
    assert value is None and got == "early"
