"""The MPI message path: the callback-driven send op and its fallback.

``Comm.isend`` returns a request over a :class:`~repro.mpi.runtime.SendOp`
that moves an uncontended message with two queue entries (its start and
its transfer wakeup) and resumes the reference ``transmit`` generator in
every other case.  A differential check pins the two paths together on
full xPic runs; the edge cases cover what the fast path must not change:
failures, back-pressure, abandoned receives and late waits.  Receives
park the rank's pooled wakeup in its mailbox; the last group of tests
covers what parking must not change.
"""

import gc
import weakref

import pytest

from repro.engine import Engine, ExperimentSpec
from repro.hardware import build_deep_er_prototype
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIRuntime, Status
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


# -- parked receives ----------------------------------------------------------


def test_recv_interrupted_while_parked_does_not_swallow_the_next_match(
    rt, fast_path
):
    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield 1e-3
            yield from comm.send("first", dest=1, tag=7)
            yield from comm.send("second", dest=1, tag=8)
            return None

        def doomed():
            try:
                yield from comm.recv(source=0, tag=7)
            except Interrupt:
                pass
            # parks again while its old wakeup still sits in the mailbox
            late = yield from comm.recv(source=0, tag=8)
            return late

        victim = ctx.sim.process(doomed())
        yield 1e-6  # let the victim park
        victim.interrupt("cancelled")
        got = yield from comm.recv(source=0, tag=7)
        late = yield victim
        return got, late

    assert rt.run_app(app, rt.machine.cluster[:2])[1] == ("first", "second")


def test_recv_of_a_buffered_message_resumes_after_earlier_cotemporal_entries(
    rt, fast_path
):
    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield from comm.send("early", dest=1)
            return None
        yield 1e-3  # the message has long been buffered
        sim = ctx.sim
        order = []
        queued_first = sim.timeout(0.0)
        queued_first.callbacks.append(lambda _ev: order.append("timeout"))
        t0 = sim.now
        got = yield from comm.recv(source=0)
        order.append(got)
        return t0, sim.now, order

    t0, t1, order = rt.run_app(app, rt.machine.cluster[:2])[1]
    assert t1 == t0 == 1e-3
    assert order == ["timeout", "early"]


def test_wildcard_receives_match_in_arrival_order(rt, fast_path):
    def app(ctx):
        comm = ctx.world
        if comm.rank > 0:
            # rank 3 sends first, rank 1 last
            yield (comm.size - comm.rank) * 1e-4
            yield from comm.send(f"from{comm.rank}", dest=0, tag=10 + comm.rank)
            return None
        got = []
        for _ in range(3):  # the first one parks before anything arrived
            st = Status()
            payload = yield from comm.recv(ANY_SOURCE, ANY_TAG, status=st)
            got.append((st.source, st.tag, payload))
        return got

    got = rt.run_app(app, rt.machine.cluster[:4])[0]
    assert got == [(3, 13, "from3"), (2, 12, "from2"), (1, 11, "from1")]


def test_probe_and_parked_recv_share_one_mailbox(rt, fast_path):
    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield 1e-3
            yield from comm.send("both see it", dest=1, tag=3)
            return None
        req = comm.irecv(source=0, tag=3)
        yield 1e-6  # the irecv parks first
        st = yield from comm.probe(source=0, tag=3)
        t_probe = ctx.sim.now
        payload = yield req.wait()
        # the parked receive consumed what the probe only looked at
        return st.source, st.tag, payload, t_probe, ctx.sim.now, comm.iprobe()

    src, tag, payload, t_probe, t_recv, left = rt.run_app(
        app, rt.machine.cluster[:2]
    )[1]
    assert (src, tag, payload) == (0, 3, "both see it")
    assert t_probe == t_recv
    assert left is None


def test_parked_receiver_drains_a_full_bounded_mailbox(rt, fast_path):
    drain_at = 1e-3

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            a = comm.isend("a", dest=1, tag=1)
            b = comm.isend("b", dest=1, tag=2)  # waits for room
            yield a.wait()
            yield b.wait()
            t_b = ctx.sim.now
            yield from comm.send("c", dest=1, tag=3)
            return t_b
        ctx.proc.mailbox.capacity = 1
        yield drain_at
        got = []
        for tag in (1, 2, 3):  # buffered, drained in, then parked
            got.append((yield from comm.recv(source=0, tag=tag)))
        return got

    t_b, got = rt.run_app(app, rt.machine.cluster[:2])
    assert got == ["a", "b", "c"]
    assert t_b == drain_at  # "b" completed when the receiver made room


class _Blob:
    """A payload that can be watched with a weak reference."""


def test_delivered_payload_is_not_kept_alive_after_resume(rt, fast_path):
    refs = []

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            blob = _Blob()
            refs.append(weakref.ref(blob))
            req = comm.isend(blob, dest=1, nbytes=64)
            del blob
            yield req.wait()
            return None
        got = yield from comm.recv(source=0)
        assert isinstance(got, _Blob)
        del got
        # wait on an event, not on the pooled wakeup that delivered it
        yield ctx.sim.timeout(1e-3)
        return refs[0]() is None

    gc.disable()  # only reference counts may free the payload
    try:
        freed = rt.run_app(app, rt.machine.cluster[:2])[1]
    finally:
        gc.enable()
    assert freed is True
