"""Tests for repro.fleet: the hash ring, the wire protocol, histogram
and snapshot merging, the router (routing / sticky coalescing / bounded
stealing / shard-loss rerouting), the TCP front end + client, the
Session(fleet=...) path — and the fleet acceptance demo (4 shards vs 1
on a duplicate-heavy workload)."""

import json
import socket
import struct
import threading
import time

import pytest

from repro.api import Session
from repro.engine import Engine, ExperimentSpec
from repro.fleet import (
    FleetClient,
    FleetClientError,
    FleetFrontEnd,
    FleetRouter,
    FrameError,
    HashRing,
    LocalShard,
    encode_frame,
    invariant_holds,
    merge_histogram_snapshots,
    merge_service_snapshots,
    recv_frame,
    send_frame,
)
from repro.fleet.protocol import decode_payload
from repro.serve.metrics import LatencyHistogram
from repro.store.keys import cache_key


def spec(steps=3, mode="cb", seed=20180521, **kw):
    return ExperimentSpec(mode=mode, steps=steps, seed=seed, **kw)


def canon(report):
    d = report.to_dict()
    for key in ("wall_time_s", "events_per_sec", "host_wall_s"):
        d["sim"].pop(key, None)
    return json.dumps(d, sort_keys=True)


class _SleepEngine(Engine):
    """Engine that bills fixed wall time per spec and records every
    spec it actually executed (the duplicate-execution probe)."""

    def __init__(self, delay_s=0.02):
        super().__init__()
        self.delay_s = delay_s
        self.executed = []

    def run_many(self, specs, workers=1, chunksize=1, cache=None, pool=None):
        time.sleep(self.delay_s * len(specs))
        self.executed.extend(specs)
        return super().run_many(specs, workers=1, cache=cache)


# -- hash ring ---------------------------------------------------------------


def test_ring_routing_is_deterministic_across_instances():
    a = HashRing(["s0", "s1", "s2"])
    b = HashRing(["s2", "s0", "s1"])  # insertion order must not matter
    keys = [f"key-{i}" for i in range(200)]
    assert [a.route(k) for k in keys] == [b.route(k) for k in keys]


def test_ring_balances_and_shares_sum_to_one():
    ring = HashRing(["s0", "s1", "s2", "s3"])
    shares = ring.shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert max(shares.values()) / min(shares.values()) < 2.5
    counts = {}
    for i in range(2000):
        counts[ring.route(f"key-{i}")] = counts.get(ring.route(f"key-{i}"), 0) + 1
    assert set(counts) == {"s0", "s1", "s2", "s3"}


def test_ring_removal_disrupts_only_the_lost_shards_keys():
    ring = HashRing(["s0", "s1", "s2", "s3"])
    keys = [f"key-{i}" for i in range(500)]
    before = {k: ring.route(k) for k in keys}
    ring.remove("s2")
    moved = [k for k in keys if ring.route(k) != before[k]]
    # only keys that lived on the removed shard change home
    assert all(before[k] == "s2" for k in moved)
    assert all(ring.route(k) != "s2" for k in keys)


def test_ring_edge_cases():
    empty = HashRing()
    with pytest.raises(LookupError):
        empty.route("k")
    assert empty.shares() == {}
    one = HashRing(["only"], replicas=1)
    assert one.shares() == {"only": 1.0}
    assert one.route("anything") == "only"
    ring = HashRing(["a", "b", "c"])
    pref = ring.preference("some-key")
    assert pref[0] == ring.route("some-key")
    assert sorted(pref) == ["a", "b", "c"]
    assert ring.preference("some-key", n=2) == pref[:2]


# -- wire protocol -----------------------------------------------------------


def test_frame_encode_decode_round_trip():
    doc = {"op": "submit", "spec": {"steps": 7}, "n": [1, 2, 3]}
    raw = encode_frame(doc)
    (length,) = struct.unpack(">I", raw[:4])
    assert length == len(raw) - 4
    assert decode_payload(raw[4:]) == doc


def test_frame_errors_are_typed():
    with pytest.raises(FrameError):
        decode_payload(b"not json at all {{{")
    with pytest.raises(FrameError):
        decode_payload(b"[1, 2, 3]")  # not an object
    assert issubclass(FrameError, ValueError)


def test_socket_frames_round_trip_and_clean_eof():
    left, right = socket.socketpair()
    try:
        send_frame(left, {"op": "ping", "x": 1})
        assert recv_frame(right) == {"op": "ping", "x": 1}
        left.close()
        assert recv_frame(right) is None  # clean EOF at a boundary
    finally:
        right.close()


def test_truncated_frame_raises_instead_of_hanging():
    left, right = socket.socketpair()
    try:
        raw = encode_frame({"op": "submit", "payload": "x" * 100})
        left.sendall(raw[: len(raw) - 20])  # cut mid-frame
        left.close()
        with pytest.raises(FrameError, match="mid-frame"):
            recv_frame(right)
    finally:
        right.close()


# -- histogram + snapshot merging --------------------------------------------


def test_histogram_merge_matches_single_histogram():
    one = LatencyHistogram()
    a, b = LatencyHistogram(), LatencyHistogram()
    for i, ms in enumerate((1, 2, 4, 8, 40, 200, 1000)):
        one.record(ms / 1000.0)
        (a if i % 2 else b).record(ms / 1000.0)
    merged = merge_histogram_snapshots([a.snapshot(), b.snapshot()])
    expect = one.snapshot()
    for field in ("count", "p50_s", "p90_s", "p99_s", "min_s", "max_s"):
        assert merged[field] == pytest.approx(expect[field])


def test_merge_service_snapshots_sums_counters_and_keeps_invariant():
    def snap(**kw):
        base = {
            "submitted": 0, "accepted": 0, "rejected": 0, "coalesced": 0,
            "cache_hits": 0, "executed": 0, "completed": 0, "failed": 0,
            "requeued": 0, "batches": 0, "recovered": 0, "quarantined": 0,
            "quarantine_hits": 0, "deadline_misses": 0, "batch_timeouts": 0,
            "journal_replays": 0, "queue_depth": 0, "in_flight": 0,
            "workers": 1, "peak_queue_depth": 0, "peak_in_flight": 0,
            "wait": {}, "run": {},
        }
        base.update(kw)
        return base

    merged = merge_service_snapshots(
        [
            snap(submitted=5, accepted=3, coalesced=1, cache_hits=1,
                 peak_queue_depth=4),
            snap(submitted=4, accepted=2, coalesced=0, cache_hits=1,
                 rejected=1, peak_queue_depth=7),
        ]
    )
    assert merged["submitted"] == 9
    assert merged["accepted"] == 5
    assert merged["peak_queue_depth"] == 7  # peaks max, not sum
    assert merged["shards"] == 2
    assert invariant_holds(merged)
    merged["submitted"] += 1
    assert not invariant_holds(merged)


# -- router ------------------------------------------------------------------


def test_router_routes_one_key_to_one_shard_and_coalesces(tmp_path):
    engine = _SleepEngine(delay_s=0.05)
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", engine=engine)
        for i in range(3)
    ]
    with FleetRouter(shards, steal_threshold=None) as router:
        dup = spec(steps=4)
        jobs = [router.submit(dup, client=f"c{i}") for i in range(4)]
        assert len({j.shard for j in jobs}) == 1  # all on one shard
        assert jobs[0].shard == router._ring.route(cache_key(dup))
        assert sum(1 for j in jobs if j.coalesced) == 3
        reports = [j.result(timeout=30) for j in jobs]
        assert len({canon(r) for r in reports}) == 1
        snap = router.metrics_snapshot()
        assert snap["fleet"]["executed"] == 1  # one engine run, fleet-wide
        assert snap["router"]["sticky_routed"] == 3
        assert invariant_holds(snap["fleet"])
    assert len(engine.executed) == 1


def test_router_second_pass_is_all_cache_hits(tmp_path):
    shards = [LocalShard(f"s{i}", tmp_path / f"s{i}") for i in range(2)]
    with FleetRouter(shards, steal_threshold=None) as router:
        specs = [spec(steps=3 + i) for i in range(4)]
        for s in specs:
            router.submit(s).result(timeout=30)
        again = [router.submit(s) for s in specs]
        for job in again:
            job.result(timeout=30)
        assert all(j.cache_hit for j in again)
        snap = router.metrics_snapshot()
        assert snap["fleet"]["cache_hits"] == 4
        assert snap["fleet"]["executed"] == 4
        assert invariant_holds(snap["fleet"])


def test_bounded_stealing_overflows_and_syncs_home(tmp_path):
    engine = _SleepEngine(delay_s=0.15)
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", engine=engine)
        for i in range(2)
    ]
    with FleetRouter(shards, steal_threshold=2, steal_margin=2) as router:
        # find specs that all hash to the same home shard
        ring = router._ring
        home = ring.route(cache_key(spec(steps=10)))
        skewed, step = [], 10
        while len(skewed) < 6:
            s = spec(steps=step)
            if ring.route(cache_key(s)) == home:
                skewed.append(s)
            step += 1
        jobs = [router.submit(s) for s in skewed]
        stolen = [j for j in jobs if j.stolen]
        assert stolen, "deep home backlog should overflow to the light shard"
        for j in jobs:
            j.result(timeout=60)
        assert router.drain(timeout=30)
        snap = router.metrics_snapshot()
        assert snap["router"]["stolen"] == len(stolen)
        assert snap["router"]["synced"] >= 1
        # the stolen key's result was bundle-synced home: resubmitting
        # it routes home and cache-hits there, no new execution
        executed_before = len(engine.executed)
        redo = router.submit(stolen[0].spec)
        redo.result(timeout=30)
        assert redo.shard == home
        assert redo.cache_hit
        assert len(engine.executed) == executed_before
        assert invariant_holds(snap["fleet"])


def test_shard_loss_reroutes_without_losing_jobs(tmp_path):
    engine = _SleepEngine(delay_s=0.1)
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", engine=engine)
        for i in range(3)
    ]
    router = FleetRouter(
        shards,
        steal_threshold=None,
        restart_limit=0,  # no second chances: straight to ring removal
        monitor_interval_s=0.05,
    )
    with router:
        jobs = [router.submit(spec(steps=3 + i)) for i in range(9)]
        victim = jobs[0].shard
        router.shard(victim).fail()
        reports = [j.result(timeout=60) for j in jobs]
        assert len(reports) == 9
        # bit-identical to a serial baseline despite the mid-run loss
        serial = Engine()
        for job, report in zip(jobs, reports):
            assert canon(report) == canon(serial.run(job.spec))
        snap = router.metrics_snapshot()
        assert snap["router"]["shard_deaths"] >= 1
        assert snap["router"]["rebalanced"] == 1
        assert snap["router"]["shards_lost"] == [victim]
        assert victim not in snap["router"]["ring_shares"]
        assert snap["router"]["shards_live"] == 2
        # new submissions route around the lost shard
        fresh = router.submit(spec(steps=99))
        assert fresh.shard != victim
        fresh.result(timeout=30)


def test_router_rejects_duplicate_shard_names(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        FleetRouter(
            [
                LocalShard("same", tmp_path / "a"),
                LocalShard("same", tmp_path / "b"),
            ]
        )
    with pytest.raises(ValueError, match="at least one"):
        FleetRouter([])


# -- push resolution ---------------------------------------------------------


def _spec_homed_on(ring, shard_name, start=10):
    """The first spec (by step count) whose ring home is ``shard_name``."""
    step = start
    while ring.route(cache_key(spec(steps=step))) != shard_name:
        step += 1
    return spec(steps=step)


def test_fleet_job_callback_fires_once_and_at_once_when_late(tmp_path):
    shards = [LocalShard(f"s{i}", tmp_path / f"s{i}") for i in range(2)]
    with FleetRouter(shards, steal_threshold=None) as router:
        job = router.submit(spec(steps=4))
        calls, finished = [], threading.Event()
        job.add_done_callback(lambda j: (calls.append(j), finished.set()))
        assert finished.wait(timeout=30)
        assert job.result(timeout=0).total_runtime > 0
        assert router.drain(timeout=30)
        assert calls == [job]
        late = []
        job.add_done_callback(late.append)
        assert late == [job]  # already resolved: fires synchronously
        assert calls == [job]


def test_coalesced_fleet_jobs_all_resolve_by_push(tmp_path):
    engine = _SleepEngine(delay_s=0.05)
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", engine=engine)
        for i in range(2)
    ]
    with FleetRouter(shards, steal_threshold=None) as router:
        assert router._collector is None  # local shards are never polled
        jobs = [router.submit(spec(steps=6), client=f"c{i}")
                for i in range(4)]
        assert sum(j.coalesced for j in jobs) == 3
        fired = []
        for job in jobs:
            job.add_done_callback(fired.append)
        assert router.drain(timeout=30)
        assert sorted(j.id for j in fired) == sorted(j.id for j in jobs)
        assert len({canon(j.result(timeout=0)) for j in jobs}) == 1
    assert len(engine.executed) == 1


def test_stolen_result_syncs_home_before_the_fleet_job_resolves(tmp_path):
    engine = _SleepEngine(delay_s=0.1)
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", engine=engine)
        for i in range(2)
    ]
    with FleetRouter(shards, steal_threshold=2, steal_margin=2) as router:
        ring = router._ring
        home = ring.route(cache_key(spec(steps=10)))
        skewed, step = [], 10
        while len(skewed) < 6:
            s = spec(steps=step)
            if ring.route(cache_key(s)) == home:
                skewed.append(s)
            step += 1
        redo, lock = [], threading.Lock()

        def resubmit_at_once(job):
            # runs the moment the stolen job resolves, on the thief's
            # scheduler thread: the home store must already hold it
            again = router.submit(job.spec)
            with lock:
                redo.append(again)

        jobs = [router.submit(s) for s in skewed]
        stolen = [j for j in jobs if j.stolen]
        assert stolen, "deep home backlog should overflow to the light shard"
        for job in stolen:
            job.add_done_callback(resubmit_at_once)
        for job in jobs:
            job.result(timeout=60)
        assert router.drain(timeout=30)
        assert len(redo) == len(stolen)
        for again in redo:
            again.result(timeout=30)
            assert again.shard == home
            assert again.cache_hit
        assert router.metrics_snapshot()["router"]["synced"] == len(stolen)
    assert len(engine.executed) == len(skewed)


def test_late_callback_from_a_failed_shard_does_not_resolve_rerouted_job(
    tmp_path, monkeypatch
):
    watched = []
    real_watch = LocalShard.watch

    def spy(self, handle, fn):
        watched.append((self.name, handle, fn))
        real_watch(self, handle, fn)

    monkeypatch.setattr(LocalShard, "watch", spy)
    # neither scheduler runs until the test says so, and the monitor
    # never fires on its own: shard death is driven by hand
    shards = [
        LocalShard(name, tmp_path / name, autostart=False)
        for name in ("a", "b")
    ]
    router = FleetRouter(
        shards, steal_threshold=None, restart_limit=0,
        monitor_interval_s=60.0,
    ).start()
    try:
        job = router.submit(_spec_homed_on(router._ring, "a"))
        assert job.shard == "a"
        [(_, dead_inner, dead_callback)] = watched
        victim = router.shard("a")
        victim.fail()  # fails the queued inner job: a dead shard's error
        assert dead_inner.done() and not job.done()
        router._handle_death("a", victim)  # detach + reroute to "b"
        assert job.shard == "b" and job.inner is not dead_inner
        # a late resolution of the dead shard's handle changes nothing
        dead_callback(("done", None, {"cache_hit": True}))
        dead_callback(("failed", RuntimeError("late"), {}))
        assert not job.done()
        assert router.outstanding() == 1
        router.shard("b").service.start()
        report = job.result(timeout=30)
        assert canon(report) == canon(Engine().run(job.spec))
        assert not job.cache_hit
        assert router.drain(timeout=30)
    finally:
        router.shutdown(drain=False)


def test_failed_reroute_resolves_the_job_and_lets_the_fleet_drain(tmp_path):
    shards = [LocalShard("only", tmp_path / "only", autostart=False)]
    router = FleetRouter(
        shards, restart_limit=0, monitor_interval_s=60.0
    ).start()
    try:
        job = router.submit(spec(steps=5))
        victim = router.shard("only")
        victim.fail()
        router._handle_death("only", victim)  # no shard left to take it
        with pytest.raises(RuntimeError, match="no live shards"):
            job.result(timeout=5)
        assert router.outstanding() == 0
        assert router.drain(timeout=1)
    finally:
        router.shutdown(drain=False)


def test_idle_local_fleet_wakes_no_thread_faster_than_its_periods(
    tmp_path, monkeypatch
):
    period = 0.25  # monitor and heartbeat period
    window = 1.0
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", heartbeat_interval_s=period)
        for i in range(2)
    ]
    wakes, timeouts, guard = {}, [], threading.Lock()
    real_wait = threading.Condition.wait

    def counting_wait(self, timeout=None):
        me = threading.current_thread()
        if me.name.startswith("repro-"):
            with guard:
                wakes[me.ident] = wakes.get(me.ident, 0) + 1
                timeouts.append(timeout)
        return real_wait(self, timeout)

    with FleetRouter(
        shards, steal_threshold=None, monitor_interval_s=period
    ) as router:
        router.submit(spec(steps=3)).result(timeout=30)
        assert router.drain(timeout=30)
        names = {t.name for t in threading.enumerate()}
        assert "repro-fleet-collector" not in names
        monkeypatch.setattr(threading.Condition, "wait", counting_wait)
        time.sleep(window)
        monkeypatch.undo()
    # Event.wait and Condition.wait_for both go through Condition.wait
    assert all(t is None or t >= period for t in timeouts), timeouts
    assert wakes and max(wakes.values()) <= window / period + 1, wakes


# -- front end + client ------------------------------------------------------


def test_front_end_round_trip_over_tcp(tmp_path):
    shards = [LocalShard(f"s{i}", tmp_path / f"s{i}") for i in range(2)]
    with FleetRouter(shards, steal_threshold=None) as router:
        with FleetFrontEnd(router) as front:
            assert front.port != 0
            with FleetClient(front.address) as client:
                assert client.ping()
                job = client.submit(spec(steps=4))
                assert job.done()
                report = job.result()
                assert canon(report) == canon(Engine().run(spec(steps=4)))
                # duplicate resolves from the shard store
                again = client.submit(spec(steps=4))
                assert again.cache_hit
                assert again.shard == job.shard
                status = client.status()
                assert status["fleet"]["submitted"] == 2
                assert invariant_holds(status["fleet"])
                assert status["router"]["shards_live"] == 2


def test_front_end_two_phase_submit_and_errors(tmp_path):
    shards = [LocalShard("s0", tmp_path / "s0")]
    with FleetRouter(shards) as router:
        with FleetFrontEnd(router) as front:
            sock = socket.create_connection(("127.0.0.1", front.port), 5)
            sock.settimeout(10)
            try:
                send_frame(
                    sock,
                    {"op": "submit", "spec": spec(steps=5).to_dict(),
                     "wait": False},
                )
                ack = recv_frame(sock)
                assert ack["ok"] and ack["op"] == "submitted"
                send_frame(sock, {"op": "wait", "id": ack["id"]})
                result = recv_frame(sock)
                assert result["ok"] and result["status"] == "done"
                send_frame(sock, {"op": "wait", "id": 999999})
                assert not recv_frame(sock)["ok"]
                send_frame(sock, {"op": "nope"})
                reply = recv_frame(sock)
                assert not reply["ok"] and "unknown op" in reply["error"]
                send_frame(sock, {"op": "submit", "spec": {"steps": "bad"}})
                assert "bad spec" in recv_frame(sock)["error"]
            finally:
                sock.close()


def test_front_end_accepts_a_1_9_submit_message(tmp_path):
    """Fleet clients of 1.9 send specs with ``"sim_backend": null``."""
    shards = [LocalShard("s0", tmp_path / "s0")]
    with FleetRouter(shards) as router:
        with FleetFrontEnd(router) as front:
            sock = socket.create_connection(("127.0.0.1", front.port), 5)
            sock.settimeout(10)
            try:
                legacy = dict(spec(steps=5).to_dict(), sim_backend=None)
                send_frame(sock, {"op": "submit", "spec": legacy})
                reply = recv_frame(sock)
                assert reply["ok"] and reply["status"] == "done"
            finally:
                sock.close()


def _stalled_fleet(tmp_path):
    """A 1-shard fleet whose scheduler is not running: jobs stay
    unresolved until the test starts it (the monitor never fires)."""
    shards = [LocalShard("stall", tmp_path / "stall", autostart=False)]
    return FleetRouter(shards, monitor_interval_s=60.0).start()


def test_wait_timeout_is_measured_in_real_time_and_retryable(tmp_path):
    router = _stalled_fleet(tmp_path)
    try:
        with FleetFrontEnd(router) as front:
            sock = socket.create_connection(("127.0.0.1", front.port), 5)
            sock.settimeout(10)
            try:
                t0 = time.monotonic()
                send_frame(sock, {"op": "submit",
                                  "spec": spec(steps=7).to_dict(),
                                  "timeout_s": 0.2})
                reply = recv_frame(sock)
                elapsed = time.monotonic() - t0
                assert not reply["ok"] and reply["error"] == "timeout"
                assert 0.2 <= elapsed < 1.0
                send_frame(sock, {"op": "submit",
                                  "spec": spec(steps=8).to_dict(),
                                  "wait": False})
                ack = recv_frame(sock)
                send_frame(sock, {"op": "wait", "id": ack["id"],
                                  "timeout_s": 0.2})
                assert recv_frame(sock)["error"] == "timeout"
                # the timed-out wait left the job waitable: retry it
                router.shard("stall").service.start()
                send_frame(sock, {"op": "wait", "id": ack["id"]})
                result = recv_frame(sock)
                assert result["ok"] and result["status"] == "done"
            finally:
                sock.close()
    finally:
        router.shutdown(drain=False)


def test_resolution_after_the_front_end_stopped_raises_nothing(
    tmp_path, monkeypatch
):
    # the job's callback runner would swallow an escaping error, so spy
    # on the front end's own callback to see that it raises nothing
    wakes = []
    real_wake = FleetFrontEnd._wake_threadsafe

    def spy(self, loop, job_id, future):
        try:
            real_wake(self, loop, job_id, future)
        except BaseException as exc:  # noqa: BLE001 - recorded, asserted
            wakes.append(exc)
            raise
        wakes.append(loop.is_closed())

    monkeypatch.setattr(FleetFrontEnd, "_wake_threadsafe", spy)
    router = _stalled_fleet(tmp_path)
    try:
        front = FleetFrontEnd(router).start()
        sock = socket.create_connection(("127.0.0.1", front.port), 5)
        try:
            send_frame(sock, {"op": "submit",
                              "spec": spec(steps=9).to_dict()})
            deadline = time.monotonic() + 10
            while not front._futures:  # the wait is parked on its future
                assert time.monotonic() < deadline
                time.sleep(0.005)
            [job] = list(router._outstanding.values())
            front.stop()
        finally:
            sock.close()
    finally:
        router.shutdown(drain=False)  # resolves the job: loop is gone
    with pytest.raises(RuntimeError, match="shut down"):
        job.result(timeout=0)
    assert wakes == [True]  # called on a closed loop, raised nothing


def test_client_backs_off_on_queue_full(tmp_path):
    from repro.backoff import ExponentialBackoff

    # a shard whose scheduler is not running: its queue fills and stays
    # full, so admission rejects deterministically
    shards = [
        LocalShard("tiny", tmp_path / "tiny", max_queue=2, autostart=False)
    ]
    router = FleetRouter(shards, monitor_interval_s=60.0).start()
    try:
        held = [router.submit(spec(steps=11)), router.submit(spec(steps=12))]
        with FleetFrontEnd(router) as front:
            client = FleetClient(
                front.address,
                max_attempts=3,
                backoff=ExponentialBackoff(
                    base_s=0.01, cap_s=0.02, decorrelated=True, seed=0
                ),
            )
            with client:
                with pytest.raises(FleetClientError, match="queue_full"):
                    client.submit(spec(steps=13))
        snap = router.metrics_snapshot()
        assert snap["router"]["rejected_full"] == 3  # one per attempt
        # the shard drains once its scheduler starts; held jobs resolve
        router.shard("tiny").service.start()
        for job in held:
            assert job.result(timeout=30).total_runtime > 0
        assert invariant_holds(router.metrics_snapshot()["fleet"])
    finally:
        router.shutdown(drain=False)


def test_client_error_paths():
    with pytest.raises(ValueError, match="HOST:PORT"):
        FleetClient("no-port-here")
    # nothing listening: ping is False, submit raises after retries
    dead = FleetClient("127.0.0.1:1", timeout_s=0.2, max_attempts=2)
    assert not dead.ping()
    with pytest.raises(OSError):
        dead.submit(spec(steps=3))


# -- Session(fleet=...) ------------------------------------------------------


def test_session_submits_through_fleet_router(tmp_path):
    shards = [LocalShard(f"s{i}", tmp_path / f"s{i}") for i in range(2)]
    with FleetRouter(shards, steal_threshold=None) as router:
        session = Session(fleet=router)
        job = session.submit(steps=4)
        assert canon(job.result(timeout=30)) == canon(
            Engine().run(spec(steps=4))
        )
        assert router.metrics_snapshot()["fleet"]["submitted"] == 1


def test_session_fleet_address_builds_owned_client(tmp_path):
    shards = [LocalShard("s0", tmp_path / "s0")]
    with FleetRouter(shards) as router:
        with FleetFrontEnd(router) as front:
            with Session(fleet=front.address) as session:
                job = session.submit(steps=3)
                assert job.result().total_runtime > 0
                assert session._owned_fleet_client is not None
            assert session._owned_fleet_client is None  # closed


# -- the acceptance demo -----------------------------------------------------


def _run_workload(router, specs):
    """Submit every spec from 4 threads, wait for all; elapsed seconds."""
    jobs, lock = [], threading.Lock()

    def feed(chunk):
        for s in chunk:
            job = router.submit(s)
            with lock:
                jobs.append(job)

    start = time.monotonic()
    feeders = [
        threading.Thread(target=feed, args=(specs[i::4],)) for i in range(4)
    ]
    for t in feeders:
        t.start()
    for t in feeders:
        t.join()
    for job in jobs:
        job.result(timeout=120)
    assert router.drain(timeout=60)
    return time.monotonic() - start, jobs


def _demo_once(tmp_path, tag, delay, uniques, workload):
    """One single-vs-4-shard comparison in fresh directories; checks
    every deterministic invariant and returns the measured speedup."""
    single_engine = _SleepEngine(delay_s=delay)
    single = FleetRouter(
        [LocalShard(f"solo{tag}", tmp_path / f"solo{tag}",
                    engine=single_engine)]
    )
    with single:
        t_single, _ = _run_workload(single, workload)
        snap_single = single.metrics_snapshot()

    fleet_engine = _SleepEngine(delay_s=delay)
    fleet = FleetRouter(
        [
            LocalShard(f"f{tag}-{i}", tmp_path / f"f{tag}-{i}",
                       engine=fleet_engine)
            for i in range(4)
        ],
        steal_threshold=2,
        steal_margin=2,
    )
    with fleet:
        t_fleet, jobs = _run_workload(fleet, workload)
        snap_fleet = fleet.metrics_snapshot()
        # second pass: everything answers from the shard stores
        executed_before = len(fleet_engine.executed)
        for s in uniques:
            assert fleet.submit(s).result(timeout=30).total_runtime > 0
        assert len(fleet_engine.executed) == executed_before

    # fleet-wide dedup equals single-shard dedup: every duplicate was
    # coalesced or cache-hit, none crossed shards into a second run
    dedup_single = (
        snap_single["fleet"]["coalesced"] + snap_single["fleet"]["cache_hits"]
    )
    dedup_fleet = (
        snap_fleet["fleet"]["coalesced"] + snap_fleet["fleet"]["cache_hits"]
    )
    assert dedup_single == dedup_fleet == len(uniques)
    # zero duplicate engine executions, fleet-wide
    executed_keys = [cache_key(s) for s in fleet_engine.executed]
    assert len(executed_keys) == len(set(executed_keys)) == len(uniques)
    # the aggregated ledger balances in both runs
    assert invariant_holds(snap_single["fleet"])
    assert invariant_holds(snap_fleet["fleet"])
    assert snap_fleet["fleet"]["submitted"] == len(workload)
    return t_single, t_fleet


def test_fleet_demo_4_shards_vs_1_on_duplicate_heavy_workload(tmp_path):
    delay = 0.08
    uniques = [spec(steps=10 + i) for i in range(40)]
    workload = uniques + list(uniques)  # 50% duplicates

    # the dedup/ledger invariants are deterministic and must hold on
    # every attempt; the wall-clock speedup is best-of-3 so a noisy
    # scheduler hiccup on a loaded machine cannot flake the gate
    best, timings = 0.0, []
    for attempt in range(3):
        t_single, t_fleet = _demo_once(
            tmp_path, attempt, delay, uniques, workload
        )
        timings.append((t_single, t_fleet))
        best = max(best, t_single / t_fleet)
        if best >= 3.0:
            break
    # >= 3x the single-shard throughput on the same workload
    assert best >= 3.0, (
        f"fleet speedup {best:.2f}x < 3x across {len(timings)} "
        f"attempt(s): {timings}"
    )


# -- metrics hub integration -------------------------------------------------


def test_metrics_hub_exposes_fleet_section(tmp_path):
    from repro.instrument import MetricsHub

    shards = [LocalShard("s0", tmp_path / "s0")]
    with FleetRouter(shards) as router:
        router.submit(spec(steps=3)).result(timeout=30)
        hub = MetricsHub(fleet=router)
        snap = hub.snapshot()
        assert snap["fleet"]["fleet"]["completed"] == 1
        assert snap["fleet"]["schema"].startswith("repro.fleet_metrics/")
    assert MetricsHub().snapshot()["fleet"] == {}
