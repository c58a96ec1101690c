"""Tests for the experiment service: queue, coalescing, backpressure,
batching, crash recovery, and the file-based job directory."""

import json
import threading

import pytest

from repro.cache import ResultCache
from repro.engine import Engine, ExperimentSpec
from repro.serve import (
    ExperimentService,
    Job,
    JobQueue,
    QueueFull,
    serve_jobdir,
    submit_job,
    wait_result,
)
from repro.serve.filejob import SERVICE_METRICS_SCHEMA
from repro.serve.metrics import LatencyHistogram


def spec(steps=3, mode="cb", seed=20180521, **kw):
    return ExperimentSpec(mode=mode, steps=steps, seed=seed, **kw)


def canon(report):
    """Report JSON with the host wall-clock telemetry stripped — the
    bit-identity comparison the determinism suite uses."""
    d = report.to_dict()
    for key in ("wall_time_s", "events_per_sec", "host_wall_s"):
        d["sim"].pop(key, None)
    return json.dumps(d, sort_keys=True)


# -- queue ------------------------------------------------------------------


def test_queue_full_is_typed_with_retry_hint():
    q = JobQueue(max_depth=2, retry_hint=lambda depth: depth * 0.5)
    q.push(Job(1, spec(), "k1"))
    q.push(Job(2, spec(), "k2"))
    with pytest.raises(QueueFull) as exc_info:
        q.push(Job(3, spec(), "k3"))
    err = exc_info.value
    assert isinstance(err, RuntimeError)
    assert (err.depth, err.max_depth) == (2, 2)
    assert err.retry_after_s == pytest.approx(1.0)
    assert "retry" in str(err)


def test_queue_fair_share_and_priority_order():
    q = JobQueue(max_depth=16)
    # alice floods, bob submits one; one urgent job outranks both
    for i in range(3):
        q.push(Job(i, spec(), f"a{i}", priority=0, client="alice"))
    q.push(Job(3, spec(), "b0", priority=0, client="bob"))
    q.push(Job(4, spec(), "u0", priority=5, client="carol"))
    order = [j.id for j in q.pop_batch(5)]
    assert order[0] == 4  # highest priority first
    # fair share: bob's single job does not wait behind all of alice's
    assert order.index(3) < order.index(1)


def test_requeue_bypasses_depth_bound():
    q = JobQueue(max_depth=1)
    job = Job(1, spec(), "k1")
    q.push(job)
    q.requeue(Job(2, spec(), "k2"))  # crash-recovery path must not reject
    assert q.depth == 2


def test_pop_expired_ignores_priority_and_keeps_insertion_order():
    q = JobQueue(max_depth=16)
    # mixed priorities, interleaved deadlines: ids 1/3/5 expire at t=10,
    # ids 2/4 have no deadline or a late one
    q.push(Job(1, spec(steps=1), "k1", priority=0, submitted_s=0.0,
               deadline_s=5.0))
    q.push(Job(2, spec(steps=2), "k2", priority=9))
    q.push(Job(3, spec(steps=3), "k3", priority=9, submitted_s=0.0,
               deadline_s=5.0))
    q.push(Job(4, spec(steps=4), "k4", priority=0, submitted_s=0.0,
               deadline_s=99.0))
    q.push(Job(5, spec(steps=5), "k5", priority=4, submitted_s=0.0,
               deadline_s=5.0))
    expired = q.pop_expired(now=10.0)
    # expiry sweeps in insertion order — priority orders *dispatch*,
    # not deadline enforcement
    assert [j.id for j in expired] == [1, 3, 5]
    assert q.depth == 2
    # survivors still dispatch in priority order
    assert [j.id for j in q.pop_batch(2)] == [2, 4]
    assert q.pop_expired(now=10.0) == []


# -- service: coalescing and cache ------------------------------------------


def test_coalescing_fans_one_execution_to_all_waiters():
    svc = ExperimentService(workers=1, autostart=False)
    try:
        dup = spec(steps=4)
        jobs = [svc.submit(dup, client=f"c{i}") for i in range(4)]
        assert len({id(j) for j in jobs}) == 1  # one shared handle
        assert jobs[0].waiters == 4
        other = svc.submit(spec(steps=5))
        assert other is not jobs[0]
        svc.drain()
        reports = [j.result(timeout=10) for j in jobs]
        stats = svc.metrics_snapshot()
        assert stats["submitted"] == 5
        assert stats["coalesced"] == 3
        assert stats["executed"] == 2  # one per unique spec
        # every waiter sees the single execution bit-identically
        assert len({r.to_json() for r in reports}) == 1
        assert canon(reports[0]) == canon(Engine().run(dup))
    finally:
        svc.shutdown()


def test_cache_hits_resolve_immediately_without_the_pool(tmp_path):
    cache = ResultCache(tmp_path / "store")
    warm = spec(steps=4)
    baseline = Engine().run(warm, cache=cache)
    svc = ExperimentService(cache=cache, workers=1, autostart=False)
    try:
        job = svc.submit(warm)
        # resolved at submit time: no scheduler thread has even started
        assert job.done() and job.cache_hit
        assert job.result(timeout=0).to_json() == baseline.to_json()
        stats = svc.metrics_snapshot()
        assert stats["cache_hits"] == 1
        assert stats["executed"] == 0
        assert stats["queue_depth"] == 0
    finally:
        svc.shutdown()


# -- service: backpressure ---------------------------------------------------


def test_backpressure_rejects_at_bound_then_accepts_after_drain():
    svc = ExperimentService(workers=1, max_queue=3, autostart=False)
    try:
        for i in range(3):
            svc.submit(spec(steps=3 + i))
        with pytest.raises(QueueFull) as exc_info:
            svc.submit(spec(steps=30))
        assert exc_info.value.retry_after_s > 0
        assert svc.metrics_snapshot()["rejected"] == 1
        assert svc.drain(timeout=30)
        resubmitted = svc.submit(spec(steps=30))  # slot freed: admitted
        svc.drain(timeout=30)
        assert resubmitted.result(timeout=10).total_runtime > 0
        stats = svc.metrics_snapshot()
        assert stats["peak_queue_depth"] <= 3
        assert stats["accepted"] == 4
    finally:
        svc.shutdown()


def test_submit_after_shutdown_raises():
    svc = ExperimentService(workers=1, autostart=False)
    svc.shutdown()
    with pytest.raises(RuntimeError):
        svc.submit(spec())


def test_shutdown_without_drain_fails_pending_jobs():
    svc = ExperimentService(workers=1, autostart=False)
    job = svc.submit(spec(steps=3))
    svc.shutdown(drain=False)
    with pytest.raises(RuntimeError, match="shut down"):
        job.result(timeout=1)


# -- service: failure isolation and crash recovery ---------------------------


def test_failed_spec_fails_only_its_own_job():
    svc = ExperimentService(workers=1, autostart=False)
    try:
        good = svc.submit(spec(steps=3))
        bad = svc.submit(spec(steps=3, machine_overrides={"bogus_kw": 1}))
        svc.drain(timeout=30)
        assert good.result(timeout=10).total_runtime > 0
        assert isinstance(bad.exception(timeout=10), Exception)
        stats = svc.metrics_snapshot()
        assert stats["completed"] == 1
        assert stats["failed"] == 1
    finally:
        svc.shutdown()


class _FlakyEngine(Engine):
    """Engine whose pooled path crashes ``crashes`` times, then works."""

    def __init__(self, crashes):
        super().__init__()
        self.crashes = crashes

    def run_many(self, specs, workers=1, chunksize=1, cache=None, pool=None):
        if self.crashes > 0:
            self.crashes -= 1
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool("worker died")
        return super().run_many(
            specs, workers=1, chunksize=chunksize, cache=cache
        )


def test_broken_pool_requeues_with_bounded_retries():
    svc = ExperimentService(
        engine=_FlakyEngine(crashes=1), workers=1, autostart=False
    )
    try:
        job = svc.submit(spec(steps=3))
        svc.drain(timeout=30)
        assert job.result(timeout=10).total_runtime > 0
        stats = svc.metrics_snapshot()
        assert stats["requeued"] == 1
        assert stats["completed"] == 1
    finally:
        svc.shutdown()


def test_broken_pool_beyond_max_retries_fails_the_job():
    svc = ExperimentService(
        engine=_FlakyEngine(crashes=10),
        workers=1,
        max_retries=2,
        autostart=False,
    )
    try:
        job = svc.submit(spec(steps=3))
        svc.drain(timeout=30)
        err = job.exception(timeout=10)
        assert isinstance(err, RuntimeError)
        assert "crash" in str(err)
        assert svc.metrics_snapshot()["requeued"] == 2
    finally:
        svc.shutdown()


# -- service: done callbacks -------------------------------------------------


def test_done_callback_fires_once():
    svc = ExperimentService(workers=1, autostart=False)
    try:
        job = svc.submit(spec(steps=3))
        calls = []
        job.add_done_callback(calls.append)
        assert calls == []  # pending: nothing fires yet
        svc.drain(timeout=30)
        assert calls == [job]
        job._run_callbacks()  # a second flush is a no-op
        assert calls == [job]
    finally:
        svc.shutdown()


def test_done_callback_added_after_resolution_fires_at_once():
    svc = ExperimentService(workers=1, autostart=False)
    try:
        job = svc.submit(spec(steps=3))
        svc.drain(timeout=30)
        calls = []
        job.add_done_callback(calls.append)
        assert calls == [job]  # synchronously, in this thread
    finally:
        svc.shutdown()


def test_coalesced_waiters_all_get_their_callback():
    svc = ExperimentService(workers=1, autostart=False)
    try:
        calls = []
        jobs = [svc.submit(spec(steps=4), client=f"c{i}") for i in range(3)]
        for i, job in enumerate(jobs):
            job.add_done_callback(lambda j, i=i: calls.append((i, j)))
        svc.drain(timeout=30)
        assert sorted(i for i, _ in calls) == [0, 1, 2]
        assert all(j is jobs[0] and j.done() for _, j in calls)
        assert svc.metrics_snapshot()["coalesced"] == 2
    finally:
        svc.shutdown()


@pytest.mark.parametrize(
    "path", ["done", "failed", "deadline", "quarantine", "shutdown"]
)
def test_done_callback_runs_outside_the_service_lock(path):
    # each resolution path resolves under the service lock; its
    # callbacks must run after the lock is released, or a callback
    # waiting on another thread that needs the lock (the router's lock
    # order) deadlocks.  Every wait below is bounded, so a callback run
    # under the lock fails the test instead of hanging it.
    engine = _FlakyEngine(crashes=10 if path == "quarantine" else 0)
    svc = ExperimentService(
        engine=engine, workers=1, max_retries=0, autostart=False
    )
    submitted = {
        "done": spec(steps=3),
        "failed": spec(steps=3, machine_overrides={"bogus_kw": 1}),
        "deadline": spec(steps=3),
        "quarantine": spec(steps=3),
        "shutdown": spec(steps=3),
    }[path]
    job = svc.submit(
        submitted, deadline_s=0.0 if path == "deadline" else None
    )
    seen, lock_free, finished = [], [], threading.Event()

    def on_done(_job):
        helper = threading.Thread(
            target=lambda: seen.append(svc.metrics_snapshot())
        )
        helper.start()
        helper.join(timeout=5)
        lock_free.append(not helper.is_alive())
        finished.set()

    job.add_done_callback(on_done)
    if path == "shutdown":
        svc.shutdown(drain=False)
    else:
        svc.start()
        assert svc.drain(timeout=30)
    try:
        assert finished.wait(timeout=30)
        assert job.exception(timeout=0) is not None or path == "done"
        assert lock_free == [True]
        assert seen and seen[0]["completed"] + seen[0]["failed"] == 1
    finally:
        svc.shutdown(drain=False)


def test_raising_callback_does_not_kill_the_scheduler():
    svc = ExperimentService(workers=1)
    try:
        first = svc.submit(spec(steps=3))

        def boom(_job):
            raise RuntimeError("callback bug")

        first.add_done_callback(boom)
        assert first.result(timeout=30).total_runtime > 0
        svc.drain(timeout=30)
        assert svc.started
        second = svc.submit(spec(steps=4))
        calls = []
        second.add_done_callback(calls.append)
        assert second.result(timeout=30).total_runtime > 0
        assert svc.drain(timeout=30)
        assert calls == [second]
        # attached after resolution, a raising callback stays contained
        second.add_done_callback(boom)
    finally:
        svc.shutdown()


# -- service: concurrency and the acceptance demo ----------------------------


def test_concurrent_clients_all_get_reports():
    svc = ExperimentService(workers=1, max_queue=64)
    results = {}

    def client(i):
        job = svc.submit(spec(steps=3 + (i % 3)), client=f"c{i}")
        results[i] = canon(job.result(timeout=30))

    try:
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == 8
        # duplicates (same steps) observed identical reports
        by_steps = {}
        for i, text in results.items():
            by_steps.setdefault(3 + (i % 3), set()).add(text)
        assert all(len(v) == 1 for v in by_steps.values())
    finally:
        svc.shutdown()


def test_acceptance_demo_50_specs_40_percent_duplicates(tmp_path):
    cache = ResultCache(tmp_path / "store")
    # prewarm two specs: their submissions must never touch the pool
    prewarmed = [spec(steps=21), spec(steps=22)]
    for s in prewarmed:
        Engine().run(s, cache=cache)
    unique = [spec(steps=3 + i) for i in range(10)]  # 30 fresh specs...
    duplicated = unique[:10]
    submissions = (
        unique
        + [spec(steps=30 + i) for i in range(10)]
        + [spec(steps=50 + i) for i in range(10)]
        + duplicated + duplicated  # ...and 20 duplicate submissions (40%)
    )
    assert len(submissions) == 50
    svc = ExperimentService(
        cache=cache, workers=1, max_queue=64, autostart=False
    )
    try:
        jobs = [svc.submit(s) for s in submissions]
        for s in prewarmed:
            assert svc.submit(s).cache_hit
        svc.drain(timeout=120)
        stats = svc.metrics_snapshot()
        assert stats["coalesced"] == 20  # one per duplicate submission
        assert stats["cache_hits"] == 2
        assert stats["executed"] == 30  # unique fresh specs only
        assert stats["peak_queue_depth"] <= 64
        assert stats["wait"]["count"] > 0 and stats["run"]["count"] > 0
        assert stats["run"]["p99_s"] >= stats["run"]["p50_s"]
        # each duplicate group observed one report, bit-identically
        for i in range(10):
            texts = {
                jobs[i].result(timeout=10).to_json(),
                jobs[30 + i].result(timeout=10).to_json(),
                jobs[40 + i].result(timeout=10).to_json(),
            }
            assert len(texts) == 1
    finally:
        svc.shutdown()


def test_metrics_hub_exposes_service_section():
    svc = ExperimentService(workers=1, autostart=False)
    try:
        svc.submit(spec(steps=3))
        svc.drain(timeout=30)
        snap = svc.hub.snapshot()
        assert snap["service"]["completed"] == 1
    finally:
        svc.shutdown()


# -- latency histogram -------------------------------------------------------


def test_latency_histogram_percentiles():
    h = LatencyHistogram()
    for ms in (1, 2, 4, 8, 1000):
        h.record(ms / 1000.0)
    snap = h.snapshot()
    assert snap["count"] == 5
    assert snap["p50_s"] <= snap["p90_s"] <= snap["p99_s"] <= snap["max_s"]
    assert snap["max_s"] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        h.percentile(0.0)


# -- file-based job directory ------------------------------------------------


def test_filejob_roundtrip_with_coalesce_and_cache(tmp_path):
    jobdir = tmp_path / "jobs"
    cache = ResultCache(tmp_path / "store")
    warm = spec(steps=6)
    Engine().run(warm, cache=cache)
    dup = spec(steps=7)
    ids = [
        submit_job(jobdir, dup, client="a"),
        submit_job(jobdir, dup, client="b"),
        submit_job(jobdir, warm, client="c"),
    ]
    stats = serve_jobdir(jobdir, cache=cache, once=True)
    assert stats["coalesced"] == 1
    assert stats["cache_hits"] == 1
    assert stats["executed"] == 1
    results = [wait_result(jobdir, i, timeout=5) for i in ids]
    assert [r["status"] for r in results] == ["done"] * 3
    assert results[0]["report"] == results[1]["report"]
    assert results[1]["coalesced"] and not results[0]["coalesced"]
    assert results[2]["cache_hit"]
    metrics = json.loads((jobdir / "metrics.json").read_text())
    assert metrics["schema"] == SERVICE_METRICS_SCHEMA


def test_filejob_accepts_a_1_9_request(tmp_path):
    """A request file spooled by 1.9 (its spec carries
    ``"sim_backend": null``) is served, not rejected as malformed."""
    jobdir = tmp_path / "jobs"
    s = ExperimentSpec(mode="cb", steps=3)
    job_id = submit_job(jobdir, s)
    path = jobdir / "queue" / f"{job_id}.json"
    req = json.loads(path.read_text())
    req["spec"]["sim_backend"] = None
    path.write_text(json.dumps(req))
    stats = serve_jobdir(jobdir, once=True)
    assert stats["executed"] == 1
    result = wait_result(jobdir, job_id, timeout=5)
    assert result["status"] == "done"
    assert result["report"]["spec"] == s.to_dict()


def test_filejob_malformed_request_gets_failed_result(tmp_path):
    jobdir = tmp_path / "jobs"
    (jobdir / "queue").mkdir(parents=True)
    (jobdir / "queue" / "bad.json").write_text("{not json")
    stats = serve_jobdir(jobdir, once=True)
    assert stats["executed"] == 0
    result = wait_result(jobdir, "bad", timeout=5)
    assert result["status"] == "failed"
    assert "malformed" in result["error"]


def test_filejob_malformed_grace_is_configurable(tmp_path):
    import os
    import time

    jobdir = tmp_path / "jobs"
    (jobdir / "queue").mkdir(parents=True)
    payload = json.dumps(
        {
            "schema": "repro.job_request/1",
            "id": "torn",
            "spec": spec(steps=3).to_dict(),
        },
        sort_keys=True,
    )
    path = jobdir / "queue" / "torn.json"
    path.write_text(payload[: len(payload) // 2])  # writer died mid-write
    # age the file past the default 0.5s grace; a generous explicit
    # grace still treats it as in-flight and leaves it in place
    old = time.time() - 2.0
    os.utime(path, (old, old))
    serve_jobdir(jobdir, once=True, malformed_grace_s=3600.0)
    assert path.exists()
    assert not (jobdir / "results" / "torn.json").exists()
    # a zero grace rejects the same file immediately
    serve_jobdir(jobdir, once=True, malformed_grace_s=0.0)
    assert not path.exists()
    result = wait_result(jobdir, "torn", timeout=5)
    assert result["status"] == "failed"
    assert "malformed" in result["error"]


def test_wait_result_times_out(tmp_path):
    with pytest.raises(TimeoutError):
        wait_result(tmp_path, "nope", timeout=0.2, poll_s=0.05)


def test_cli_serve_and_submit(tmp_path, capsys):
    from repro.cli import main

    jobdir = str(tmp_path / "jobs")
    cachedir = str(tmp_path / "store")
    assert main(["run", "--steps", "6", "--cache", cachedir]) == 0
    for _ in range(2):
        assert main(["submit", "--jobdir", jobdir, "--steps", "9"]) == 0
    assert main(["submit", "--jobdir", jobdir, "--steps", "6"]) == 0
    capsys.readouterr()
    assert (
        main(["serve", "--jobdir", jobdir, "--once", "--cache", cachedir])
        == 0
    )
    out = capsys.readouterr().out
    assert "coalesced" in out
    metrics = json.loads((tmp_path / "jobs" / "metrics.json").read_text())
    assert metrics["coalesced"] == 1
    assert metrics["cache_hits"] == 1
    results = list((tmp_path / "jobs" / "results").glob("*.json"))
    assert len(results) == 3
