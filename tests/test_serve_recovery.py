"""Crash-safety tests for the durable experiment service: journal
recovery, poison-job quarantine, deadlines, the batch watchdog, client
backoff, heartbeat liveness — and the chaos harness that SIGKILLs a
real ``repro serve`` subprocess mid-batch and asserts full recovery
(no lost jobs, no duplicate results, bit-identical reports)."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.backoff import ExponentialBackoff
from repro.cache import ResultCache
from repro.engine import Engine, ExperimentSpec
from repro.serve import (
    DeadlineExceeded,
    ExperimentService,
    JobJournal,
    PoisonJobError,
    QueueFull,
    read_heartbeat,
    serve_jobdir,
    submit_job,
    wait_result,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def spec(steps=3, mode="cb", seed=20180521, **kw):
    return ExperimentSpec(mode=mode, steps=steps, seed=seed, **kw)


def canon_dict(d):
    """Report dict minus host wall-clock telemetry, as canonical JSON."""
    d = json.loads(json.dumps(d))  # deep copy
    for key in ("wall_time_s", "events_per_sec", "host_wall_s"):
        d["sim"].pop(key, None)
    return json.dumps(d, sort_keys=True)


def canon(report):
    return canon_dict(report.to_dict())


# -- in-process restart recovery ---------------------------------------------


def test_restart_recovers_unresolved_jobs(tmp_path):
    journal = tmp_path / "journal.jsonl"
    cache = ResultCache(tmp_path / "store")
    specs = [spec(steps=3 + i) for i in range(3)]
    # first service accepts three jobs and "dies" before running any
    # (autostart=False: no scheduler thread ever starts — the in-process
    # analogue of a SIGKILL between admission and dispatch)
    dead = ExperimentService(cache=cache, journal=journal, autostart=False)
    for s in specs:
        dead.submit(s)
    assert JobJournal(journal).replay().stats()["unresolved"] == 3

    svc = ExperimentService(cache=cache, journal=journal, autostart=False)
    try:
        stats = svc.metrics_snapshot()
        assert stats["recovered"] == 3
        assert stats["journal_replays"] == 1
        assert svc.queue_depth == 3
        # recovered jobs kept their original journal sequence numbers
        assert [rec.seq for rec, _ in svc.recovered_jobs] == [1, 2, 3]
        assert svc.drain(timeout=60)
        for (rec, job), s in zip(svc.recovered_jobs, specs):
            assert canon(job.result(timeout=10)) == canon(Engine().run(s))
        # resolved on replay: nothing unresolved left in the journal
        assert JobJournal(journal).replay().stats()["unresolved"] == 0
    finally:
        svc.shutdown()
    # clean shutdown compacts the journal down to its (empty) quarantine
    state = JobJournal(journal).replay()
    assert state.records == {} and state.quarantined == {}


def test_recovery_never_reruns_a_stored_report(tmp_path):
    journal = JobJournal(tmp_path / "journal.jsonl")
    cache = ResultCache(tmp_path / "store")
    s = spec(steps=5)
    baseline = Engine().run(s, cache=cache)
    # the dead process stored the report, then died before journaling
    # completion — the exact crash window _store_and_finish orders for
    journal.record_accepted(1, cache.key_for(s), s.to_dict())
    journal.record_dispatched(1)
    svc = ExperimentService(
        cache=cache, journal=journal, autostart=False
    )
    try:
        rec, job = svc.recovered_jobs[0]
        assert job.done() and job.cache_hit
        assert job.result(timeout=0).to_json() == baseline.to_json()
        stats = svc.metrics_snapshot()
        assert stats["recovered"] == 1
        assert stats["executed"] == 0  # never re-run
        assert journal.replay().records[1].state == "completed"
    finally:
        svc.shutdown()


def test_recovered_duplicate_records_coalesce(tmp_path):
    journal = JobJournal(tmp_path / "journal.jsonl")
    s = spec(steps=4)
    journal.record_accepted(1, "same-key", s.to_dict())
    journal.record_accepted(2, "same-key", s.to_dict())
    svc = ExperimentService(journal=journal, autostart=False)
    try:
        jobs = {id(job) for _, job in svc.recovered_jobs}
        assert len(jobs) == 1  # one execution serves both records
        _, job = svc.recovered_jobs[0]
        assert job.waiters == 2
        assert job.journal_seqs == [1, 2]
        assert svc.drain(timeout=30)
        state = journal.replay()
        assert state.records[1].state == "completed"
        assert state.records[2].state == "completed"
    finally:
        svc.shutdown()


def test_recovery_replays_a_1_9_journal(tmp_path):
    """Journals written by 1.9 carry ``"sim_backend": null`` in every
    accepted spec and keys under the 1.9 salt; a restart after the
    upgrade recovers them, and a fresh submit of the same spec
    coalesces with the recovered job instead of running it twice."""
    journal = JobJournal(tmp_path / "journal.jsonl")
    s = spec(steps=4)
    journal.record_accepted(1, "key-from-1.9", dict(s.to_dict(), sim_backend=None))
    svc = ExperimentService(journal=journal, autostart=False)
    try:
        assert svc.metrics_snapshot()["recovered"] == 1
        (rec, job), = svc.recovered_jobs
        assert job.spec == s
        assert svc.submit(s) is job
        assert svc.drain(timeout=30)
        assert svc.metrics_snapshot()["executed"] == 1
        assert canon(job.result(timeout=10)) == canon(Engine().run(s))
        assert journal.replay().records[1].state == "completed"
    finally:
        svc.shutdown()


def test_fresh_ids_start_above_replayed_sequences(tmp_path):
    journal = JobJournal(tmp_path / "journal.jsonl")
    journal.record_accepted(7, "k", spec(steps=3).to_dict())
    journal.record_failed(7, "gone")
    svc = ExperimentService(journal=journal, autostart=False)
    try:
        job = svc.submit(spec(steps=4))
        assert job.id == 8  # never collides with a journaled seq
    finally:
        svc.shutdown()


# -- poison-job quarantine ---------------------------------------------------


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


def test_poison_spec_quarantined_without_taking_the_service_down(tmp_path):
    journal = tmp_path / "journal.jsonl"
    svc = ExperimentService(
        engine=_FlakyEngine(crashes=2),
        max_retries=1,
        journal=journal,
        autostart=False,
    )
    try:
        bad = spec(steps=6)
        poisoned = svc.submit(bad)
        assert svc.drain(timeout=30)
        err = poisoned.exception(timeout=10)
        assert isinstance(err, PoisonJobError)
        assert "crash" in str(err)
        stats = svc.metrics_snapshot()
        assert stats["quarantined"] == 1
        assert stats["requeued"] == 1  # one isolated retry, then tripped
        # the breaker short-circuits resubmissions of the same spec...
        again = svc.submit(bad)
        assert again.done()
        assert isinstance(again.exception(timeout=0), PoisonJobError)
        assert svc.metrics_snapshot()["quarantine_hits"] == 1
        # ...while unrelated work keeps flowing (crashes are exhausted)
        good = svc.submit(spec(steps=3))
        assert svc.drain(timeout=30)
        assert good.result(timeout=10).total_runtime > 0
    finally:
        svc.shutdown()
    # quarantine persists the restart: the journaled traceback survives
    state = JobJournal(journal).replay()
    assert len(state.quarantined) == 1
    (rec,) = state.quarantined.values()
    assert "BrokenProcessPool" in (rec.traceback or "")
    svc2 = ExperimentService(journal=journal, autostart=False)
    try:
        blocked = svc2.submit(spec(steps=6))
        assert blocked.done()
        assert isinstance(blocked.exception(timeout=0), PoisonJobError)
        ok = svc2.submit(spec(steps=3))
        assert svc2.drain(timeout=30)
        assert ok.result(timeout=10).total_runtime > 0
    finally:
        svc2.shutdown()


def test_recovery_skips_quarantined_keys(tmp_path):
    journal = JobJournal(tmp_path / "journal.jsonl")
    s = spec(steps=6)
    key = "poison-key"
    journal.record_accepted(1, key, s.to_dict())
    journal.record_quarantined(1, key, "crashed the worker pool 2 times")
    journal.record_accepted(2, key, s.to_dict())  # accepted again, unresolved
    svc = ExperimentService(journal=journal, autostart=False)
    try:
        # the unresolved record was failed, not resubmitted: a poison
        # spec must not crash-loop the replacement process
        assert svc.recovered_jobs == []
        assert svc.metrics_snapshot()["recovered"] == 0
        assert journal.replay().records[2].state == "failed"
    finally:
        svc.shutdown()


# -- deadlines and the batch watchdog ----------------------------------------


def test_expired_deadline_fails_before_dispatch(tmp_path):
    journal = tmp_path / "journal.jsonl"
    svc = ExperimentService(journal=journal, autostart=False)
    try:
        job = svc.submit(spec(steps=3), deadline_s=0.01)
        time.sleep(0.05)  # expire while the scheduler is not running
        assert svc.drain(timeout=30)
        err = job.exception(timeout=10)
        assert isinstance(err, DeadlineExceeded)
        assert "deadline" in str(err)
        stats = svc.metrics_snapshot()
        assert stats["deadline_misses"] == 1
        assert stats["failed"] == 1 and stats["executed"] == 0
        assert JobJournal(journal).replay().records[1].state == "failed"
    finally:
        svc.shutdown()


def test_service_default_deadline_applies_to_submissions():
    svc = ExperimentService(deadline_s=0.01, autostart=False)
    try:
        job = svc.submit(spec(steps=3))
        time.sleep(0.05)
        assert svc.drain(timeout=30)
        assert isinstance(job.exception(timeout=10), DeadlineExceeded)
    finally:
        svc.shutdown()


class _HangingEngine(Engine):
    """Engine whose first ``run_many`` wedges until released."""

    def __init__(self, hangs=1):
        super().__init__()
        self.hangs = hangs
        self.release = threading.Event()

    def run_many(self, specs, workers=1, chunksize=1, cache=None, pool=None):
        if self.hangs > 0:
            self.hangs -= 1
            self.release.wait(20)  # a stuck pool, from the outside
        return super().run_many(
            specs, workers=1, chunksize=chunksize, cache=cache
        )


def test_batch_timeout_watchdog_requeues_and_completes():
    eng = _HangingEngine(hangs=1)
    svc = ExperimentService(
        engine=eng, batch_timeout_s=0.2, autostart=False
    )
    try:
        job = svc.submit(spec(steps=3))
        assert svc.drain(timeout=60)
        # the watchdog abandoned the hung attempt; the retry delivered
        assert job.result(timeout=10).total_runtime > 0
        stats = svc.metrics_snapshot()
        assert stats["batch_timeouts"] == 1
        assert stats["requeued"] == 1
        assert stats["completed"] == 1
    finally:
        eng.release.set()  # let the abandoned runner thread exit
        svc.shutdown()


# -- client-side resilience --------------------------------------------------


def test_submit_with_retry_backs_off_then_gives_up():
    svc = ExperimentService(max_queue=1, autostart=False)
    try:
        svc.submit(spec(steps=3))  # fills the queue
        delays = []
        with pytest.raises(QueueFull):
            svc.submit_with_retry(
                spec(steps=99),
                max_attempts=3,
                backoff=ExponentialBackoff(base_s=0.001, factor=2.0),
                sleep=delays.append,
            )
        assert len(delays) == 2  # sleeps between the 3 attempts
        # every delay honors the server's retry-after hint as a floor
        assert all(d >= 0.05 for d in delays)
        assert svc.metrics_snapshot()["rejected"] == 3
    finally:
        svc.shutdown()


def test_submit_with_retry_succeeds_once_a_slot_frees():
    svc = ExperimentService(max_queue=1, autostart=False)
    try:
        first = svc.submit(spec(steps=3))

        def sleep_then_drain(delay):
            assert delay > 0
            svc.drain(timeout=30)

        job = svc.submit_with_retry(spec(steps=4), sleep=sleep_then_drain)
        assert svc.drain(timeout=30)
        assert first.result(timeout=10).total_runtime > 0
        assert job.result(timeout=10).total_runtime > 0
    finally:
        svc.shutdown()


def test_submit_with_retry_wait_timeout_zero_fails_fast():
    svc = ExperimentService(max_queue=1, autostart=False)
    try:
        svc.submit(spec(steps=3))
        with pytest.raises(QueueFull):
            svc.submit_with_retry(
                spec(steps=99), wait_timeout_s=0.0, sleep=lambda d: None
            )
    finally:
        svc.shutdown()


def test_session_submit_lazily_serves_and_retries(tmp_path):
    from repro.api import Session

    with Session(cache=tmp_path / "store") as session:
        job = session.submit(steps=5, mode="cb", seed=20180521)
        report = job.result(timeout=30)
        assert canon(report) == canon(Engine().run(spec(steps=5)))
        # the session owns one service and reuses it
        assert session.submit(steps=5).cache_hit or job.done()
    assert session._service is None  # close() tore it down


# -- heartbeat ---------------------------------------------------------------


def test_heartbeat_beats_while_serving_and_marks_stop(tmp_path):
    hb = tmp_path / "heartbeat.json"
    svc = ExperimentService(
        heartbeat=hb, heartbeat_interval_s=0.05, autostart=True
    )
    try:
        deadline = time.monotonic() + 10
        while not hb.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        doc = read_heartbeat(hb)
        assert doc is not None
        assert doc["status"] == "serving"
        assert doc["alive"] is True
        job = svc.submit(spec(steps=3))
        assert svc.drain(timeout=30)
        assert job.result(timeout=10).total_runtime > 0
        assert svc.metrics_snapshot()["heartbeat_age_s"] < 10.0
    finally:
        svc.shutdown()
    doc = read_heartbeat(hb)
    assert doc["status"] == "stopped"
    assert doc["completed"] == 1


# -- file-based job directory: crash windows ---------------------------------


def test_truncated_request_skipped_while_fresh_then_rejected(tmp_path):
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
    stats = serve_jobdir(jobdir, once=True)
    # fresh truncation: skipped and left in place, not crashed on, not
    # rejected — the writer may still be spooling it
    assert stats["executed"] == 0
    assert path.exists()
    assert not (jobdir / "results" / "torn.json").exists()
    # once stably malformed (grace elapsed), it is rejected with a
    # typed failure result instead of being retried forever
    old = time.time() - 60.0
    os.utime(path, (old, old))
    serve_jobdir(jobdir, once=True)
    assert not path.exists()
    result = wait_result(jobdir, "torn", timeout=5)
    assert result["status"] == "failed"
    assert "malformed" in result["error"]


def test_complete_but_malformed_request_rejected_immediately(tmp_path):
    jobdir = tmp_path / "jobs"
    (jobdir / "queue").mkdir(parents=True)
    (jobdir / "queue" / "bad.json").write_text('{"spec": }')
    serve_jobdir(jobdir, once=True)
    assert not (jobdir / "queue" / "bad.json").exists()
    assert wait_result(jobdir, "bad", timeout=5)["status"] == "failed"


def test_jobdir_replays_result_lost_between_store_and_flush(tmp_path):
    jobdir = tmp_path / "jobs"
    cache = ResultCache(tmp_path / "store")
    s = spec(steps=5)
    baseline = Engine().run(s, cache=cache)
    # the dead server stored the report and journaled completion, but
    # was killed before flushing the client's result file
    journal = JobJournal(jobdir / "journal.jsonl")
    journal.record_accepted(
        1, cache.key_for(s), s.to_dict(), meta={"request_id": "r-lost"}
    )
    journal.record_dispatched(1)
    journal.record_completed(1)
    stats = serve_jobdir(jobdir, cache=cache, once=True)
    assert stats["executed"] == 0  # replayed straight out of the store
    result = wait_result(jobdir, "r-lost", timeout=5)
    assert result["status"] == "done" and result["cache_hit"]
    assert canon_dict(result["report"]) == canon(baseline)


# -- the chaos harness -------------------------------------------------------

#: seeded SIGKILL points: kill once the journal shows (op, count) —
#: after full admission, after the first dispatch, after the first
#: completion — three distinct crash windows of the service lifecycle
CHAOS_KILL_POINTS = [("accepted", 5), ("dispatched", 1), ("completed", 1)]


@pytest.mark.parametrize("op,count", CHAOS_KILL_POINTS)
def test_chaos_sigkill_recovers_without_loss(tmp_path, op, count):
    jobdir = tmp_path / "jobs"
    cachedir = tmp_path / "store"
    # ~0.1s of work per spec: wide windows between journal transitions
    specs = [spec(steps=1000 + i) for i in range(5)]
    ids = [submit_job(jobdir, s) for s in specs]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        if p
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--jobdir",
            str(jobdir),
            "--cache",
            str(cachedir),
            "--poll",
            "0.02",
            "--quiet",
        ],
        cwd=str(REPO_ROOT),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    journal = jobdir / "journal.jsonl"
    needle = f'"op":"{op}"'  # journal lines are compact-encoded
    try:
        deadline = time.monotonic() + 120
        while True:
            text = journal.read_text() if journal.exists() else ""
            if text.count(needle) >= count:
                break
            assert proc.poll() is None, "server exited before the kill point"
            assert time.monotonic() < deadline, f"never reached {needle}"
            time.sleep(0.005)
        os.kill(proc.pid, signal.SIGKILL)  # no cleanup, no goodbye
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    # a replacement server picks the directory up and finishes the work
    from repro.cli import main

    rc = main(
        [
            "serve",
            "--jobdir",
            str(jobdir),
            "--once",
            "--cache",
            str(cachedir),
            "--quiet",
        ]
    )
    assert rc == 0
    # no lost jobs: every request resolved...
    results = [wait_result(jobdir, i, timeout=10) for i in ids]
    assert [r["status"] for r in results] == ["done"] * 5
    # ...no duplicates: exactly one result file per request...
    assert len(list((jobdir / "results").glob("*.json"))) == 5
    # ...and bit-identical reports versus an uninterrupted run
    engine = Engine()
    for s, result in zip(specs, results):
        assert canon_dict(result["report"]) == canon(engine.run(s))
    metrics = json.loads((jobdir / "metrics.json").read_text())
    assert metrics["journal_replays"] >= 1
    assert metrics["quarantined"] == 0


def test_cli_serve_status_reports_dead_service(tmp_path, capsys):
    from repro.cli import main

    jobdir = tmp_path / "jobs"
    (jobdir / "queue").mkdir(parents=True)
    # a status query before any server ran: no heartbeat, no journal
    assert main(["serve", "--jobdir", str(jobdir), "--status"]) == 0
    out = capsys.readouterr().out
    assert "heartbeat: none found" in out
    # after a served run the status shows the stopped heartbeat,
    # journal figures, and the last metrics snapshot
    submit_job(jobdir, spec(steps=3))
    assert main(["serve", "--jobdir", str(jobdir), "--once"]) == 0
    capsys.readouterr()
    assert main(["serve", "--jobdir", str(jobdir), "--status"]) == 0
    out = capsys.readouterr().out
    assert "stopped cleanly" in out
    assert "journal:" in out
    assert "journal replays" in out  # metrics table rendered


def test_cli_serve_status_stale_threshold(tmp_path, capsys):
    from repro.cli import main
    from repro.serve.health import HEARTBEAT_SCHEMA

    jobdir = tmp_path / "jobs"
    jobdir.mkdir()

    def beat(pid, age_s):
        (jobdir / "heartbeat.json").write_text(
            json.dumps(
                {
                    "schema": HEARTBEAT_SCHEMA,
                    "pid": pid,
                    "time_s": time.time() - age_s,  # wall-clock-ok: faking beat age
                    "status": "serving",
                }
            )
        )

    # an alive pid with an old beat: stale past the default 30s
    # threshold, fresh under an explicit generous one
    beat(os.getpid(), age_s=100.0)
    assert main(["serve", "--jobdir", str(jobdir), "--status"]) == 1
    assert "STALE" in capsys.readouterr().out
    assert main(
        ["serve", "--jobdir", str(jobdir), "--status",
         "--stale-after-s", "1000"]
    ) == 0
    assert "STALE" not in capsys.readouterr().out
    # a tight threshold flags even a recent beat
    beat(os.getpid(), age_s=2.0)
    assert main(
        ["serve", "--jobdir", str(jobdir), "--status",
         "--stale-after-s", "0.5"]
    ) == 1
    assert "threshold 0.5s" in capsys.readouterr().out
    # a dead pid is stale no matter how fresh the beat or threshold
    reaped = subprocess.Popen([sys.executable, "-c", "pass"])
    reaped.wait()
    beat(reaped.pid, age_s=0.0)
    assert main(
        ["serve", "--jobdir", str(jobdir), "--status",
         "--stale-after-s", "1000"]
    ) == 1
    out = capsys.readouterr().out
    assert "DEAD" in out and "STALE" in out
