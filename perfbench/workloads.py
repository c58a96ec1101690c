"""The benchmark's three workloads.

A workload builds its inputs from the seed when it is constructed,
warms up, and then runs *passes*: the unit that is timed, repeated
and checked.  Constructing one imports the ``repro`` modules it
needs, so that import cost lands in set-up time.

* ``fig8_sweep`` — one serial, uncached ``repro.bench.run_fig8`` sweep
  (3 modes x 1/2/4/8 nodes per solver); the seed orders the node
  counts.  Checked against simulated runtimes and gains recorded in
  ``reference.json``.
* ``faulted_cb`` — a C+B 8+8 xPic run through ``Engine.run`` that loses
  ``bn00``/``bn01`` mid-run, once on the static supervisor and once with
  ``malleability={"enabled": True}``; the seed orders the arms and sets
  the spec seed.
* ``served_mix`` — a seeded stream of small 1-node xPic specs sent by
  one process over 2 ``FleetClient`` connections in a closed loop to a
  ``FleetFrontEnd`` over a ``FleetRouter`` with two ``LocalShard``s, each
  with its own journal and cold store.  Every pass starts a fresh
  fleet in a fresh directory, so the same stream has the same misses.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ledger import comparable_report, sum_counters

REFERENCE_PATH = Path(__file__).with_name("reference.json")

FIG8_STEPS = 150
FIG8_WARMUP_STEPS = 10

FAULTED_STEPS = 120
FAULT_T = 0.5  # simulated seconds: mid-run for C+B 8+8 at 120 steps
CKPT_INTERVAL_S = 0.25
LOST_NODES = ("bn00", "bn01")
FAULTED_WARMUP_STEPS = 16
MIN_POST_FAULT_GAIN = 1.2

#: served stream: every (mode, steps, overlap) combination once, then
#: as many repeats of earlier specs.  Job latency is bimodal (one or
#: two collector/front-end poll periods); with half the jobs repeats,
#: the median job lies on the hit path rather than on the gap between
#: the modes
SERVED_MODES = ("cluster", "booster", "cb")
SERVED_STEPS = tuple(range(5, 21))
SERVED_REPEATS = 96
SERVED_CONNECTIONS = 2
SERVED_SHARDS = 2
SERVED_SAMPLE = 6  # served reports compared with a direct Engine.run
WARMUP_SEED_OFFSET = 1_000_003
HELDOUT_SEED_OFFSET = 2_000_003

#: simulated values must match the reference to this relative tolerance
REL_TOL = 1e-9


@dataclass
class Pass:
    """One timed pass: host times, program counters, check outcome."""

    wall_s: float
    job_s: list
    counters: dict
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    #: per-layer figures that are not program counters
    layer: dict = field(default_factory=dict)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _mode_label(mode: str) -> str:
    return mode.lower().replace("+", "")


def timed_engine():
    """An ``Engine`` that records the host time of each ``run`` call."""
    from repro.engine import Engine

    class TimedEngine(Engine):
        def __init__(self):
            super().__init__()
            self.runs = []

        def run(self, spec, cache=None):
            t0 = time.perf_counter()
            report = super().run(spec, cache=cache)
            self.runs.append((spec, time.perf_counter() - t0))
            return report

    return TimedEngine()


class Fig8Sweep:
    """The paper's headline experiment, one serial sweep per pass."""

    name = "fig8_sweep"
    profiled = True
    warm_up_is_setup = False

    def __init__(self, seed: int, workdir: Path):
        from repro.bench import run_fig8

        self._run_fig8 = run_fig8
        counts = [1, 2, 4, 8]
        random.Random(seed).shuffle(counts)
        self.node_counts = tuple(counts)

    def warm_up(self) -> None:
        self._run_fig8(steps=FIG8_WARMUP_STEPS, node_counts=self.node_counts)

    def sweep(self, engine):
        return self._run_fig8(
            steps=FIG8_STEPS, node_counts=self.node_counts, engine=engine
        )

    def run_pass(self, profile=None) -> Pass:
        engine = timed_engine()
        t0 = time.perf_counter()
        if profile is None:
            result, folded = self.sweep(engine), None
        else:
            result, folded = profile.run(self.sweep, engine)
        wall = time.perf_counter() - t0
        spans = {
            f"engine.run_s.{_mode_label(spec.mode)}{spec.nodes_per_solver}":
                seconds
            for spec, seconds in engine.runs
        }
        failed, problems = self.check(result)
        return Pass(
            wall_s=wall,
            job_s=[seconds for _spec, seconds in engine.runs],
            counters=sum_counters(result.reports[k] for k in sorted(
                result.reports, key=lambda k: (k[0].value, k[1])
            )),
            attempted=len(engine.runs),
            failed=failed,
            problems=problems,
            layer={"spans": spans, "profile": folded},
        )

    @staticmethod
    def reference_of(result) -> dict:
        """The simulated outputs the gate compares, from one sweep."""
        from repro.apps.xpic import Mode

        runs = {
            f"{_mode_label(mode.value)}{n}": {
                "total_runtime": result.runtime(mode, n),
                "fields_time": result.runs[(mode, n)].fields_time,
                "particles_time": result.runs[(mode, n)].particles_time,
            }
            for (mode, n) in sorted(
                result.runs, key=lambda k: (k[0].value, k[1])
            )
        }
        gains = {
            base: {str(n): result.gain(mode, n)
                   for n in sorted(result.node_counts)}
            for base, mode in (("vs_cluster", Mode.CLUSTER),
                               ("vs_booster", Mode.BOOSTER))
        }
        return {"steps": FIG8_STEPS, "runs": runs, "gains": gains}

    def check(self, result) -> tuple:
        reference = json.loads(REFERENCE_PATH.read_text())["fig8_sweep"]
        got = self.reference_of(result)
        problems = []
        if reference["steps"] != got["steps"]:
            problems.append(
                f"reference recorded at {reference['steps']} steps, "
                f"sweep ran {got['steps']}"
            )
        bad_runs = set()
        for label, want in reference["runs"].items():
            have = got["runs"].get(label)
            if have is None:
                problems.append(f"{label}: run missing")
                bad_runs.add(label)
                continue
            for key, value in want.items():
                if not _close(have[key], value):
                    problems.append(
                        f"{label}.{key} = {have[key]!r}, reference {value!r}"
                    )
                    bad_runs.add(label)
        for base, by_n in reference["gains"].items():
            for n, value in by_n.items():
                have = got["gains"].get(base, {}).get(n)
                if have is None or not _close(have, value):
                    problems.append(
                        f"gain {base} at {n} = {have!r}, reference {value!r}"
                    )
                    bad_runs.add(f"cb{n}")
        return len(bad_runs), problems


class FaultedCB:
    """C+B 8+8 losing two Booster nodes, static and malleable arms."""

    name = "faulted_cb"
    profiled = True
    warm_up_is_setup = False

    def __init__(self, seed: int, workdir: Path):
        from repro.engine import ExperimentSpec
        from repro.resiliency import FaultEvent, FaultPlan

        rng = random.Random(seed)
        self._spec = ExperimentSpec
        self._plan = FaultPlan
        self._event = FaultEvent
        self.spec_seed = rng.randrange(2**31)
        self.arms = self.arm_specs(FAULTED_STEPS, FAULT_T, CKPT_INTERVAL_S)
        if rng.random() < 0.5:
            self.arms.reverse()

    def arm_specs(self, steps: int, fault_t: float, ckpt_s: float) -> list:
        plan = self._plan(
            [self._event(time_s=fault_t, kind="node_crash", target=node)
             for node in LOST_NODES]
        ).to_dict()
        base = dict(
            mode="cb", steps=steps, nodes_per_solver=8, fault_plan=plan,
            ckpt_interval_s=ckpt_s, seed=self.spec_seed,
        )
        return [
            ("static", self._spec(**base)),
            ("malleable", self._spec(**base, malleability={"enabled": True})),
        ]

    def warm_up(self) -> None:
        engine = timed_engine()
        scale = FAULTED_WARMUP_STEPS / FAULTED_STEPS
        for _label, spec in self.arm_specs(
            FAULTED_WARMUP_STEPS, FAULT_T * scale, CKPT_INTERVAL_S * scale
        ):
            engine.run(spec)

    def pair(self, engine) -> dict:
        return {label: engine.run(spec) for label, spec in self.arms}

    def run_pass(self, profile=None) -> Pass:
        engine = timed_engine()
        t0 = time.perf_counter()
        if profile is None:
            reports, folded = self.pair(engine), None
        else:
            reports, folded = profile.run(self.pair, engine)
        wall = time.perf_counter() - t0
        seconds = dict(zip((label for label, _ in self.arms),
                           (s for _spec, s in engine.runs)))
        failed, problems = self.check(reports)
        return Pass(
            wall_s=wall,
            job_s=list(seconds.values()),
            counters=sum_counters(
                [reports["static"], reports["malleable"]]
            ),
            attempted=len(engine.runs),
            failed=failed,
            problems=problems,
            layer={
                "spans": {f"engine.run_s.{k}": v for k, v in seconds.items()},
                "profile": folded,
            },
        )

    @staticmethod
    def check(reports) -> tuple:
        static, mall = reports["static"], reports["malleable"]
        problems = []
        for label, report in reports.items():
            if report.result["steps"] != FAULTED_STEPS:
                problems.append(
                    f"{label} arm ran {report.result['steps']} steps"
                )
        if mall.malleability.get("final_label") != "Cluster 16":
            problems.append(
                "malleable arm ended on "
                f"{mall.malleability.get('final_label')!r}, not 'Cluster 16'"
            )
        if mall.malleability.get("repartitions_count", 0) < 1:
            problems.append("malleable arm never re-partitioned")
        gain = (
            mall.resiliency["post_fault"]["steps_per_s"]
            / static.resiliency["post_fault"]["steps_per_s"]
        )
        if gain < MIN_POST_FAULT_GAIN:
            problems.append(
                f"post-fault gain {gain:.3f}x < {MIN_POST_FAULT_GAIN}x"
            )
        return (1 if problems else 0), problems


class ServedMix:
    """A closed-loop client stream against a 2-shard fleet."""

    name = "served_mix"
    profiled = False
    #: the fleet start and its warm-up stream count as set-up time
    warm_up_is_setup = True

    def __init__(self, seed: int, workdir: Path):
        from repro.engine import Engine, ExperimentSpec
        from repro.fleet import (
            FleetClient,
            FleetFrontEnd,
            FleetRouter,
            LocalShard,
            invariant_holds,
        )

        self._spec = ExperimentSpec
        self._engine = Engine
        self._client = FleetClient
        self._frontend = FleetFrontEnd
        self._router = FleetRouter
        self._shard = LocalShard
        self._invariant = invariant_holds
        self.workdir = workdir
        self.seed = seed
        self.stream, self.unique, self.sample = self.make_stream(seed)
        self._direct: dict = {}

    def make_stream(self, seed: int) -> tuple:
        """``(stream, number of unique specs, sampled stream indices)``."""
        rng = random.Random(seed)
        combos = [
            (mode, steps, overlap)
            for mode in SERVED_MODES
            for steps in SERVED_STEPS
            for overlap in (True, False)
        ]
        rng.shuffle(combos)
        uniques = [
            self._spec(mode=mode, steps=steps, overlap=overlap,
                       seed=rng.randrange(2**31))
            for mode, steps, overlap in combos
        ]
        kinds = ["repeat"] * SERVED_REPEATS + ["new"] * (len(uniques) - 1)
        rng.shuffle(kinds)
        stream = [uniques[0]]
        fresh = iter(uniques[1:])
        for kind in kinds:
            stream.append(
                next(fresh) if kind == "new" else rng.choice(stream)
            )
        sample = rng.sample(range(len(stream)), SERVED_SAMPLE)
        return stream, len(uniques), sample

    # -- one fleet, one pass --------------------------------------------------
    def serve(self, stream: list) -> tuple:
        """Start a fresh fleet, push ``stream`` through it from
        ``SERVED_CONNECTIONS`` closed-loop connections, stop it.

        Returns ``(wall_s, outcomes, metrics_snapshot)`` where outcomes
        are ``(index, seconds, RemoteJob or None, error or None)``."""
        root = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.workdir))
        shards = [
            self._shard(f"shard{i}", root / f"shard{i}")
            for i in range(SERVED_SHARDS)
        ]
        router = self._router(shards).start()
        try:
            frontend = self._frontend(router).start()
            try:
                wall, outcomes = self._drive(frontend.address, stream)
                snapshot = router.metrics_snapshot()
            finally:
                frontend.stop()
        finally:
            router.shutdown(drain=True, timeout=30)
            shutil.rmtree(root, ignore_errors=True)
        return wall, outcomes, snapshot

    def _drive(self, address: str, stream: list) -> tuple:
        lock = threading.Lock()
        cursor = iter(range(len(stream)))
        outcomes: list = []

        def take():
            with lock:
                return next(cursor, None)

        def connection(client):
            with client:
                while (i := take()) is not None:
                    t0 = time.perf_counter()
                    try:
                        job = client.submit(stream[i])
                    except Exception as exc:  # the job counts as failed
                        outcomes.append(
                            (i, time.perf_counter() - t0, None, repr(exc))
                        )
                    else:
                        outcomes.append(
                            (i, time.perf_counter() - t0, job, None)
                        )

        clients = [self._client(address) for _ in range(SERVED_CONNECTIONS)]
        threads = [
            threading.Thread(target=connection, args=(c,), daemon=True)
            for c in clients
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        wall = time.perf_counter() - t0
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client connection did not finish in 120 s")
        return wall, sorted(outcomes, key=lambda o: o[0])

    def warm_up(self) -> None:
        stream, _unique, _sample = self.make_stream(
            self.seed + WARMUP_SEED_OFFSET
        )
        self.serve(stream)

    def direct_report(self, spec) -> dict:
        key = json.dumps(spec.to_dict(), sort_keys=True)
        if key not in self._direct:
            self._direct[key] = comparable_report(self._engine().run(spec))
        return self._direct[key]

    def run_pass(self, spans=None, inputs=None) -> Pass:
        """One fresh fleet serving ``inputs`` (a :meth:`make_stream`
        result; the run's own stream by default), checked."""
        stream, unique, sample = inputs or (
            self.stream, self.unique, self.sample
        )
        since = len(spans.records) if spans is not None else 0
        wall, outcomes, snapshot = self.serve(stream)
        traced = spans.totals(since) if spans is not None else None
        failed, problems = 0, []
        reports: dict = {}
        hit_s, miss_s = [], []
        for i, seconds, job, error in outcomes:
            if job is None or job.payload.get("status") != "done":
                failed += 1
                problems.append(
                    f"job {i}: {error or job.payload.get('error')}"
                )
                continue
            reports.setdefault(job.key, job.payload["report"])
            (hit_s if job.cache_hit else miss_s).append(seconds)
        for i in sample:
            _, _, job, _ = outcomes[i]
            if job is not None and job.payload.get("status") == "done":
                served = comparable_report(job.payload["report"])
                if served != self.direct_report(stream[i]):
                    failed += 1
                    problems.append(
                        f"job {i}: served report differs from Engine.run"
                    )
        fleet, router = snapshot["fleet"], snapshot["router"]
        ledgers = [fleet] + list(snapshot["shards"].values())
        balanced = all(self._invariant(snap) for snap in ledgers)
        if not balanced:
            problems.append("fleet admission ledger does not balance")
        once = fleet["executed"] == unique and len(reports) == unique
        if not once:
            problems.append(
                f"{fleet['executed']} executions for {unique} unique specs"
            )
        if not (balanced and once):
            failed = len(outcomes)  # a fault of the whole pass fails every job
        counters = sum_counters(reports[k] for k in sorted(reports))
        counters["serve.jobs"] = len(outcomes)
        counters["serve.executed"] = fleet["executed"]
        counters["serve.deduplicated"] = (
            fleet["cache_hits"] + fleet["coalesced"]
        )
        layer = {
            "serve.cache_hits": fleet["cache_hits"],
            "serve.coalesced": fleet["coalesced"],
            "serve.executed": fleet["executed"],
            "serve.batches": fleet["batches"],
            "serve.wait_p50_ms": fleet["wait"]["p50_s"] * 1e3,
            "serve.run_p50_ms": fleet["run"]["p50_s"] * 1e3,
            "serve.exec_ratio": fleet["executed"] / unique,
            "store.hit_ratio": fleet["cache_hits"]
            / (fleet["cache_hits"] + fleet["accepted"]),
            "fleet.sticky_routed": router["sticky_routed"],
            "fleet.stolen": router["stolen"],
            "client.hit_s": hit_s,
            "client.miss_s": miss_s,
        }
        if traced is not None:
            layer["spans"] = traced
        return Pass(
            wall_s=wall,
            job_s=[seconds for _i, seconds, _job, _err in outcomes],
            counters=counters,
            attempted=len(outcomes),
            failed=failed,
            problems=problems,
            layer=layer,
        )

    def held_out(self) -> Pass:
        """One pass on a stream from a seed no other pass uses."""
        return self.run_pass(
            inputs=self.make_stream(self.seed + HELDOUT_SEED_OFFSET)
        )

    def span_targets(self, spans) -> None:
        """Declare the public methods a traced pass times."""
        from repro.engine import Engine
        from repro.fleet import FleetRouter
        from repro.serve import ExperimentService
        from repro.serve.journal import JobJournal
        from repro.store import ResultCache

        spans.wrap(FleetRouter, "submit", "fleet.route")
        spans.wrap(ExperimentService, "submit", "serve.submit")
        for op in ("accepted", "attached", "dispatched", "completed",
                   "failed"):
            spans.wrap(JobJournal, f"record_{op}", "serve.journal")
        spans.wrap(ResultCache, "get", "store.get")
        spans.wrap(ResultCache, "put", "store.put")
        spans.wrap(Engine, "run", "engine.run")


WORKLOADS = {w.name: w for w in (Fig8Sweep, FaultedCB, ServedMix)}
