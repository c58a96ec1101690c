"""The unified experiment engine: one instrumented run path.

Every consumer of the stack — CLI, claims validation, the Fig 7/8
runners, examples — describes a run as a declarative
:class:`ExperimentSpec` (machine preset, app, mode/placement, steps)
and hands it to the :class:`Engine`, which builds the machine, the MPI
runtime, and the instrumentation hub, executes the app driver, and
returns a structured :class:`RunReport` carrying the app-level result
*and* metrics from every layer (simulator, fabric links, MPI
communicators, traced phases).

This mirrors how the real DEEP-ER prototype gives one launch/measure
path (ParaStation startup + system-wide monitoring) to every
application, instead of each experiment hand-wiring its own stack.

Typical use::

    from repro.engine import Engine, ExperimentSpec

    report = Engine().run(ExperimentSpec(mode="C+B", steps=100))
    print(report.total_runtime, report.network["total_bytes"])
    report.save_chrome_trace("run.trace.json")
"""

from __future__ import annotations

import dataclasses
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from .apps import available_apps, get_app
from .apps.seismic import SeismicPlacement  # noqa: F401  (re-export)
from .apps.xpic import Mode, normalize_mode, table2_setup  # noqa: F401
from .apps.xpic.config import SpeciesConfig, XpicConfig
from .apps.xpic.supervisor import TRANSPORT_POLICY
from .hardware.machine import (
    Machine,
    build_deep_er_prototype,
    build_jureca_like,
)
from .instrument import MetricsHub
from .mpi import MPIRuntime
from .resiliency import FaultPlan, MalleabilityPolicy
from .sim import Simulator, Tracer

__all__ = [
    "ExperimentSpec",
    "RunReport",
    "SweepReport",
    "Engine",
    "MACHINE_PRESETS",
    "REPORT_SCHEMA",
    "SWEEP_SCHEMA",
    "preset_machine",
]

#: schema tag of the RunReport JSON export (bump on breaking change)
REPORT_SCHEMA = "repro.run_report/1"

#: schema tag of the SweepReport JSON export
SWEEP_SCHEMA = "repro.sweep_report/1"

#: machine presets: name -> builder taking (sim=..., **overrides)
MACHINE_PRESETS = {
    "deep-er": build_deep_er_prototype,
    "jureca": build_jureca_like,
}

def preset_machine(
    preset: str = "deep-er", sim: Optional[Simulator] = None, **overrides
) -> Machine:
    """Build a machine preset through the spec path (the one place
    machine/topology construction is wired up)."""
    return ExperimentSpec(
        preset=preset, machine_overrides=overrides
    ).build_machine(sim=sim)


def _config_to_dict(cfg: Optional[XpicConfig]) -> Optional[dict]:
    return None if cfg is None else dataclasses.asdict(cfg)


def _config_from_dict(d: Optional[dict]) -> Optional[XpicConfig]:
    if d is None:
        return None
    d = dict(d)
    species = tuple(
        SpeciesConfig(**{**s, "drift_velocity": tuple(s["drift_velocity"])})
        for s in d.pop("species", [])
    )
    if species:
        d["species"] = species
    return XpicConfig(**d)


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment run.

    ``preset`` names a machine preset (see :data:`MACHINE_PRESETS`);
    ``machine_overrides`` tweaks its builder (e.g. ``cluster_nodes=2``).
    ``app`` selects the driver ('xpic' or 'seismic'); ``mode`` is the
    placement: Cluster / Booster / C+B for xPic, Cluster / Booster /
    Split for seismic.  ``config`` optionally replaces the default
    Table II :class:`XpicConfig` (its ``steps`` then wins over
    ``steps``).  ``trace`` records per-phase intervals into a
    :class:`~repro.sim.Tracer` (slightly slower, much more visible).
    """

    preset: str = "deep-er"
    app: str = "xpic"
    mode: str = "C+B"
    steps: int = 100
    nodes_per_solver: int = 1
    overlap: bool = True
    swap_placement: bool = False
    load_balanced: bool = False
    imbalance_alpha: Optional[float] = None
    seed: int = 20180521
    trace: bool = False
    machine_overrides: Dict[str, Any] = field(default_factory=dict)
    config: Optional[XpicConfig] = None
    #: fault injection (stored as the FaultPlan dict so specs stay
    #: JSON-safe); any of these set routes the run through the
    #: supervisor and adds a ``resiliency`` report section
    fault_plan: Optional[dict] = None
    mtbf_s: Optional[float] = None
    ckpt_interval_s: Optional[float] = None
    #: canonical placement as a :class:`~repro.partition.Partition`
    #: (stored in dict form so specs stay JSON-safe).  Authoritative
    #: when set: the flat fields above are derived from it.  A *flat*
    #: partition collapses into those fields and resets to ``None`` so
    #: flat specs keep their historical shape (and cache keys); only
    #: hierarchical (nested) partitions are carried through.
    partition: Optional[dict] = None
    #: malleability policy (see :class:`~repro.resiliency.malleable.
    #: MalleabilityPolicy` for the keys).  With fault injection active,
    #: gives the supervisor the ``Retune`` recovery policy, which
    #: re-tunes the partition over the surviving machine instead of the
    #: static heal-or-degrade script.  Without faults the plain path
    #: runs — a zero-fault malleable spec is event-identical to today's
    #: engine.
    malleability: Optional[dict] = None

    def __post_init__(self):
        if self.preset not in MACHINE_PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r} "
                f"(available: {sorted(MACHINE_PRESETS)})"
            )
        app_obj = get_app(self.app)  # raises ValueError on unknown apps
        if self.steps < 0:
            raise ValueError("steps cannot be negative")
        if self.nodes_per_solver < 1:
            raise ValueError("need at least one node per solver")
        if self.partition is not None:
            from .partition import Partition

            part = Partition.coerce(self.partition)
            if self.app != "xpic":
                raise ValueError(
                    "partitions are only wired to the xpic app"
                )
            # the partition is authoritative over the flat fields
            self.mode = part.mode
            self.nodes_per_solver = part.nodes_per_solver
            self.overlap = part.overlap
            self.swap_placement = part.swap_placement
            self.partition = part.to_dict() if part.is_nested else None
        if isinstance(self.fault_plan, FaultPlan):
            self.fault_plan = self.fault_plan.to_dict()
        if self.fault_plan is not None:
            # validate eagerly so a bad plan fails at spec construction
            FaultPlan.from_dict(self.fault_plan)
        if self.mtbf_s is not None and self.mtbf_s <= 0:
            raise ValueError("mtbf_s must be positive")
        if self.ckpt_interval_s is not None and self.ckpt_interval_s <= 0:
            raise ValueError("ckpt_interval_s must be positive")
        if self.wants_resiliency and not app_obj.supports_resiliency:
            raise ValueError("fault injection is only wired to the xpic app")
        if self.malleability is not None:
            if isinstance(self.malleability, MalleabilityPolicy):
                self.malleability = self.malleability.to_dict()
            # validate eagerly so a bad policy fails at construction
            self.malleability = MalleabilityPolicy.from_dict(
                self.malleability
            ).to_dict()
            if not app_obj.supports_malleability:
                raise ValueError(
                    f"app {self.app!r} does not support malleability"
                )
        if (
            self.partition is not None
            and self.wants_resiliency
            and not self.wants_malleability
        ):
            raise ValueError(
                "a hierarchical partition under fault injection needs "
                "the malleable recovery policy: set malleability "
                "(e.g. {'enabled': True}) or run without faults"
            )
        # normalize early so bad modes fail at spec construction
        self.mode = app_obj.normalize_mode(self.mode)

    @property
    def wants_resiliency(self) -> bool:
        """True when this spec asks for the fault-injected run path
        (a plan with events, a streaming MTBF, or forced checkpoints).
        A zero-event plan alone does *not* count: it must produce the
        exact event stream of an uninjected run."""
        plan_has_events = bool(
            self.fault_plan and self.fault_plan.get("events")
        )
        return (
            plan_has_events
            or self.mtbf_s is not None
            or self.ckpt_interval_s is not None
        )

    @property
    def wants_malleability(self) -> bool:
        """True when this spec's supervised run recovers by re-tuning:
        an enabled malleability policy *and* fault injection.  Without
        faults there is nothing to adapt to, so the plain (or static
        heal-or-degrade) path runs and stays event-identical."""
        return bool(
            self.malleability
            and self.malleability.get("enabled", True)
            and self.wants_resiliency
        )

    # -- machine construction ---------------------------------------------
    def build_machine(self, sim: Optional[Simulator] = None) -> Machine:
        """Instantiate this spec's machine preset, on a fresh simulator
        unless one is supplied."""
        builder = MACHINE_PRESETS[self.preset]
        if sim is None:
            sim = Simulator()
        return builder(sim=sim, **self.machine_overrides)

    # -- (de)serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict form (inverse of :meth:`from_dict`)."""
        d = dataclasses.asdict(self)
        d["config"] = _config_to_dict(self.config)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Dicts written before 1.10 carry ``sim_backend``, the choice of
        event-queue backend then offered; every backend gave identical
        results, so the key is dropped.
        """
        d = dict(d)
        d.pop("sim_backend", None)
        d["config"] = _config_from_dict(d.get("config"))
        d["machine_overrides"] = dict(d.get("machine_overrides") or {})
        return cls(**d)


# -- keyword-only construction (deprecation shim) ---------------------------
# ExperimentSpec is keyword-only as of 1.3: positional construction
# still works through this shim but warns and will be removed in 2.0
# (see docs/ARCHITECTURE.md, "Experiment service & the repro.api
# facade").  The shim wraps the dataclass __init__ after the class is
# built so dataclasses.replace/pickle/asdict behave unchanged.
_SPEC_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(ExperimentSpec))
_spec_dataclass_init = ExperimentSpec.__init__


def _spec_kwonly_init(self, *args, **kwargs):
    """Keyword-only ``ExperimentSpec`` constructor (positional shim)."""
    if args:
        warnings.warn(
            "positional ExperimentSpec arguments are deprecated and will "
            "be removed in repro 2.0; pass every field by keyword, e.g. "
            "ExperimentSpec(preset='deep-er', mode='C+B', steps=100)",
            DeprecationWarning,
            stacklevel=2,
        )
        if len(args) > len(_SPEC_FIELD_NAMES):
            raise TypeError(
                f"ExperimentSpec takes at most {len(_SPEC_FIELD_NAMES)} "
                f"arguments ({len(args)} given)"
            )
        for name, value in zip(_SPEC_FIELD_NAMES, args):
            if name in kwargs:
                raise TypeError(
                    f"ExperimentSpec got multiple values for {name!r}"
                )
            kwargs[name] = value
    _spec_dataclass_init(self, **kwargs)


_spec_kwonly_init.__wrapped__ = _spec_dataclass_init
ExperimentSpec.__init__ = _spec_kwonly_init


class _ResultView:
    """Attribute view over a :class:`RunReport` result dict.

    Stands in for the in-memory app result object (``RunResult`` /
    ``SeismicResult``) when a report crossed a process boundary —
    ``report.result_view.total_runtime`` works identically for serial
    and pooled runs.
    """

    __slots__ = ("_d",)

    def __init__(self, d: dict):
        self._d = d

    def __getattr__(self, name: str):
        try:
            return self._d[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResultView {self._d.get('app')}/{self._d.get('mode')}>"


@dataclass
class RunReport:
    """Structured outcome of one engine run: result + cross-layer metrics.

    JSON-stable keys; all times in **seconds**.  ``run_result`` and
    ``tracer`` hold the in-memory app objects for the session that ran
    the experiment and are not serialized.
    """

    spec: dict
    result: dict
    sim: dict
    network: dict
    mpi: dict
    phases: dict
    intervals: list = field(default_factory=list)
    #: fault-injection section (empty for non-resilient runs): faults
    #: injected, transport retries, checkpoints by level, restarts,
    #: lost work seconds, degraded-mode flag
    resiliency: dict = field(default_factory=dict)
    #: malleability section (empty unless the re-tune recovery policy
    #: ran): policy, initial/final partition, re-partition events,
    #: time-to-recover, post-fault throughput
    malleability: dict = field(default_factory=dict)
    schema: str = REPORT_SCHEMA
    run_result: Any = field(default=None, repr=False, compare=False)
    tracer: Any = field(default=None, repr=False, compare=False)

    # -- convenience accessors ---------------------------------------------
    @property
    def total_runtime(self) -> float:
        """Total simulated runtime of the app in seconds."""
        return self.result.get("total_runtime", 0.0)

    @property
    def fields_time(self) -> float:
        """Critical-path field-solver time (xPic runs)."""
        return self.result.get("fields_time", 0.0)

    @property
    def particles_time(self) -> float:
        """Critical-path particle-solver time (xPic runs)."""
        return self.result.get("particles_time", 0.0)

    @property
    def comm_overhead_fraction(self) -> float:
        """Inter-module communication overhead relative to total time."""
        return self.result.get("comm_overhead_fraction", 0.0)

    def comm_stats(self, name: str) -> dict:
        """Traffic of one communicator by name (empty dict if absent)."""
        return self.mpi.get("communicators", {}).get(name, {})

    @property
    def result_view(self):
        """The in-memory app result object when available (serial runs),
        else an attribute view over :attr:`result` (pooled runs)."""
        if self.run_result is not None:
            return self.run_result
        return _ResultView(self.result)

    # -- JSON round trip ----------------------------------------------------
    def to_dict(self) -> dict:
        """The serialized form: schema tag + the six metric sections."""
        return {
            "schema": self.schema,
            "spec": self.spec,
            "result": self.result,
            "sim": self.sim,
            "network": self.network,
            "mpi": self.mpi,
            "phases": self.phases,
            "intervals": self.intervals,
            "resiliency": self.resiliency,
            "malleability": self.malleability,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to JSON with stable key order."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output."""
        try:
            return cls(
                spec=d["spec"],
                result=d["result"],
                sim=d["sim"],
                network=d["network"],
                mpi=d["mpi"],
                phases=d["phases"],
                intervals=list(d.get("intervals", [])),
                resiliency=dict(d.get("resiliency") or {}),
                malleability=dict(d.get("malleability") or {}),
                schema=d.get("schema", REPORT_SCHEMA),
            )
        except KeyError as exc:
            raise ValueError(
                f"not a {REPORT_SCHEMA} document (missing key {exc})"
            ) from None

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the report as JSON."""
        Path(path).write_text(self.to_json(indent=2))

    @classmethod
    def load(cls, path) -> "RunReport":
        return cls.from_json(Path(path).read_text())

    # -- Chrome trace export -------------------------------------------------
    def to_chrome_trace(self) -> list:
        """Chrome trace-event JSON objects (chrome://tracing, Perfetto).

        Traced phase intervals become duration ('X') events, one
        process per actor; per-link byte counters are appended as
        counter ('C') events so fabric hot spots show up next to the
        timeline.  Valid (if sparser) without tracing enabled.
        """
        actors = []
        for iv in self.intervals:
            if iv["actor"] not in actors:
                actors.append(iv["actor"])
        pid = {a: i for i, a in enumerate(actors)}
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid[a],
                "args": {"name": a},
            }
            for a in actors
        ]
        for iv in self.intervals:
            events.append(
                {
                    "name": iv["label"],
                    "cat": "phase",
                    "ph": "X",
                    "pid": pid[iv["actor"]],
                    "tid": 0,
                    "ts": iv["start"] * 1e6,
                    "dur": (iv["end"] - iv["start"]) * 1e6,
                }
            )
        net_pid = len(actors)
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": net_pid,
                "args": {"name": "fabric"},
            }
        )
        end_ts = self.total_runtime * 1e6
        for link_name, m in sorted(self.network.get("links", {}).items()):
            events.append(
                {
                    "name": f"bytes {link_name}",
                    "ph": "C",
                    "pid": net_pid,
                    "ts": end_ts,
                    "args": {"bytes": m["bytes"], "messages": m["messages"]},
                }
            )
        return events

    def save_chrome_trace(self, path) -> None:
        """Write the Chrome trace to a JSON file."""
        Path(path).write_text(json.dumps(self.to_chrome_trace()))


@dataclass
class SweepReport:
    """Outcome of one :meth:`Engine.run_many` sweep.

    ``reports`` preserves the order of the input specs regardless of
    worker scheduling.  ``workers`` is the worker count actually used
    (1 after a serial fallback); ``host_wall_s`` is the sweep's
    end-to-end host wall-clock.
    """

    reports: list
    workers: int = 1
    host_wall_s: float = 0.0
    schema: str = SWEEP_SCHEMA

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    @property
    def results(self) -> list:
        """The per-run result payloads, in spec order."""
        return [r.result for r in self.reports]

    def merged_metrics(self) -> dict:
        """Cross-layer totals aggregated over every run of the sweep."""
        merged = {
            "runs": len(self.reports),
            "sim_events": 0,
            "fast_wakeups": 0,
            "network_bytes": 0,
            "network_messages": 0,
            "fast_transfers": 0,
            "slow_transfers": 0,
            "sim_wall_s": 0.0,
            "sim_time_s": 0.0,
        }
        for r in self.reports:
            merged["sim_events"] += r.sim.get("events_processed", 0)
            merged["fast_wakeups"] += r.sim.get("fast_wakeups", 0)
            merged["sim_wall_s"] += r.sim.get("wall_time_s", 0.0)
            merged["sim_time_s"] += r.sim.get("sim_time_s", 0.0)
            merged["network_bytes"] += r.network.get("total_bytes", 0)
            merged["network_messages"] += r.network.get("total_messages", 0)
            merged["fast_transfers"] += r.network.get("fast_transfers", 0)
            merged["slow_transfers"] += r.network.get("slow_transfers", 0)
        return merged

    # -- JSON round trip ----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict form (schema, merged totals, per-run reports)."""
        return {
            "schema": self.schema,
            "workers": self.workers,
            "host_wall_s": self.host_wall_s,
            "merged": self.merged_metrics(),
            "runs": [r.to_dict() for r in self.reports],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize :meth:`to_dict` with stable key order."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepReport":
        try:
            return cls(
                reports=[RunReport.from_dict(r) for r in d["runs"]],
                workers=d.get("workers", 1),
                host_wall_s=d.get("host_wall_s", 0.0),
                schema=d.get("schema", SWEEP_SCHEMA),
            )
        except KeyError as exc:
            raise ValueError(
                f"not a {SWEEP_SCHEMA} document (missing key {exc})"
            ) from None

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the sweep report to ``path`` as indented JSON."""
        Path(path).write_text(self.to_json(indent=2))

    @classmethod
    def load(cls, path) -> "SweepReport":
        return cls.from_json(Path(path).read_text())


def _run_spec_payload(spec_dict: dict) -> dict:
    """Pool-worker entry point: run one spec (dict form), return the
    report's dict form (both sides of the boundary are plain JSON-safe
    dicts, so the payload pickles regardless of app internals)."""
    report = Engine().run(ExperimentSpec.from_dict(spec_dict))
    return report.to_dict()


def _coerce_cache(cache):
    """Accept a :class:`~repro.cache.ResultCache`, a directory path
    (str/Path), or None."""
    if cache is None:
        return None
    from .cache import ResultCache

    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


class Engine:
    """Builds the simulated stack for a spec, runs it, reports metrics."""

    def build_machine(self, spec: ExperimentSpec) -> Machine:
        """The machine a spec describes (preset + overrides), unrun."""
        return spec.build_machine()

    def run_many(
        self, specs, workers: int = 1, chunksize: int = 1, cache=None,
        pool=None,
    ) -> SweepReport:
        """Run a sweep of independent specs, optionally in parallel.

        ``workers > 1`` fans the runs out over a
        ``concurrent.futures.ProcessPoolExecutor``; results come back in
        **spec order** regardless of completion order, and each run's
        simulation is seeded/deterministic, so the per-run
        ``RunReport.result`` payloads are bit-identical to a serial
        sweep.  A worker failure re-raises the original exception.

        ``cache`` (a :class:`~repro.cache.ResultCache` or a directory
        path) memoizes runs by content-addressed spec key.  Hits are
        resolved **in the parent process** — a cached spec never spawns
        a pool worker — and only the misses are submitted; their fresh
        reports are stored on the way out.  A cached report is
        bit-identical to the report of the run that populated it.

        Serial fallback: ``workers=1``, at most one uncached spec, or
        any spec whose dict form does not pickle (e.g. exotic
        ``machine_overrides``) runs the misses in-process; only then do
        their reports keep in-memory ``run_result``/``tracer`` handles
        (pooled reports still expose ``result_view``).

        ``pool`` (an already-running ``ProcessPoolExecutor``) reuses a
        caller-owned executor instead of spawning one per sweep — the
        experiment service shares one pool across every batch.  The
        caller owns the pool's lifecycle **and its crash recovery**: a
        ``BrokenProcessPool`` from an external pool propagates instead
        of triggering the serial-rerun fallback, so the owner can
        recycle the pool and requeue.
        """
        if workers < 1:
            raise ValueError(
                f"workers must be >= 1 (got {workers}); use workers=1 "
                "for an in-process serial sweep"
            )
        cache = _coerce_cache(cache)
        specs = list(specs)
        t0 = time.perf_counter()  # wall-clock-ok: host-side telemetry only
        reports: list = [None] * len(specs)
        if cache is not None:
            for i, spec in enumerate(specs):
                reports[i] = cache.get(spec)
        misses = [i for i, r in enumerate(reports) if r is None]
        payloads = [specs[i].to_dict() for i in misses]
        use_pool = bool(misses) and (
            pool is not None or (workers > 1 and len(misses) > 1)
        )
        if use_pool:
            import pickle

            try:
                pickle.dumps(payloads)
            except Exception:
                use_pool = False  # unpicklable spec: serial fallback
        if use_pool and pool is not None:
            # external executor: the caller owns lifecycle and crash
            # recovery, so BrokenProcessPool propagates
            dicts = list(
                pool.map(_run_spec_payload, payloads, chunksize=chunksize)
            )
            for i, d in zip(misses, dicts):
                reports[i] = RunReport.from_dict(d)
        elif use_pool:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(misses))
                ) as owned_pool:
                    dicts = list(
                        owned_pool.map(
                            _run_spec_payload, payloads, chunksize=chunksize
                        )
                    )
            except BrokenProcessPool:
                # a worker died abruptly (OOM kill, segfault, interpreter
                # crash) — not an app exception, which would re-raise
                # above.  The runs are deterministic, so redo the whole
                # sweep in-process rather than losing it.
                import warnings

                warnings.warn(
                    "worker pool broke mid-sweep; rerunning all "
                    f"{len(misses)} uncached specs serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                use_pool = False
            else:
                for i, d in zip(misses, dicts):
                    reports[i] = RunReport.from_dict(d)
        if not use_pool:
            workers = 1
            for i in misses:
                reports[i] = self.run(specs[i])
        if cache is not None:
            for i in misses:
                cache.put(specs[i], reports[i])
        return SweepReport(
            reports=reports,
            workers=min(workers, max(len(misses), 1)),
            host_wall_s=time.perf_counter() - t0,  # wall-clock-ok: host-side telemetry only
        )

    def run(self, spec: ExperimentSpec, cache=None) -> RunReport:
        """Execute one experiment end to end and return its RunReport.

        ``cache`` (a :class:`~repro.cache.ResultCache` or a directory
        path) short-circuits the run when the spec's content-addressed
        key is already stored — the memoized report comes back
        bit-identical — and stores the fresh report on a miss.
        """
        cache = _coerce_cache(cache)
        if cache is not None:
            cached = cache.get(spec)
            if cached is not None:
                return cached
        report = self._run_uncached(spec, cache=cache)
        if cache is not None:
            cache.put(spec, report)
        return report

    def _run_uncached(
        self, spec: ExperimentSpec, cache=None
    ) -> RunReport:
        """The simulate-and-measure path of :meth:`run` (no lookup)."""
        t0 = time.perf_counter()  # wall-clock-ok: host-side telemetry only
        machine = spec.build_machine()
        if spec.wants_resiliency:
            # transport-level fault tolerance rides along with injection
            runtime = MPIRuntime(machine, fault_tolerance=TRANSPORT_POLICY)
        else:
            runtime = MPIRuntime(machine)
        tracer = Tracer() if spec.trace else None
        if tracer is not None:
            machine.fabric.tracer = tracer
        hub = MetricsHub(
            sim=machine.sim,
            fabric=machine.fabric,
            runtime=runtime,
            tracer=tracer,
            cache=cache,
        )

        app_obj = get_app(spec.app)
        result_obj, result, resiliency, malleability = app_obj.runner(
            spec, machine, runtime, tracer
        )
        if malleability:
            hub.attach(malleable=malleability)

        metrics = hub.snapshot()
        metrics["sim"]["host_wall_s"] = time.perf_counter() - t0  # wall-clock-ok: host-side telemetry only
        intervals = (
            [
                {
                    "actor": iv.actor,
                    "label": iv.label,
                    "start": iv.start,
                    "end": iv.end,
                }
                for iv in tracer.intervals
            ]
            if tracer is not None
            else []
        )
        return RunReport(
            spec=spec.to_dict(),
            result=result,
            sim=metrics["sim"],
            network=metrics["network"],
            mpi=metrics["mpi"],
            phases=metrics["phases"],
            intervals=intervals,
            resiliency=resiliency,
            malleability=metrics["malleability"],
            run_result=result_obj,
            tracer=tracer,
        )
