"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro run --mode cb --steps 100   # one instrumented run
    python -m repro sweep --modes cluster,booster,cb --nodes 1,2,4,8 \
        --workers 4                   # parallel sweep of independent runs
    python -m repro tune --steps 200  # autotune the C/B partition
    python -m repro serve --jobdir .jobs --workers 4   # experiment service
    python -m repro submit --jobdir .jobs --mode cb --steps 100 --wait
    python -m repro cache stats --dir .repro-cache   # manage the store
    python -m repro query --dir .repro-cache --where mode=C+B \
        --agg total_runtime          # filter + aggregate stored runs
    python -m repro table1            # Table I from the machine model
    python -m repro fig3              # fabric bandwidth/latency curves
    python -m repro fig7 [--steps N]  # single-node mode comparison
    python -m repro fig8 [--steps N]  # scaling sweep
    python -m repro report [FILE]     # benchmark digest, or one saved
                                      # Run / Sweep / Tune report JSON
    python -m repro faults --mtbf 3600 --horizon 7200 --targets bn00,bn01 \
        --out plan.json               # draw / inspect a fault plan
    python -m repro all               # everything above

``run``, ``fig7`` and ``fig8`` accept ``--fault-plan FILE`` and/or
``--mtbf SECONDS`` to execute under fault injection (checkpoint/restart
through the resilient driver; the report gains a resiliency section).
``run``, ``sweep``, ``tune``, ``serve``, ``fig7`` and ``fig8`` accept
``--cache DIR`` to memoize runs in a content-addressed result store —
a repeated spec loads its stored report instead of simulating again.

``serve`` runs the long-running experiment service over a file-based
job directory; ``submit`` drops requests into it (duplicate in-flight
specs coalesce onto one execution, cached specs are answered without
simulating).  Every experiment-running command routes through the
:class:`repro.api.Session` facade.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .api import Session
from .apps import available_apps
from .apps.xpic import Mode
from .autotune import TuneReport, TuneSpace
from .cache import ResultCache
from .engine import (
    MACHINE_PRESETS,
    Engine,
    ExperimentSpec,
    RunReport,
    SweepReport,
)
from .report import report_from_dict
from .bench import (
    FIG78_STEPS,
    fig3_series,
    fig3_sizes_bandwidth,
    fig3_sizes_latency,
    render_series,
    render_table,
    run_fig7,
    run_fig8,
)
from .hardware import table1_rows
from .resiliency import FaultPlan

__all__ = ["main"]


def _preset_machine(preset: str = "deep-er"):
    """Build an unrun machine through the engine's preset path."""
    return Engine().build_machine(ExperimentSpec(preset=preset))


def cmd_table1(_args) -> str:
    rows = table1_rows(_preset_machine())
    return render_table(
        ["Feature", "Cluster", "Booster"],
        rows,
        title="Table I: Hardware configuration of the DEEP-ER prototype",
    )


def cmd_fig3(_args) -> str:
    lat = fig3_series(_preset_machine(), fig3_sizes_latency())
    bw = fig3_series(_preset_machine(), fig3_sizes_bandwidth())
    out = [
        render_series(
            "Bytes",
            fig3_sizes_bandwidth(),
            {k: [p.bandwidth_bps / 1e6 for p in v] for k, v in bw.items()},
            title="Fig 3 (top): MPI bandwidth [MByte/s]",
        ),
        "",
        render_series(
            "Bytes",
            fig3_sizes_latency(),
            {k: [p.latency_s * 1e6 for p in v] for k, v in lat.items()},
            title="Fig 3 (bottom): MPI latency [us]",
        ),
    ]
    return "\n".join(out)


def cmd_fig7(args) -> str:
    fk = _fault_kwargs(args)
    result = run_fig7(
        steps=args.steps,
        workers=getattr(args, "workers", 1),
        fault_plan=fk.get("fault_plan"),
        mtbf_s=fk.get("mtbf_s"),
        cache=getattr(args, "cache", None),
    )
    rows = []
    for mode in Mode:
        r = result.runs[mode]
        rows.append(
            (
                mode.value,
                f"{r.fields_time:.2f}",
                f"{r.particles_time:.2f}",
                f"{r.total_runtime:.2f}",
            )
        )
    table = render_table(
        ["Mode", "Fields [s]", "Particles [s]", "Total [s]"],
        rows,
        title=f"Fig 7: single-node runtimes ({args.steps} steps)",
    )
    table += (
        f"\n\nC+B gain vs Cluster: {result.gain_vs_cluster:.3f}x (paper 1.28x)"
        f"\nC+B gain vs Booster: {result.gain_vs_booster:.3f}x (paper 1.21x)"
        f"\nfield solver Cluster advantage: "
        f"{result.field_cluster_advantage:.2f}x (paper ~6x)"
        f"\nparticle solver Booster advantage: "
        f"{result.particle_booster_advantage:.2f}x (paper ~1.35x)"
    )
    return table


def cmd_fig8(args) -> str:
    fk = _fault_kwargs(args)
    result = run_fig8(
        steps=args.steps,
        workers=getattr(args, "workers", 1),
        fault_plan=fk.get("fault_plan"),
        mtbf_s=fk.get("mtbf_s"),
        cache=getattr(args, "cache", None),
    )
    ns = result.node_counts
    out = [
        render_series(
            "Nodes/solver",
            ns,
            {m.value: [result.runtime(m, n) for n in ns] for m in Mode},
            title=f"Fig 8 (top): runtime [s] ({args.steps} steps)",
            fmt="{:.2f}",
        ),
        "",
        render_series(
            "Nodes/solver",
            ns,
            {m.value: [result.efficiency(m, n) for n in ns] for m in Mode},
            title="Fig 8 (bottom): parallel efficiency",
            fmt="{:.3f}",
        ),
        "",
        f"C+B gain at 8 nodes: {result.gain(Mode.CLUSTER, 8):.3f}x vs Cluster "
        f"(paper 1.38x), {result.gain(Mode.BOOSTER, 8):.3f}x vs Booster "
        "(paper 1.34x)",
    ]
    return "\n".join(out)


def _fault_kwargs(args) -> dict:
    """Spec fields for the --fault-plan / --mtbf / --ckpt-interval flags."""
    out = {}
    if getattr(args, "fault_plan", None):
        out["fault_plan"] = FaultPlan.load(args.fault_plan).to_dict()
    if getattr(args, "mtbf", None) is not None:
        out["mtbf_s"] = args.mtbf
    if getattr(args, "ckpt_interval", None) is not None:
        out["ckpt_interval_s"] = args.ckpt_interval
    return out


def render_fault_plan(plan: FaultPlan) -> str:
    """Human-readable table of a fault plan's schedule."""
    rows = [
        (
            f"{ev.time_s:.3f}",
            ev.kind,
            ev.target if isinstance(ev.target, str) else "<->".join(ev.target),
            "-" if ev.duration_s is None else f"{ev.duration_s:.3f}",
            "-" if ev.factor is None else f"{ev.factor:.2f}",
        )
        for ev in plan
    ]
    meta = f"{len(plan)} events, seed={plan.seed}, mtbf_s={plan.mtbf_s}"
    return render_table(
        ["Time [s]", "Kind", "Target", "Duration [s]", "Factor"],
        rows,
        title=f"Fault plan ({meta})",
    )


def cmd_faults(args) -> str:
    """Draw a Poisson fault plan (or inspect an existing one)."""
    if args.file:
        plan = FaultPlan.load(args.file)
    else:
        if args.mtbf is None or args.horizon is None:
            raise ValueError(
                "faults needs either a plan FILE to inspect or "
                "--mtbf and --horizon (plus --targets) to generate one"
            )
        # node ids, or colon-separated endpoint pairs for link faults
        targets = [
            tuple(t.split(":")) if ":" in t else t
            for t in (s.strip() for s in args.targets.split(","))
            if t
        ]
        if not targets:
            raise ValueError("--targets needs at least one node id")
        plan = FaultPlan.poisson(
            mtbf_s=args.mtbf,
            horizon_s=args.horizon,
            targets=targets,
            seed=args.seed,
            kind=args.kind,
            duration_s=args.duration,
            factor=args.factor,
        )
    text = render_fault_plan(plan)
    if args.out:
        plan.save(args.out)
        text += f"\n\nfault plan written to {args.out}"
    return text


def render_run_report(report: RunReport) -> str:
    """Human-readable digest of one RunReport."""
    spec = report.spec
    rows = [
        ("app / mode", f"{spec.get('app')} / {report.result.get('mode')}"),
        ("preset", str(spec.get("preset"))),
        ("steps", str(report.result.get("steps"))),
        ("nodes/solver", str(report.result.get("nodes_per_solver"))),
        ("total runtime [s]", f"{report.total_runtime:.4f}"),
    ]
    if report.result.get("app") == "xpic":
        rows += [
            ("fields time [s]", f"{report.fields_time:.4f}"),
            ("particles time [s]", f"{report.particles_time:.4f}"),
        ]
    rows += [
        ("comm overhead", f"{report.comm_overhead_fraction:.2%}"),
        ("network bytes", str(report.network.get("total_bytes", 0))),
        ("network messages", str(report.network.get("total_messages", 0))),
        ("sim events", str(report.sim.get("events_processed", 0))),
        ("events/sec", f"{report.sim.get('events_per_sec', 0.0):,.0f}"),
    ]
    out = [render_table(["Metric", "Value"], rows, title="Run report")]
    links = report.network.get("links", {})
    if links:
        out.append("")
        out.append(
            render_table(
                ["Link", "Bytes", "Messages", "Stall [s]"],
                [
                    (k, str(m["bytes"]), str(m["messages"]),
                     f"{m['stall_time_s']:.4f}")
                    for k, m in sorted(links.items())
                ],
                title="Per-link traffic",
            )
        )
    res = report.resiliency
    if res:
        injected = res.get("faults", {}).get("injected", {})
        transport = res.get("transport", {})
        ckpts = res.get("checkpoints", {})
        rows = [
            ("faults injected",
             ", ".join(f"{k}={v}" for k, v in injected.items() if v) or "none"),
            ("transport retries",
             f"{transport.get('retries', 0)} "
             f"(backoff {transport.get('backoff_time_s', 0.0):.4f} s)"),
            ("checkpoints",
             ", ".join(f"{k}={v}" for k, v in ckpts.items() if v) or "none"),
            ("ckpt interval [s]",
             "-" if res.get("ckpt_interval_s") is None
             else f"{res['ckpt_interval_s']:.3f}"),
            ("restarts", str(res.get("restarts", 0))),
            ("lost work [s]", f"{res.get('lost_work_s', 0.0):.4f}"),
            ("restart time [s]", f"{res.get('restart_time_s', 0.0):.4f}"),
            ("degraded mode", str(res.get("degraded_mode", False))),
            ("epochs", str(res.get("epochs", 1))),
        ]
        out.append("")
        out.append(render_table(["Metric", "Value"], rows, title="Resiliency"))
    mal = report.malleability
    if mal:
        rows = [
            ("initial partition", str(mal.get("initial_label", "-"))),
            ("final partition", str(mal.get("final_label", "-"))),
            ("recoveries", str(mal.get("recoveries", 0))),
            ("re-partitions", str(mal.get("repartitions_count", 0))),
            ("time to recover [s]",
             f"{mal.get('time_to_recover_s', 0.0):.4f}"),
            ("post-fault steps/s",
             f"{mal.get('post_fault_steps_per_s', 0.0):.2f}"),
            ("re-tune cache hits", str(mal.get("retune_memo_hits", 0))),
        ]
        out.append("")
        out.append(
            render_table(["Metric", "Value"], rows, title="Malleability")
        )
        events = mal.get("repartitions", [])
        if events:
            out.append("")
            out.append(
                render_table(
                    ["t [s]", "From", "To", "Restart step",
                     "Candidates", "Recover [s]"],
                    [
                        (f"{e.get('time_s', 0.0):.3f}",
                         str(e.get("from_label", "-")),
                         str(e.get("to_label", "-")),
                         str(e.get("restart_step") or 0),
                         str(e.get("candidates", 0)),
                         f"{e.get('recover_s', 0.0):.4f}")
                        for e in events
                    ],
                    title="Re-partition events",
                )
            )
    comms = report.mpi.get("communicators", {})
    if comms:
        out.append("")
        out.append(
            render_table(
                ["Communicator", "p2p msgs", "p2p bytes",
                 "coll msgs", "coll bytes"],
                [
                    (k, str(c["p2p_messages"]), str(c["p2p_bytes"]),
                     str(c["coll_messages"]), str(c["coll_bytes"]))
                    for k, c in sorted(comms.items())
                ],
                title="Per-communicator traffic",
            )
        )
    return "\n".join(out)


def render_cache_stats(stats: dict, title: str = "Result cache") -> str:
    """Human-readable table of one cache's store + session counters."""
    rows = [
        ("store", stats.get("root", "-")),
        ("entries", str(stats.get("entries", 0))),
        ("stored bytes", f"{stats.get('stored_bytes', 0):,}"),
        ("hits (memory / disk)",
         f"{stats.get('hits', 0)} ({stats.get('lru_hits', 0)} / "
         f"{stats.get('disk_hits', 0)})"),
        ("misses", str(stats.get("misses", 0))),
        ("LRU tier (held / capacity)",
         f"{stats.get('lru_entries', 0)} / {stats.get('lru_capacity', 0)}"),
        ("bytes read", f"{stats.get('bytes_read', 0):,}"),
        ("bytes written", f"{stats.get('bytes_written', 0):,}"),
    ]
    return render_table(["Metric", "Value"], rows, title=title)


def _spec_from_args(args) -> ExperimentSpec:
    """Build the ExperimentSpec the run/submit spec flags describe."""
    return ExperimentSpec(
        preset=args.preset,
        app=args.app,
        mode=args.mode,
        steps=args.steps,
        nodes_per_solver=args.nodes,
        overlap=not args.no_overlap,
        swap_placement=args.swap_placement,
        seed=args.seed,
        trace=getattr(args, "trace", False)
        or bool(getattr(args, "chrome_trace", None)),
        malleability=(
            {"enabled": True}
            if getattr(args, "malleable", False)
            else None
        ),
        **_fault_kwargs(args),
    )


def cmd_run(args) -> str:
    """Run one experiment through a Session and print its report."""
    spec = _spec_from_args(args)
    session = Session(cache=getattr(args, "cache", None))
    cache = session.cache
    report = session.run(spec)
    if args.json:
        report.save(args.json)
    if args.chrome_trace:
        report.save_chrome_trace(args.chrome_trace)
    text = render_run_report(report)
    if cache is not None:
        text += "\n\n" + render_cache_stats(cache.stats())
    notes = []
    if cache is not None:
        notes.append(
            "result cache: hit (report loaded, nothing simulated)"
            if cache.hits
            else "result cache: miss (report stored for next time)"
        )
    if args.json:
        notes.append(f"report JSON written to {args.json}")
    if args.chrome_trace:
        notes.append(f"Chrome trace written to {args.chrome_trace}")
    if notes:
        text += "\n\n" + "\n".join(notes)
    return text


def cmd_validate(args) -> str:
    from .validate import render_claims, validate_claims

    return render_claims(
        validate_claims(steps=args.steps, workers=getattr(args, "workers", 1))
    )


def render_sweep_report(sweep: SweepReport, title: str = "") -> str:
    """Human-readable digest of one SweepReport (the one sweep-table
    renderer: ``repro sweep`` and ``repro report FILE`` both use it)."""
    rows = [
        (
            r.result.get("mode", "-"),
            str(r.result.get("nodes_per_solver", "-")),
            f"{r.total_runtime:.4f}",
            f"{r.comm_overhead_fraction:.2%}",
            str(r.sim.get("events_processed", 0)),
        )
        for r in sweep.reports
    ]
    out = [
        render_table(
            ["Mode", "Nodes/solver", "Total [s]", "Comm overhead", "Events"],
            rows,
            title=title
            or (
                f"Sweep: {len(sweep)} runs, {sweep.workers} worker"
                f"{'s' if sweep.workers != 1 else ''}"
            ),
        )
    ]
    m = sweep.merged_metrics()
    out.append(
        f"\n{m['runs']} runs in {sweep.host_wall_s:.2f} s host wall-clock — "
        f"{m['sim_events']:,} events, {m['network_messages']:,} messages "
        f"({m['fast_transfers']:,} fast / {m['slow_transfers']:,} queued "
        f"transfers), {m['network_bytes']:,} bytes on the fabric"
    )
    return "\n".join(out)


def cmd_sweep(args) -> str:
    """Run a cross product of modes x node counts through a Session."""
    try:
        modes = [m.strip() for m in args.modes.split(",") if m.strip()]
        nodes = [int(n) for n in args.nodes.split(",") if n.strip()]
    except ValueError as exc:
        raise ValueError(f"bad sweep axis: {exc}") from None
    if not modes or not nodes:
        raise ValueError("sweep needs at least one mode and one node count")
    session = Session(cache=getattr(args, "cache", None), workers=args.workers)
    specs = session.specs(
        base=dict(
            preset=args.preset,
            app=args.app,
            steps=args.steps,
            seed=args.seed,
        ),
        mode=modes,
        nodes_per_solver=nodes,
    )
    cache = session.cache
    sweep = session.sweep(specs)
    if args.json:
        sweep.save(args.json)
    out = [
        render_sweep_report(
            sweep,
            title=(
                f"Sweep: {args.app} on {args.preset}, {args.steps} steps "
                f"({len(specs)} runs, {sweep.workers} worker"
                f"{'s' if sweep.workers != 1 else ''})"
            ),
        )
    ]
    if cache is not None:
        stats = cache.stats()
        out.append(
            f"result cache: {stats['hits']} hit(s), {stats['misses']} "
            f"miss(es), {stats['entries']} stored entr"
            f"{'y' if stats['entries'] == 1 else 'ies'}"
        )
    if args.json:
        out.append(f"sweep report JSON written to {args.json}")
    return "\n".join(out)


def render_report(report) -> str:
    """Render any registered report type, dispatching on its class.

    The one renderer behind ``repro report FILE``: RunReport,
    SweepReport, and TuneReport documents all come through here.
    """
    if isinstance(report, SweepReport):
        return render_sweep_report(report)
    if isinstance(report, TuneReport):
        return render_tune_report(report)
    if isinstance(report, RunReport):
        return render_run_report(report)
    raise ValueError(
        f"no renderer for report type {type(report).__name__}"
    )


def cmd_report(args) -> str:
    """Render any saved schema-tagged report, or compose archived
    benchmark tables."""
    import json as _json
    import pathlib

    if getattr(args, "file", None):
        doc = _json.loads(pathlib.Path(args.file).read_text())
        return render_report(report_from_dict(doc))

    if getattr(args, "results", None) is not None:
        results = pathlib.Path(args.results)
        if not results.is_dir():
            raise FileNotFoundError(f"no results directory {results}")
    else:
        # the repository the package was installed from, not the CWD
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        results = repo_root / "benchmarks" / "_results"
    if not results.is_dir():
        return (
            "no archived results found — run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    order = [
        "table1", "fig3_latency", "fig3_bandwidth", "table2", "fig7",
        "fig8_runtime", "fig8_efficiency", "fig8_gains",
    ]
    files = sorted(
        results.glob("*.txt"),
        key=lambda p: (order.index(p.stem) if p.stem in order else 99, p.stem),
    )
    parts = ["# Benchmark results", ""]
    for path in files:
        parts.append(f"## {path.stem}")
        parts.append("")
        parts.append("```")
        parts.append(path.read_text().rstrip())
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def render_tune_report(report: TuneReport) -> str:
    """Human-readable digest of one TuneReport."""
    out = []
    for g, gen in enumerate(report.generations):
        rows = [
            (
                e["label"],
                f"{e['predicted_s']:.4f}",
                f"{e['measured_s']:.4f}",
            )
            for e in gen["evaluated"]
        ]
        out.append(
            render_table(
                ["Partition", "Predicted [s]", "Measured [s]"],
                rows,
                title=(
                    f"Generation {g + 1}/{len(report.generations)} "
                    f"({gen['steps']} steps, {len(rows)} candidates)"
                ),
            )
        )
        out.append("")
    best = report.best_config
    lines = [
        f"best partition: {best.label()}  "
        f"({report.best_runtime_s:.4f} s at {report.steps} steps)",
        f"searched {report.candidates_considered} candidates with "
        f"{report.evaluations} measured runs",
        f"model-vs-measured error (final generation): "
        f"{report.model.get('mean_abs_rel_err', 0.0):.1%}",
    ]
    if report.baseline:
        lines.append(
            f"hand-coded {report.baseline['label']}: "
            f"{report.baseline['measured_s']:.4f} s -> tuned speedup "
            f"{report.speedup_vs_baseline:.3f}x"
        )
    out.append("\n".join(lines))
    if report.cache:
        out.append("")
        out.append(render_cache_stats(report.cache))
    return "\n".join(out)


def cmd_tune(args) -> str:
    """Autotune the Cluster/Booster partition for the xPic workload."""
    try:
        node_counts = tuple(
            int(n) for n in args.nodes.split(",") if n.strip()
        )
    except ValueError as exc:
        raise ValueError(f"bad --nodes list: {exc}") from None
    space = TuneSpace(node_counts=node_counts)
    session = Session(cache=args.cache, workers=args.workers)
    report = session.tune(
        space=space,
        nested=getattr(args, "nested", False),
        steps=args.steps,
        preset=args.preset,
        generations=args.generations,
        population=args.population,
        eta=args.eta,
        min_steps=args.min_steps,
        seed=args.seed,
        baseline=not args.no_baseline,
    )
    text = render_tune_report(report)
    if args.json:
        report.save(args.json)
        text += f"\n\ntune report JSON written to {args.json}"
    return text


def render_service_metrics(stats: dict, title: str = "Experiment service") -> str:
    """Human-readable table of one service metrics snapshot."""
    wait = stats.get("wait", {})
    run = stats.get("run", {})

    def _lat(h: dict) -> str:
        if not h.get("count"):
            return "-"
        return (
            f"n={h['count']} p50={h.get('p50_s', 0.0) * 1e3:.1f}ms "
            f"p90={h.get('p90_s', 0.0) * 1e3:.1f}ms "
            f"p99={h.get('p99_s', 0.0) * 1e3:.1f}ms"
        )

    rows = [
        ("submitted", str(stats.get("submitted", 0))),
        ("accepted", str(stats.get("accepted", 0))),
        ("coalesced", str(stats.get("coalesced", 0))),
        ("cache hits", str(stats.get("cache_hits", 0))),
        ("rejected (queue full)", str(stats.get("rejected", 0))),
        ("executed / completed / failed",
         f"{stats.get('executed', 0)} / {stats.get('completed', 0)} / "
         f"{stats.get('failed', 0)}"),
        ("requeued (worker crash)", str(stats.get("requeued", 0))),
        ("batches", str(stats.get("batches", 0))),
        ("recovered from journal", str(stats.get("recovered", 0))),
        ("journal replays", str(stats.get("journal_replays", 0))),
        ("quarantined (poison specs)",
         f"{stats.get('quarantined', 0)} "
         f"(+{stats.get('quarantine_hits', 0)} short-circuited)"),
        ("deadline misses", str(stats.get("deadline_misses", 0))),
        ("batch timeouts (watchdog)", str(stats.get("batch_timeouts", 0))),
        ("heartbeat age", f"{stats.get('heartbeat_age_s', 0.0):.1f}s"),
        ("queue depth (now / peak)",
         f"{stats.get('queue_depth', 0)} / "
         f"{stats.get('peak_queue_depth', 0)}"),
        ("in flight (now / peak)",
         f"{stats.get('in_flight', 0)} / {stats.get('peak_in_flight', 0)}"),
        ("wait latency", _lat(wait)),
        ("run latency", _lat(run)),
    ]
    return render_table(["Metric", "Value"], rows, title=title)


def render_serve_status(jobdir, stale_after_s: float = 30.0):
    """One-shot liveness/metrics report of a served job directory.

    Returns ``(text, exit_code)``: code 1 when the directory claims a
    serving process that is stale — its pid is gone, or its last beat
    is older than ``stale_after_s`` — so scripts and monitors can
    alert on ``repro serve --status`` without parsing the text.  A
    directory that never served, or whose service stopped cleanly, is
    not stale (code 0).
    """
    import json
    from pathlib import Path

    from .serve import read_heartbeat

    jobdir = Path(jobdir).expanduser()
    lines = [f"service status for {jobdir}:"]
    stale = False
    hb = read_heartbeat(jobdir / "heartbeat.json")
    if hb is None:
        lines.append(
            "  heartbeat: none found (service never ran here, or "
            "predates durability)"
        )
    else:
        liveness = "alive" if hb["alive"] else "DEAD"
        if hb.get("status") == "stopped":
            liveness = "stopped cleanly"
        else:
            stale = (not hb["alive"]) or hb["age_s"] > stale_after_s
        if stale:
            liveness += f" (STALE: threshold {stale_after_s:g}s)"
        lines.append(
            f"  heartbeat: {hb.get('status', '?')} — pid {hb.get('pid')} "
            f"{liveness}, last beat {hb['age_s']:.1f}s ago"
        )
        lines.append(
            f"  work: {hb.get('queue_depth', 0)} queued, "
            f"{hb.get('in_flight', 0)} in flight, "
            f"{hb.get('completed', 0)} completed, "
            f"{hb.get('failed', 0)} failed, "
            f"{hb.get('quarantined', 0)} quarantined"
        )
    journal = jobdir / "journal.jsonl"
    if journal.exists():
        from .serve import JobJournal

        stats = JobJournal(journal).replay().stats()
        lines.append(
            f"  journal: {stats['records']} record(s), "
            f"{stats['unresolved']} unresolved, "
            f"{stats['quarantined']} quarantined key(s), "
            f"{stats['dropped_lines']} torn line(s)"
        )
    try:
        metrics = json.loads((jobdir / "metrics.json").read_text())
    except (OSError, ValueError):
        metrics = None
    if metrics is not None:
        lines.append("")
        lines.append(
            render_service_metrics(
                metrics, title=f"Last metrics snapshot ({jobdir})"
            )
        )
    return "\n".join(lines), (1 if stale else 0)


def cmd_serve(args) -> str:
    """Run the experiment service over a file-based job directory."""
    from pathlib import Path

    from .serve import serve_jobdir

    if getattr(args, "status", False):
        return render_serve_status(
            args.jobdir,
            stale_after_s=getattr(args, "stale_after_s", None) or 30.0,
        )
    session = Session(cache=getattr(args, "cache", None), workers=args.workers)
    jobdir = Path(args.jobdir).expanduser()
    durable = not getattr(args, "no_journal", False)
    service = session.serve(
        max_queue=args.max_queue,
        autostart=not args.once,
        journal=(jobdir / "journal.jsonl") if durable else None,
        heartbeat=(jobdir / "heartbeat.json") if durable else None,
        deadline_s=getattr(args, "deadline", None),
        batch_timeout_s=getattr(args, "batch_timeout", None),
    )
    try:
        stats = serve_jobdir(
            args.jobdir,
            service=service,
            poll_s=args.poll,
            max_seconds=args.max_seconds,
            once=args.once,
            log=None if args.quiet else (lambda msg: print(msg, flush=True)),
        )
    finally:
        service.shutdown(drain=True)
    return render_service_metrics(
        stats, title=f"Experiment service ({args.jobdir})"
    )


def cmd_submit(args) -> str:
    """Submit one experiment request to a running service's job dir."""
    from .serve import submit_job, wait_result

    spec = _spec_from_args(args)
    job_id = submit_job(
        args.jobdir,
        spec,
        priority=args.priority,
        client=args.client,
        deadline_s=getattr(args, "deadline", None),
    )
    if not args.wait:
        return f"submitted {job_id} to {args.jobdir}"
    wait_timeout = getattr(args, "wait_timeout", None)
    if wait_timeout is None:
        wait_timeout = args.timeout
    result = wait_result(args.jobdir, job_id, timeout=wait_timeout)
    lines = [
        f"job {job_id}: {result['status']}"
        + (" (cache hit)" if result.get("cache_hit") else "")
        + (" (coalesced)" if result.get("coalesced") else "")
    ]
    if result["status"] == "done":
        report = RunReport.from_dict(result["report"])
        if args.json:
            report.save(args.json)
            lines.append(f"report JSON written to {args.json}")
        lines.append("")
        lines.append(render_run_report(report))
    else:
        lines.append(f"error: {result.get('error')}")
    return "\n".join(lines)


def render_fleet_status(metrics: dict):
    """Render one aggregated fleet metrics document.

    Returns ``(text, exit_code)``: code 1 when the fleet-wide ledger
    invariant (``submitted == accepted + coalesced + cache_hits +
    rejected + quarantine_hits``) does not hold in the merged
    snapshot, so scripts can alert on ``repro fleet status``.
    """
    from .fleet import invariant_holds

    fleet = metrics.get("fleet", {})
    router = metrics.get("router", {})
    lines = [
        render_service_metrics(
            fleet,
            title=f"Fleet ({fleet.get('shards', 0)} live shard(s))",
        )
    ]
    shares = router.get("ring_shares", {})
    for name, snap in sorted((metrics.get("shards") or {}).items()):
        share = shares.get(name)
        title = f"Shard {name}" + (
            f" — ring share {share:.1%}" if share is not None else ""
        )
        lines.append("")
        lines.append(render_service_metrics(snap, title=title))
    rows = [
        ("routed (sticky / stolen)",
         f"{router.get('routed', 0)} ({router.get('sticky_routed', 0)} / "
         f"{router.get('stolen', 0)})"),
        ("stolen results synced home", str(router.get("synced", 0))),
        ("rejected (shard queue full)",
         str(router.get("rejected_full", 0))),
        ("shard deaths / restarts",
         f"{router.get('shard_deaths', 0)} / {router.get('restarts', 0)}"),
        ("ring rebalances", str(router.get("rebalanced", 0))),
        ("rerouted jobs", str(router.get("rerouted_jobs", 0))),
        ("outstanding / in-flight keys",
         f"{router.get('outstanding', 0)} / "
         f"{router.get('inflight_keys', 0)}"),
        ("shards live / total",
         f"{router.get('shards_live', 0)} / "
         f"{router.get('shards_total', 0)}"),
    ]
    lost = router.get("shards_lost") or []
    if lost:
        rows.append(("shards lost (ring rebalanced)", ", ".join(lost)))
    lines.append("")
    lines.append(render_table(["Metric", "Value"], rows, title="Router"))
    lines.append("")
    if invariant_holds(fleet):
        lines.append(
            "fleet ledger: submitted == accepted + coalesced + cache hits "
            "+ rejected + quarantine hits (holds)"
        )
        return "\n".join(lines), 0
    lines.append(
        "fleet ledger VIOLATION: submitted != accepted + coalesced + "
        "cache hits + rejected + quarantine hits"
    )
    return "\n".join(lines), 1


def _cmd_fleet_serve(args):
    """Boot N shards + router + TCP front end; serve until stopped."""
    import time
    from pathlib import Path

    from .fleet import FleetFrontEnd, FleetRouter, LocalShard, ProcessShard

    root = Path(args.root).expanduser()
    shards = []
    for i in range(args.shards):
        name = f"shard-{i:02d}"
        cls = ProcessShard if args.process else LocalShard
        shards.append(
            cls(
                name,
                root / name,
                workers=args.workers,
                max_queue=args.max_queue,
            )
        )
    router = FleetRouter(shards, stale_after_s=args.stale_after_s)
    router.start()
    front = FleetFrontEnd(router, host=args.host, port=args.port).start()
    if not args.quiet:
        kind = "process" if args.process else "in-process"
        print(
            f"fleet: {args.shards} {kind} shard(s) under {root}",
            flush=True,
        )
        print(f"fleet: serving on {front.address}", flush=True)
    try:
        deadline = (
            None
            if args.max_seconds is None
            else time.monotonic() + args.max_seconds  # wall-clock-ok: CLI serving bound
        )
        while deadline is None or time.monotonic() < deadline:  # wall-clock-ok: CLI serving bound
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        front.stop()
        router.drain(timeout=30.0)
        snapshot = router.metrics_snapshot()
        router.shutdown(drain=False)
    return render_fleet_status(snapshot)


def _cmd_fleet_submit(args):
    """Submit one spec to a running fleet front end and render it."""
    from .fleet import FleetClient, FleetClientError

    spec = _spec_from_args(args)
    try:
        with FleetClient(args.address, timeout_s=args.timeout) as client:
            job = client.submit(
                spec,
                priority=args.priority,
                client=args.client,
                deadline_s=getattr(args, "deadline", None),
            )
    except FleetClientError as exc:
        raise ValueError(f"fleet submit failed: {exc}") from exc
    except OSError as exc:
        raise ValueError(
            f"cannot reach fleet at {args.address}: {exc}"
        ) from exc
    flags = (
        (" (cache hit)" if job.cache_hit else "")
        + (" (coalesced)" if job.coalesced else "")
        + (" (stolen)" if job.stolen else "")
    )
    lines = [
        f"fleet job {job.id} on shard {job.shard}: "
        f"{job.payload.get('status')}{flags}"
    ]
    error = job.exception()
    if error is not None:
        lines.append(f"error: {error}")
        return "\n".join(lines), 1
    report = job.result()
    if args.json:
        report.save(args.json)
        lines.append(f"report JSON written to {args.json}")
    lines.append("")
    lines.append(render_run_report(report))
    return "\n".join(lines)


def _cmd_fleet_status(args):
    """Fetch + render the aggregated metrics of a running fleet."""
    from .fleet import FleetClient, FleetClientError

    try:
        with FleetClient(
            args.address, timeout_s=args.timeout, max_attempts=1
        ) as client:
            metrics = client.status()
    except FleetClientError as exc:
        raise ValueError(f"fleet status failed: {exc}") from exc
    except OSError as exc:
        raise ValueError(
            f"cannot reach fleet at {args.address}: {exc}"
        ) from exc
    return render_fleet_status(metrics)


def cmd_fleet(args):
    """Fleet verbs: serve N shards behind a router, submit, status."""
    if args.verb == "serve":
        return _cmd_fleet_serve(args)
    if args.verb == "submit":
        return _cmd_fleet_submit(args)
    return _cmd_fleet_status(args)


def cmd_cache(args) -> str:
    """Manage a result store: stats, prune, verify, export, import."""
    cache = ResultCache(args.dir)
    if args.verb == "stats":
        return render_cache_stats(cache.stats())
    if args.verb == "prune":
        outcome = cache.prune(
            max_bytes=args.max_bytes,
            policy=args.policy,
            max_age_s=args.max_age_s,
        )
        return (
            f"pruned {outcome['removed']} entr"
            f"{'y' if outcome['removed'] == 1 else 'ies'} "
            f"({outcome['freed_bytes']:,} bytes freed, "
            f"{outcome['kept']} kept, policy {outcome['policy']})"
        )
    if args.verb == "export":
        if not args.out:
            raise ValueError("cache export needs --out FILE")
        outcome = cache.export_bundle(args.out, where=args.where or None)
        return (
            f"exported {outcome['exported']} entr"
            f"{'y' if outcome['exported'] == 1 else 'ies'} "
            f"({outcome['bytes']:,} bytes) to {outcome['path']}"
        )
    if args.verb == "import":
        if not args.file:
            raise ValueError("cache import needs --file BUNDLE")
        outcome = cache.import_bundle(args.file)
        return (
            f"imported {outcome['imported']} entr"
            f"{'y' if outcome['imported'] == 1 else 'ies'}, "
            f"{outcome['coalesced']} already present (coalesced), "
            f"{outcome['skipped_salt']} skipped (foreign salt)"
        )
    # verify
    outcome = cache.verify(repair=args.repair)
    idx = outcome["index"]
    lines = [
        f"{outcome['ok']} entr{'y' if outcome['ok'] == 1 else 'ies'} ok, "
        f"{len(outcome['corrupt'])} corrupt, "
        f"{len(outcome['mismatched'])} key-mismatched; index "
        + ("STALE" if idx["stale"] else "consistent")
    ]
    for name in outcome["corrupt"]:
        lines.append(f"  corrupt: {name}")
    for name in outcome["mismatched"]:
        lines.append(f"  mismatched: {name}")
    for key in idx["unindexed_blobs"]:
        lines.append(f"  unindexed blob: {key}")
    for key in idx["dangling_rows"]:
        lines.append(f"  dangling index row: {key}")
    if idx["dropped_lines"]:
        lines.append(f"  torn/invalid index lines: {idx['dropped_lines']}")
    if args.repair:
        lines.append(f"removed {outcome['removed']} bad entr"
                     f"{'y' if outcome['removed'] == 1 else 'ies'}; "
                     "index rebuilt from blobs")
    return "\n".join(lines)


def cmd_query(args) -> str:
    """Filter + aggregate stored runs from the store's columnar index."""
    cache = ResultCache(args.dir)
    fields = [f.strip() for f in (args.fields or "").split(",") if f.strip()]
    rows = cache.query(
        where=args.where or None, fields=fields, limit=args.limit
    )
    shown = [
        "key", "app", "mode", "preset", "steps", "nodes_per_solver",
        "total_runtime",
    ] + [f for f in fields if f not in (
        "key", "app", "mode", "preset", "steps", "nodes_per_solver",
        "total_runtime",
    )]

    def _cell(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)

    table_rows = [
        tuple(
            (r["key"][:10] if c == "key" else _cell(r.get(c)))
            for c in shown
        )
        for r in rows
    ]
    where_label = " ".join(args.where) if args.where else "all runs"
    out = [
        render_table(
            shown,
            table_rows,
            title=f"Stored runs: {where_label} ({len(rows)} matched)",
        )
    ]
    group_by = getattr(args, "group_by", None)
    if group_by and not args.agg:
        raise ValueError("--group-by needs --agg FIELD to aggregate")
    if args.agg:
        agg = cache.aggregate(
            args.agg, where=args.where or None, group_by=group_by
        )
        if group_by:
            out.append("")
            if agg.get("groups"):
                out.append(
                    render_table(
                        [group_by, "count", "mean", "min", "max",
                         "p50", "p90", "p99"],
                        [
                            (
                                "-" if g["group"] is None else str(g["group"]),
                                str(g["count"]),
                            )
                            + tuple(
                                f"{g[k]:.4f}" if g["count"] else "-"
                                for k in ("mean", "min", "max",
                                          "p50", "p90", "p99")
                            )
                            for g in agg["groups"]
                        ],
                        title=f"Aggregate: {args.agg} per {group_by}",
                    )
                )
            else:
                out.append(
                    f"no rows to group by {group_by!r} for {args.agg!r}"
                )
        elif agg["count"]:
            out.append("")
            out.append(
                render_table(
                    ["Statistic", "Value"],
                    [
                        ("count", str(agg["count"])),
                        ("mean", f"{agg['mean']:.4f}"),
                        ("min", f"{agg['min']:.4f}"),
                        ("max", f"{agg['max']:.4f}"),
                        ("p50", f"{agg['p50']:.4f}"),
                        ("p90", f"{agg['p90']:.4f}"),
                        ("p99", f"{agg['p99']:.4f}"),
                    ],
                    title=f"Aggregate: {args.agg}",
                )
            )
        else:
            out.append(f"\nno numeric values of {args.agg!r} matched")
    if args.json:
        import json as _json
        import pathlib

        doc = {"rows": rows}
        if args.agg:
            doc["aggregate"] = cache.aggregate(
                args.agg, where=args.where or None, group_by=group_by
            )
        pathlib.Path(args.json).write_text(_json.dumps(doc, indent=2))
        out.append(f"\nquery result JSON written to {args.json}")
    return "\n".join(out)


def cmd_bench(args) -> str:
    """Run + archive the microbench suite, then apply the regression
    gate — the same two steps CI runs, reproducible locally."""
    import importlib.util
    import io
    import pathlib
    import subprocess
    import sys as _sys
    from contextlib import redirect_stdout

    repo_root = pathlib.Path(__file__).resolve().parents[2]
    bench_dir = repo_root / "benchmarks"
    if not bench_dir.is_dir():
        raise FileNotFoundError(
            f"benchmark suite not found at {bench_dir} "
            "(repro bench needs the source checkout)"
        )
    lines = []
    if not args.gate_only:
        targets = (
            ["benchmarks/"]
            if args.all
            else [
                "benchmarks/test_events_per_sec.py",
                "benchmarks/test_messages_per_sec.py",
                "benchmarks/test_cache_lookup.py",
                "benchmarks/test_journal_append.py",
                "benchmarks/test_fleet_router.py",
                "benchmarks/test_malleable_recover.py",
                "benchmarks/test_cold_start.py",
            ]
        )
        cmd = [_sys.executable, "-m", "pytest", "--benchmark-only", "-q"]
        cmd += targets
        proc = subprocess.run(cmd, cwd=repo_root)
        if proc.returncode != 0:
            raise ValueError(
                f"benchmark run failed (pytest exit {proc.returncode})"
            )
        lines.append(
            f"microbenchmarks archived under {bench_dir / '_results'}"
        )
    results = sorted((bench_dir / "_results").glob("*.json"))
    if not results:
        raise FileNotFoundError(
            "no archived benchmark results to gate — run `repro bench` "
            "without --gate-only first"
        )
    spec = importlib.util.spec_from_file_location(
        "check_regression", bench_dir / "check_regression.py"
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = gate.main(
            [str(p) for p in results]
            + ["--tolerance", str(args.tolerance)]
        )
    lines.append(buf.getvalue().rstrip())
    if code != 0:
        raise ValueError("throughput regression gate failed:\n" + lines[-1])
    return "\n".join(lines)


def cmd_all(args) -> str:
    parts = [
        cmd_table1(args),
        "",
        cmd_fig3(args),
        "",
        cmd_fig7(args),
        "",
        cmd_fig8(args),
    ]
    return "\n".join(parts)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of 'Application performance "
        "on a Cluster-Booster system' on the simulated DEEP-ER prototype.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table I: hardware configuration")
    sub.add_parser("fig3", help="Fig 3: fabric bandwidth and latency")
    rp = sub.add_parser(
        "report",
        help="render a saved run report, or compose archived benchmark tables",
    )
    rp.add_argument(
        "file",
        nargs="?",
        default=None,
        help="any schema-tagged report JSON — run, sweep, or tune "
        "(omit to compose archived benchmark tables)",
    )
    rp.add_argument(
        "--results",
        metavar="DIR",
        default=None,
        help="directory of archived benchmark tables to compose "
        "(default: benchmarks/_results of the source checkout)",
    )
    def add_spec_args(sp) -> None:
        """The one-experiment spec flags `run` and `submit` share."""
        sp.add_argument(
            "--preset",
            default="deep-er",
            choices=sorted(MACHINE_PRESETS),
            help="machine preset (default deep-er)",
        )
        sp.add_argument(
            "--app",
            default="xpic",
            choices=available_apps(),
            help="application driver (default xpic)",
        )
        sp.add_argument(
            "--mode",
            default="cb",
            help="placement: cluster / booster / cb (xpic), "
            "cluster / booster / split (seismic)",
        )
        sp.add_argument("--steps", type=int, default=100, help="time steps")
        sp.add_argument(
            "--nodes", type=int, default=1, help="nodes per solver (default 1)"
        )
        sp.add_argument(
            "--seed", type=int, default=20180521, help="workload RNG seed"
        )
        sp.add_argument(
            "--no-overlap",
            action="store_true",
            help="disable communication/compute overlap (xpic)",
        )
        sp.add_argument(
            "--swap-placement",
            action="store_true",
            help="swap solver placement: fields on Booster, "
            "particles on Cluster",
        )
        sp.add_argument(
            "--fault-plan",
            metavar="FILE",
            default=None,
            help="inject the faults of a plan JSON (see `repro faults`)",
        )
        sp.add_argument(
            "--mtbf",
            type=float,
            default=None,
            help="stream Poisson node crashes at this system MTBF [s]",
        )
        sp.add_argument(
            "--ckpt-interval",
            type=float,
            default=None,
            help="force the checkpoint cadence [s] (default: Young/Daly "
            "optimum when --mtbf is given)",
        )
        sp.add_argument(
            "--malleable",
            action="store_true",
            help="on node loss, re-tune the partition over the "
            "surviving machine and resume there (instead of the "
            "static degradation script); needs fault injection",
        )
        sp.add_argument(
            "--json", metavar="FILE", default=None,
            help="write the RunReport JSON",
        )

    rn = sub.add_parser(
        "run", help="run one instrumented experiment through the engine"
    )
    add_spec_args(rn)
    rn.add_argument(
        "--trace",
        action="store_true",
        help="record per-phase intervals (implied by --chrome-trace)",
    )
    rn.add_argument(
        "--chrome-trace",
        metavar="FILE",
        default=None,
        help="write Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    rn.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="memoize the run in a content-addressed result store",
    )
    sv = sub.add_parser(
        "serve",
        help="serve experiment requests from a file-based job directory "
        "(queue/coalesce/batch over a shared worker pool)",
    )
    sv.add_argument(
        "--jobdir",
        metavar="DIR",
        required=True,
        help="the job directory clients submit into",
    )
    sv.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers executing batches (default 1)",
    )
    sv.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="answer repeated specs from a content-addressed store",
    )
    sv.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission bound; excess requests stay queued on disk "
        "(default 64)",
    )
    sv.add_argument(
        "--once",
        action="store_true",
        help="ingest everything pending, drain, flush results, exit "
        "(deterministic mode for CI)",
    )
    sv.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop serving after this long (default: run until killed)",
    )
    sv.add_argument(
        "--poll",
        type=float,
        default=0.1,
        help="job-directory scan interval [s] (default 0.1)",
    )
    sv.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request progress lines",
    )
    sv.add_argument(
        "--status",
        action="store_true",
        help="report liveness (heartbeat), journal state and last "
        "metrics of the job directory, then exit",
    )
    sv.add_argument(
        "--stale-after-s",
        type=float,
        default=None,
        metavar="S",
        help="--status: declare a serving heartbeat stale past this "
        "age [s] and exit non-zero (default 30)",
    )
    sv.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the write-ahead job journal and heartbeat "
        "(jobs die with the process)",
    )
    sv.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="default queue-time budget per job [s]; expired jobs fail "
        "with DeadlineExceeded (default: none)",
    )
    sv.add_argument(
        "--batch-timeout",
        type=float,
        default=None,
        metavar="S",
        help="watchdog bound on one batch's wall-time [s]; a hung "
        "batch recycles the pool and isolates its jobs (default: none)",
    )
    sb = sub.add_parser(
        "submit",
        help="submit one experiment request to a running `repro serve`",
    )
    add_spec_args(sb)
    sb.add_argument(
        "--jobdir",
        metavar="DIR",
        required=True,
        help="the served job directory to submit into",
    )
    sb.add_argument(
        "--priority",
        type=int,
        default=0,
        help="scheduling priority (higher dispatches first, default 0)",
    )
    sb.add_argument(
        "--client",
        default="cli",
        help="client id for fair-share scheduling (default cli)",
    )
    sb.add_argument(
        "--wait",
        action="store_true",
        help="block until the result file appears and render it",
    )
    sb.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="--wait timeout [s] (default 60)",
    )
    sb.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        metavar="S",
        help="total seconds to wait for the result file "
        "(overrides --timeout when given)",
    )
    sb.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="queue-time budget the service applies to this request "
        "[s] (default: none)",
    )
    sw = sub.add_parser(
        "sweep",
        help="run a modes x node-counts sweep through Engine.run_many",
    )
    sw.add_argument(
        "--preset",
        default="deep-er",
        choices=sorted(MACHINE_PRESETS),
        help="machine preset (default deep-er)",
    )
    sw.add_argument(
        "--app",
        default="xpic",
        choices=available_apps(),
        help="application driver (default xpic)",
    )
    sw.add_argument(
        "--modes",
        default="cluster,booster,cb",
        help="comma-separated placements (default cluster,booster,cb)",
    )
    sw.add_argument(
        "--nodes",
        default="1,2,4,8",
        help="comma-separated nodes-per-solver counts (default 1,2,4,8)",
    )
    sw.add_argument("--steps", type=int, default=100, help="time steps")
    sw.add_argument(
        "--seed", type=int, default=20180521, help="workload RNG seed"
    )
    sw.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers (1 = serial; results are identical)",
    )
    sw.add_argument(
        "--json", metavar="FILE", default=None, help="write SweepReport JSON"
    )
    sw.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="memoize every run in a content-addressed result store",
    )
    tn = sub.add_parser(
        "tune",
        help="autotune the Cluster/Booster partition (model-seeded "
        "successive halving over the cached engine)",
    )
    tn.add_argument(
        "--preset",
        default="deep-er",
        choices=sorted(MACHINE_PRESETS),
        help="machine preset (default deep-er)",
    )
    tn.add_argument(
        "--steps",
        type=int,
        default=FIG78_STEPS,
        help=f"full-length xPic time steps (default {FIG78_STEPS})",
    )
    tn.add_argument(
        "--nodes",
        default="1,2,4,8",
        help="comma-separated per-side rank counts to search "
        "(default 1,2,4,8)",
    )
    tn.add_argument(
        "--generations",
        type=int,
        default=3,
        help="successive-halving rounds (default 3)",
    )
    tn.add_argument(
        "--population",
        type=int,
        default=8,
        help="model-seeded candidates entering round 1 (default 8)",
    )
    tn.add_argument(
        "--eta",
        type=int,
        default=2,
        help="halving factor between rounds (default 2)",
    )
    tn.add_argument(
        "--min-steps",
        type=int,
        default=5,
        help="floor on short-probe step counts (default 5)",
    )
    tn.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers for each generation's sweep",
    )
    tn.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="memoize every evaluation in a content-addressed store "
        "(a repeated tune resolves from cache)",
    )
    tn.add_argument(
        "--seed", type=int, default=20180521, help="workload RNG seed"
    )
    tn.add_argument(
        "--nested",
        action="store_true",
        help="also search hierarchical partitions (homogeneous pools "
        "sub-split into co-scheduled fields/particles arms)",
    )
    tn.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip measuring the hand-coded C+B baseline at full steps",
    )
    tn.add_argument(
        "--json", metavar="FILE", default=None, help="write TuneReport JSON"
    )
    bn = sub.add_parser(
        "bench",
        help="run + archive the throughput microbenchmarks, then apply "
        "the regression gate (the CI steps, locally)",
    )
    bn.add_argument(
        "--all",
        action="store_true",
        help="run the whole benchmark suite (every table/figure), not "
        "just the gated throughput benches",
    )
    bn.add_argument(
        "--gate-only",
        action="store_true",
        help="skip running; gate the already-archived results",
    )
    bn.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fraction below each baseline floor (default 0.30)",
    )
    fl = sub.add_parser(
        "fleet",
        help="run / talk to a sharded service fleet (consistent-hash "
        "cache-key routing, work stealing, fleet-wide metrics)",
    )
    flsub = fl.add_subparsers(dest="verb", required=True)
    fls = flsub.add_parser(
        "serve",
        help="N experiment-service shards behind a TCP front-end router",
    )
    fls.add_argument(
        "--root",
        metavar="DIR",
        required=True,
        help="fleet root; shard i lives under ROOT/shard-0i",
    )
    fls.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count (default 4)",
    )
    fls.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address of the front end (default 127.0.0.1)",
    )
    fls.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = ephemeral; printed on start)",
    )
    fls.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers per shard (default 1)",
    )
    fls.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission bound per shard (default 64)",
    )
    fls.add_argument(
        "--process",
        action="store_true",
        help="run each shard as its own `repro serve` process "
        "(journal + heartbeat durability; restart-on-death recovery)",
    )
    fls.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop serving after this long (default: run until killed)",
    )
    fls.add_argument(
        "--stale-after-s",
        type=float,
        default=5.0,
        metavar="S",
        help="heartbeat age past which the router declares a shard "
        "dead (default 5)",
    )
    fls.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the startup address lines",
    )
    flb = flsub.add_parser(
        "submit",
        help="submit one experiment to a running fleet front end",
    )
    add_spec_args(flb)
    flb.add_argument(
        "--address",
        metavar="HOST:PORT",
        required=True,
        help="the fleet front end to submit to",
    )
    flb.add_argument(
        "--priority",
        type=int,
        default=0,
        help="scheduling priority (higher dispatches first, default 0)",
    )
    flb.add_argument(
        "--client",
        default="cli",
        help="client id for fair-share scheduling (default cli)",
    )
    flb.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="queue-time budget the shard applies to this request [s]",
    )
    flb.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="socket timeout [s] (default 60)",
    )
    flt = flsub.add_parser(
        "status",
        help="aggregated fleet metrics + ledger-invariant check "
        "(non-zero exit on violation)",
    )
    flt.add_argument(
        "--address",
        metavar="HOST:PORT",
        required=True,
        help="the fleet front end to query",
    )
    flt.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="socket timeout [s] (default 10)",
    )
    ca = sub.add_parser(
        "cache", help="manage a tiered content-addressed result store"
    )
    ca.add_argument(
        "verb",
        choices=["stats", "prune", "verify", "export", "import"],
        help="stats: size + tier counters; prune: evict by policy; "
        "verify: audit entries + index (--repair rebuilds); "
        "export/import: exchange entry bundles between stores",
    )
    ca.add_argument(
        "--dir",
        metavar="DIR",
        required=True,
        help="the result store directory",
    )
    ca.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="prune: keep at most this many stored bytes (default: 0, "
        "clear everything)",
    )
    ca.add_argument(
        "--policy",
        default="age",
        choices=["age", "size", "hit-rate"],
        help="prune: victim ordering — oldest, largest, or fewest "
        "session hits first (default age)",
    )
    ca.add_argument(
        "--max-age-s",
        type=float,
        default=None,
        help="prune: also drop entries older than this many seconds",
    )
    ca.add_argument(
        "--repair",
        action="store_true",
        help="verify: delete corrupt or key-mismatched entries and "
        "rebuild the index from the blobs",
    )
    ca.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="export: write the bundle JSON here",
    )
    ca.add_argument(
        "--file",
        metavar="FILE",
        default=None,
        help="import: the bundle JSON to fold in",
    )
    ca.add_argument(
        "--where",
        metavar="PRED",
        action="append",
        default=None,
        help="export: only entries matching COLUMN OP VALUE predicates "
        "(repeatable, e.g. --where mode=C+B --where steps>=100)",
    )
    qr = sub.add_parser(
        "query",
        help="filter + aggregate stored runs from the store's columnar "
        "index (no report blobs are read for index columns)",
    )
    qr.add_argument(
        "--dir",
        metavar="DIR",
        required=True,
        help="the result store directory",
    )
    qr.add_argument(
        "--where",
        metavar="PRED",
        action="append",
        default=None,
        help="COLUMN OP VALUE predicate over index columns (repeatable); "
        "e.g. --where mode=C+B --where nodes_per_solver=8",
    )
    qr.add_argument(
        "--fields",
        default=None,
        help="comma-separated extra columns; dotted report paths "
        "(e.g. network.total_bytes) load only the matched blobs",
    )
    qr.add_argument(
        "--agg",
        metavar="FIELD",
        default=None,
        help="aggregate this column over the matches "
        "(count/mean/min/max/p50/p90/p99)",
    )
    qr.add_argument(
        "--group-by",
        metavar="COLUMN",
        default=None,
        help="with --agg: split the aggregate per distinct value of "
        "this column (one stats row per value, from the index alone)",
    )
    qr.add_argument(
        "--limit",
        type=int,
        default=None,
        help="show at most this many rows (newest first)",
    )
    qr.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the matched rows (and aggregate) as JSON",
    )
    for name, hlp in (
        ("fig7", "Fig 7: single-node mode comparison"),
        ("fig8", "Fig 8: scaling sweep"),
        ("validate", "grade every claim against its acceptance band"),
        ("all", "everything"),
    ):
        sp = sub.add_parser(name, help=hlp)
        sp.add_argument(
            "--steps",
            type=int,
            default=FIG78_STEPS,
            help=f"xPic time steps (default {FIG78_STEPS})",
        )
        sp.add_argument(
            "--workers",
            type=int,
            default=1,
            help="process-pool workers for the underlying sweep",
        )
        if name in ("fig7", "fig8"):
            sp.add_argument(
                "--fault-plan",
                metavar="FILE",
                default=None,
                help="inject the faults of a plan JSON into every run",
            )
            sp.add_argument(
                "--mtbf",
                type=float,
                default=None,
                help="stream Poisson node crashes at this MTBF [s]",
            )
            sp.add_argument(
                "--cache",
                metavar="DIR",
                default=None,
                help="memoize every run in a content-addressed store",
            )
    ft = sub.add_parser(
        "faults",
        help="draw a Poisson fault plan, or inspect an existing plan file",
    )
    ft.add_argument(
        "file",
        nargs="?",
        default=None,
        help="existing fault plan JSON to render (omit to generate)",
    )
    ft.add_argument(
        "--mtbf", type=float, default=None, help="system MTBF [s]"
    )
    ft.add_argument(
        "--horizon", type=float, default=None, help="schedule horizon [s]"
    )
    ft.add_argument(
        "--targets",
        default="",
        help="comma-separated node ids (or a:b endpoint pairs for link "
        "faults) the schedule draws from",
    )
    ft.add_argument(
        "--seed", type=int, default=20180521, help="schedule RNG seed"
    )
    ft.add_argument(
        "--kind",
        default="node_crash",
        choices=["node_crash", "link_down", "link_degrade"],
        help="fault kind of every drawn event (default node_crash)",
    )
    ft.add_argument(
        "--duration",
        type=float,
        default=None,
        help="self-heal each fault after this many seconds",
    )
    ft.add_argument(
        "--factor",
        type=float,
        default=None,
        help="bandwidth fraction for link_degrade events",
    )
    ft.add_argument(
        "--out", metavar="FILE", default=None, help="write the plan JSON"
    )
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "tune": cmd_tune,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "fleet": cmd_fleet,
        "bench": cmd_bench,
        "cache": cmd_cache,
        "query": cmd_query,
        "table1": cmd_table1,
        "fig3": cmd_fig3,
        "fig7": cmd_fig7,
        "fig8": cmd_fig8,
        "validate": cmd_validate,
        "report": cmd_report,
        "faults": cmd_faults,
        "all": cmd_all,
    }[args.command]
    try:
        out = handler(args)
        # handlers return text, or (text, exit_code) for status-style
        # verbs whose outcome scripts branch on
        code = 0
        if isinstance(out, tuple):
            out, code = out
        print(out)
    except (ValueError, FileNotFoundError, TimeoutError) as exc:
        # bad spec values, missing report files, or a submit --wait
        # that outlived its timeout: a message, not a trace
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
