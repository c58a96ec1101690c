"""End-to-end benchmark of the repro stack with a per-layer ledger.

Run from the repository root:

    python3 perfbench/run.py --workload fig8_sweep --seed 1 \
        --seconds 30 --trace 0

``--workload`` is one of ``fig8_sweep``, ``faulted_cb`` and ``served_mix``
(see ``workloads.py``).  ``--trace 0`` times passes of the workload for
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json`` at
the repository root.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any correctness
gate or the determinism check fails.

Set-up time is measured from outside: fresh interpreters run this
script with ``--probe``, which imports what the workload needs, starts
it (for ``served_mix``: the fleet and its warm-up stream) and prints
``ready``.  All scratch files live under
``perfbench/_work`` and are removed at the end; the full ledger of a
run (environment, every metric, traced spans) is written to
``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ledger import (
    COUNTERS,
    PROFILE_LAYERS,
    ProfileFold,
    Spans,
    median,
    percentile,
)
from workloads import SERVED_CONNECTIONS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / "_work"
OUT_ROOT = BENCH / "_out"

#: fresh interpreters timed for set-up
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
MIN_PASSES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("fig8_sweep", "faulted_cb", "served_mix"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe", action="store_true",
        help="set up the workload, print 'ready', tear down (internal)",
    )
    return parser.parse_args(argv)


def strip_repro_env() -> dict:
    """Drop ``REPRO_*`` settings so the program's defaults are measured."""
    return {
        name: os.environ.pop(name)
        for name in sorted(os.environ)
        if name.startswith("REPRO_")
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def load_workload(name: str, seed: int, workdir: Path):
    """Import the workload's modules and build its seeded inputs."""
    return WORKLOADS[name](seed, workdir)


# -- set-up probes ---------------------------------------------------------
def probe(args) -> int:
    """Child side: import, start (and warm up, where that is set-up),
    report, tear down."""
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK_ROOT))
    try:
        t0 = time.perf_counter()
        workload = load_workload(args.workload, args.seed, workdir)
        t1 = time.perf_counter()
        if workload.warm_up_is_setup:
            workload.warm_up()
        t2 = time.perf_counter()
        print("ready " + json.dumps({"import_s": t1 - t0, "start_s": t2 - t1}),
              flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def time_probe(workload: str, seed: int) -> dict:
    """Parent side: seconds from spawning a fresh interpreter until it
    prints ``ready``, plus the child's own import/start split."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            if line.startswith("ready "):
                total = time.perf_counter() - t0
                split = json.loads(line[len("ready "):])
                break
        else:
            raise RuntimeError(f"set-up probe exited {proc.wait()} early")
        proc.stdout.read()
        if proc.wait(timeout=PROBE_TIMEOUT_S) != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return {"setup_s": total, **split}


# -- environment -----------------------------------------------------------
def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(stripped: dict) -> dict:
    import numpy

    from repro.sim.queues import resolve_backend

    return {
        "sim_backend": resolve_backend(None),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "stripped_env": sorted(stripped),
    }


# -- measuring -------------------------------------------------------------
def profile_fold() -> ProfileFold:
    import numpy

    return ProfileFold(
        str(SRC / "repro"), os.path.dirname(numpy.__file__), str(BENCH)
    )


def _spin() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return time.perf_counter() - t0


def pin_to_fastest_cpu(cpus: set) -> None:
    """Pin this (single-threaded) process to the CPU that runs a short
    fixed loop fastest right now.

    On a shared host each virtual CPU slows down for seconds at a time,
    independently of the other, so a pass placed on the currently
    faster one measures the program rather than its neighbours."""
    speeds = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(_spin() for _ in range(3))
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def run_passes(workload, seconds: float, trace: bool) -> tuple:
    """Timed passes for ``seconds``: ``(plain, traced, spans)``.

    A new round starts only while the median round so far still fits
    in the window, so a run measures about ``seconds`` and no more; at
    least ``MIN_PASSES`` passes run.  With ``trace`` every untraced
    pass is followed by a traced one (cProfile for single-threaded
    workloads, method spans for the served fleet)."""
    plain, traced, rounds = [], [], []
    spans = profile = None
    if trace and workload.profiled:
        profile = profile_fold()
    elif trace:
        spans = Spans()
        workload.span_targets(spans)
    cpus = os.sched_getaffinity(0) if workload.profiled and hasattr(
        os, "sched_setaffinity") else set()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if len(cpus) > 1:
            pin_to_fastest_cpu(cpus)
        plain.append(workload.run_pass())
        if profile is not None:
            traced.append(workload.run_pass(profile=profile))
        elif spans is not None:
            with spans:
                traced.append(workload.run_pass(spans=spans))
        now = time.perf_counter()
        rounds.append(now - t0)
        enough = len(plain) + len(traced) >= MIN_PASSES
        if enough and now - start + median(rounds) > seconds:
            if len(cpus) > 1:
                os.sched_setaffinity(0, cpus)
            return plain, traced, spans


def determinism_problems(passes: list) -> list:
    first = passes[0].counters
    return [
        f"pass {i}: counter {name} = {p.counters.get(name)!r}, "
        f"first pass {value!r}"
        for i, p in enumerate(passes[1:], start=1)
        for name, value in first.items()
        if p.counters.get(name) != value
    ]


def end_to_end(plain: list, setups: list) -> dict:
    return {
        "wall_s": median([p.wall_s for p in plain]),
        "jobs_per_s": median([len(p.job_s) / p.wall_s for p in plain]),
        "job_p50_ms": median([percentile(p.job_s, 0.5) for p in plain]) * 1e3,
        "job_p90_ms": median([percentile(p.job_s, 0.9) for p in plain]) * 1e3,
        "setup_s": median([s["setup_s"] for s in setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(workload, plain, traced, setups, held_out) -> dict:
    counters = plain[0].counters
    out = {name: counters[name] for name in COUNTERS}
    transfers = counters["network.fast_transfers"] + counters[
        "network.slow_transfers"]
    out["network.fast_ratio"] = (
        counters["network.fast_transfers"] / transfers if transfers else 0.0
    )
    wall = median([p.wall_s for p in plain])
    out["sim.host_us_per_event"] = wall / counters["sim.events"] * 1e6
    out["setup.import_s"] = median([s["import_s"] for s in setups])
    out["setup.start_s"] = median([s["start_s"] for s in setups])
    out["trace.overhead_s"] = median([p.wall_s for p in traced]) - wall
    if workload.profiled:
        for name in plain[0].layer["spans"]:
            out[name] = median([p.layer["spans"][name] for p in plain])
        for layer in PROFILE_LAYERS:
            out[f"{layer}.self_s"] = median(
                [p.layer["profile"][layer] for p in traced]
            )
    else:
        out.update(served_layers(plain, traced, held_out))
    return out


def served_layers(plain, traced, held_out) -> dict:
    out = {
        name: median([p.layer[name] for p in plain])
        for name in ("serve.cache_hits", "serve.coalesced",
                     "serve.executed", "serve.batches", "serve.wait_p50_ms",
                     "serve.run_p50_ms", "serve.exec_ratio",
                     "fleet.sticky_routed", "fleet.stolen")
    }
    out["store.hit_ratio"] = median(
        [p.layer["store.hit_ratio"] for p in plain]
    )
    for side in ("hit", "miss"):
        samples = [s for p in plain for s in p.layer[f"client.{side}_s"]]
        out[f"client.{side}_p50_ms"] = (
            percentile(samples, 0.5) * 1e3 if samples else 0.0
        )
    for span, seconds_name, count_name in (
        ("fleet.route", "fleet.route_s", None),
        ("serve.submit", "serve.submit_s", None),
        ("serve.journal", "serve.journal_s", "serve.journal_appends"),
        ("store.get", "store.get_s", "store.gets"),
        ("store.put", "store.put_s", "store.puts"),
        ("engine.run", "engine.run_s", "engine.runs"),
    ):
        totals = [p.layer["spans"].get(span, (0, 0.0)) for p in traced]
        out[seconds_name] = median([t[1] for t in totals])
        if count_name is not None:
            out[count_name] = median([t[0] for t in totals])
    out["client.heldout_jobs_per_s"] = len(held_out.job_s) / held_out.wall_s
    return out


def measure(args, stripped: dict) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config[section]}

    # the build step: write bytecode caches so no probe pays for them
    compileall.compile_dir(str(SRC), quiet=1)
    setups = [time_probe(args.workload, args.seed)
              for _ in range(SETUP_PROBES)]

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = load_workload(args.workload, args.seed, workdir)
        env = environment(stripped)
        workload.warm_up()
        plain, traced, spans = run_passes(
            workload, args.seconds, bool(args.trace)
        )
        held_out = None if workload.profiled else workload.held_out()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = plain + traced + ([held_out] if held_out else [])
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    problems = [msg for p in checked for msg in p.problems]
    nondeterministic = determinism_problems(plain + traced)
    problems += nondeterministic
    if nondeterministic:
        failed = attempted
    correct = not problems

    if args.trace:
        values = per_layer(workload, plain, traced, setups, held_out)
        values["failed_ratio"] = failed / attempted
    else:
        values = end_to_end(plain, setups)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }

    jobs = sum(len(p.job_s) for p in plain)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  passes {len(plain)} untraced"
          f" + {len(traced)} traced  jobs timed {jobs}")
    for key, value in env.items():
        print(f"  env.{key} = {value}")
    if held_out is not None:
        print(f"  load: 1 process, {SERVED_CONNECTIONS} connections, closed "
              "loop; warm-up stream from a disjoint seed; held-out stream "
              f"{len(held_out.job_s)} jobs at "
              f"{len(held_out.job_s) / held_out.wall_s:.1f} jobs/s")
    print(f"  setup probes {len(setups)}; job percentiles per pass of "
          f"{len(plain[0].job_s)} jobs, median over {len(plain)} passes")
    for name, metric in metrics.items():
        shown = "n/a" if name not in values else f"{metric['value']:.6g}"
        print(f"  {name:<32} {shown:>14} {metric['unit']}")
    print(f"  failed {failed} of {attempted} attempted")
    for msg in problems[:20]:
        print(f"  FAILED: {msg}")

    OUT_ROOT.mkdir(exist_ok=True)
    ledger = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "correct": correct, "attempted": attempted,
        "failed": failed, "problems": problems, "metrics": metrics,
        "setups": setups, "walls": [p.wall_s for p in plain],
        "job_s": [p.job_s for p in plain],
        "traced_walls": [p.wall_s for p in traced],
        "spans": spans.to_json_rows() if spans is not None else [],
    }
    out_path = OUT_ROOT / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out_path.write_text(json.dumps(ledger, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    stripped = strip_repro_env()
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK_ROOT)
    tempfile.tempdir = str(WORK_ROOT)
    if args.probe:
        return probe(args)
    return measure(args, stripped)


if __name__ == "__main__":
    sys.exit(main())
