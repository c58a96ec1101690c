"""End-to-end benchmark — a cold ``repro run``, interpreter start included.

Each round spawns a fresh interpreter for ``python -m repro run --steps
200`` (the default deep-er C+B xPic run) and times it from spawn to
exit: interpreter start-up, every import the CLI pulls in, the machine
build, 200 simulated steps and the printed report.  The simulation is
a small part of that wall, so the figure tracks what a user waits for
on the command line: mostly import cost.

Archives ``cold_start.runs_per_sec`` (best of 5, cold runs per host
second).  ``benchmarks/baseline.json`` holds no floor for it, so the
gate reports it without failing: the figure swings with the host and
Python version more than a lost or regained ~100 ms import moves it.
The import set itself is checked deterministically in
``tests/test_packaging.py``.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
import time

from repro.bench import render_table

HERE = pathlib.Path(__file__).parent
RESULTS_DIR = HERE / "_results"
SRC = HERE.parent / "src"

STEPS = 200
ROUNDS = 5
COMMAND = [sys.executable, "-m", "repro", "run", "--steps", str(STEPS)]


def _cold_runs(cwd) -> list:
    """Wall seconds of each fresh-interpreter run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    walls = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        out = subprocess.run(
            COMMAND, cwd=cwd, env=env, capture_output=True, text=True
        )
        walls.append(time.perf_counter() - t0)
        assert out.returncode == 0, out.stderr
        steps_row = rf"^steps\s*\|\s*{STEPS}\b"
        assert re.search(steps_row, out.stdout, re.M), out.stdout
    return walls


def test_cold_start(benchmark, report, tmp_path):
    walls = benchmark.pedantic(_cold_runs, args=(tmp_path,), rounds=1,
                               iterations=1)
    best = min(walls)
    report(
        "cold_start",
        render_table(
            ["Command", "best [s]", "median [s]", "cold runs/sec"],
            [(
                f"python -m repro run --steps {STEPS}",
                f"{best:.3f}",
                f"{sorted(walls)[ROUNDS // 2]:.3f}",
                f"{1 / best:.2f}",
            )],
            title=f"Cold start (fresh interpreter per run, best of {ROUNDS})",
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "cold_start.json").write_text(
        json.dumps({"cold_start": {"runs_per_sec": 1 / best}}, indent=2)
    )
