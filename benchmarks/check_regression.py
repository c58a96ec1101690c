#!/usr/bin/env python
"""CI regression gate for the throughput microbenchmarks.

Compares the machine-readable results the microbenchmarks archive under
``benchmarks/_results/*.json`` against the checked-in floors in
``benchmarks/baseline.json`` and exits non-zero when any throughput
falls more than ``--tolerance`` (default 30%) below its floor::

    python benchmarks/check_regression.py \
        benchmarks/_results/events_per_sec.json \
        benchmarks/_results/fabric_transfers_per_sec.json

Baselines are floors, not targets: they sit well under a typical dev
machine so runner noise passes while a lost fast path fails loudly.
A metric listed under ``_tolerances`` in the baseline file gets its own
allowed fraction instead of ``--tolerance``: a deterministic figure
(such as a simulated speedup) needs no room for runner noise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).parent


def flatten(d: dict, prefix: str = "") -> dict:
    """{'a': {'b': 1}} -> {'a.b': 1}, skipping '_'-prefixed keys."""
    out = {}
    for key, value in d.items():
        if key.startswith("_"):
            continue
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(flatten(value, name))
        else:
            out[name] = float(value)
    return out


def fmt(value: float) -> str:
    """Throughputs as whole numbers, small ratios with two decimals."""
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:,.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results",
        nargs="+",
        help="result JSON files written by the microbenchmarks",
    )
    parser.add_argument(
        "--baseline",
        default=str(HERE / "baseline.json"),
        help="baseline floors (default benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fraction below the floor for metrics without "
        "their own entry in the baseline's _tolerances (default 0.30)",
    )
    args = parser.parse_args(argv)

    doc = json.loads(pathlib.Path(args.baseline).read_text())
    baseline = flatten(doc)
    tolerances = doc.get("_tolerances", {})
    measured: dict = {}
    for path in args.results:
        measured.update(flatten(json.loads(pathlib.Path(path).read_text())))

    failures = []
    width = max(len(k) for k in baseline)
    for key, floor in sorted(baseline.items()):
        tolerance = tolerances.get(key, args.tolerance)
        minimum = floor * (1.0 - tolerance)
        current = measured.get(key)
        if current is None:
            failures.append(key)
            print(f"MISSING {key:<{width}} (floor {fmt(floor)})")
            continue
        status = "ok" if current >= minimum else "REGRESSED"
        if current < minimum:
            failures.append(key)
        print(
            f"{status:>9} {key:<{width}} {fmt(current):>12} "
            f"(floor {fmt(floor)}, minimum {fmt(minimum)}, "
            f"tolerance {tolerance:.0%})"
        )

    if failures:
        print(f"\n{len(failures)} metric(s) regressed: {', '.join(failures)}")
        return 1
    print(f"\nall {len(baseline)} metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
