"""Measurement helpers for the end-to-end benchmark.

Everything here observes the program from outside:

* :func:`report_counters` reads the counters a ``RunReport`` already
  carries (``sim``/``network``/``mpi``/``resiliency``/``malleability``);
* :class:`ProfileFold` folds cProfile self time by package;
* :class:`Spans` times public methods by swapping timed wrappers onto
  their classes for the life of a ``with`` block, keeping every span in
  memory until the caller writes them out.
"""

from __future__ import annotations

import cProfile
import functools
import math
import os
import pstats
import threading
import time

#: program counters summed per workload; every one must repeat exactly
#: when a workload runs twice on the same inputs
COUNTERS = (
    "sim.events",
    "sim.fast_wakeups",
    "sim.batches",
    "network.messages",
    "network.bytes",
    "network.fast_transfers",
    "network.slow_transfers",
    "network.stall_sim_s",
    "mpi.p2p_messages",
    "mpi.transport_retries",
    "resiliency.checkpoints",
    "malleable.repartitions",
)

#: sub-packages of ``repro`` that get their own self-time bucket
REPRO_LAYERS = (
    "sim", "mpi", "network", "apps", "perfmodel", "backoff",
    "resiliency", "engine",
)
PROFILE_LAYERS = REPRO_LAYERS + ("numpy", "stdlib", "other")

#: report fields measured on the host clock; everything else in a
#: report is simulated and must match bit for bit
HOST_SIM_FIELDS = ("wall_time_s", "events_per_sec", "host_wall_s")


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    """The 0.5-quantile."""
    return percentile(values, 0.5)


def report_sections(report) -> dict:
    """A report's dict form (accepts a ``RunReport`` or its dict)."""
    return report if isinstance(report, dict) else report.to_dict()


def report_counters(report) -> dict:
    """The program counters of one run report."""
    d = report_sections(report)
    sim, net, mpi = d["sim"], d["network"], d["mpi"]
    return {
        "sim.events": sim["events_processed"],
        "sim.fast_wakeups": sim["fast_wakeups"],
        "sim.batches": sim["batches"],
        "network.messages": net["total_messages"],
        "network.bytes": net["total_bytes"],
        "network.fast_transfers": net["fast_transfers"],
        "network.slow_transfers": net["slow_transfers"],
        "network.stall_sim_s": sum(
            link["stall_time_s"] for link in net["links"].values()
        ),
        "mpi.p2p_messages": sum(
            c["p2p_messages"] for c in mpi["communicators"].values()
        ),
        "mpi.transport_retries": mpi.get("transport", {}).get("retries", 0),
        "resiliency.checkpoints": d["resiliency"].get("checkpoints_total", 0),
        "malleable.repartitions": d["malleability"].get(
            "repartitions_count", 0
        ),
    }


def sum_counters(reports) -> dict:
    """Counters summed over reports, in the order given."""
    total = dict.fromkeys(COUNTERS, 0)
    for report in reports:
        for name, value in report_counters(report).items():
            total[name] += value
    return total


def comparable_report(report) -> dict:
    """A report's dict form without its host-clock fields, for
    bit-identity checks between two runs of one spec."""
    d = dict(report_sections(report))
    d["sim"] = {
        k: v for k, v in d["sim"].items() if k not in HOST_SIM_FIELDS
    }
    return d


class ProfileFold:
    """cProfile self time (``tottime``) folded by package.

    Frames under ``<src>/repro/<layer>`` fold into that layer (or
    ``other`` for the rest of ``repro`` and the benchmark itself),
    frames under numpy into ``numpy``, and everything else — the
    standard library and builtins — into ``stdlib``.
    """

    def __init__(self, repro_dir: str, numpy_dir: str, bench_dir: str):
        self._repro = os.path.join(repro_dir, "")
        self._numpy = os.path.join(numpy_dir, "")
        self._bench = os.path.join(bench_dir, "")

    def layer_of(self, filename: str) -> str:
        if filename.startswith(self._repro):
            head = filename[len(self._repro):].split(os.sep, 1)[0]
            head = head[:-3] if head.endswith(".py") else head
            return head if head in REPRO_LAYERS else "other"
        if filename.startswith(self._numpy):
            return "numpy"
        if filename.startswith(self._bench):
            return "other"
        return "stdlib"

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` under cProfile; returns ``(result, folded)``."""
        profile = cProfile.Profile()
        profile.enable()
        try:
            result = fn(*args, **kwargs)
        finally:
            profile.disable()
        folded = dict.fromkeys(PROFILE_LAYERS, 0.0)
        stats = pstats.Stats(profile).stats
        for (filename, _line, _func), row in stats.items():
            folded[self.layer_of(filename)] += row[2]
        return result, folded


class Spans:
    """Timed wrappers around public methods, recorded in memory.

    ``Spans().wrap(Cls, "method", "layer.name")`` declares a wrapper;
    inside ``with spans:`` every call of ``Cls.method`` from any thread
    records ``(name, start, end, self_s, thread, parent)``.  Self time
    is the span's duration minus the time of the spans it encloses on
    the same thread.  Leaving the block restores the originals.
    """

    def __init__(self):
        self.records: list = []
        self._targets: list = []
        self._saved: list = []
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str) -> "Spans":
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} defines no {attr}")
        self._targets.append((owner, attr, name))
        return self

    def _timed(self, original, name):
        local = self._local
        records = self.records

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                records.append(
                    (name, t0, t1, t1 - t0 - frame[1],
                     threading.get_ident(), parent)
                )

        return timed

    def __enter__(self) -> "Spans":
        for owner, attr, name in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._timed(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self, since: int = 0) -> dict:
        """``{name: (calls, self_s)}`` over records from ``since`` on."""
        out: dict = {}
        for name, _t0, _t1, self_s, _tid, _parent in self.records[since:]:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + self_s)
        return out

    def to_json_rows(self) -> list:
        """Records as JSON-safe dicts, times relative to the first."""
        base = min((r[1] for r in self.records), default=0.0)
        return [
            {"name": name, "start_s": t0 - base, "end_s": t1 - base,
             "self_s": self_s, "thread": tid, "parent": parent}
            for name, t0, t1, self_s, tid, parent in self.records
        ]
