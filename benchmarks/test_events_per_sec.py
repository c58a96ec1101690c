"""Microbenchmarks — simulator event and fabric transfer throughput.

The engine's hot loop is the discrete-event core; everything else in
the reproduction (fabric transfers, MPI waits, solver phases) reduces
to scheduling and resuming events.  Two benches measure the two hot
paths; each also archives a machine-readable JSON next to its table so
CI can gate on regressions (``benchmarks/check_regression.py``).

* ``events_per_sec``: raw event throughput, classic ``sim.timeout``
  (one Event per wait) vs the allocation-free bare-delay fast path,
  archived as ``classic``/``fast_wakeup``.
* ``fabric_transfers_per_sec``: end-to-end message transport,
  uncontended (every link idle: the request-free fast path) vs
  contended (transfers queue FIFO on a shared link: the slow path).
"""

import json
import pathlib
import time

from repro.bench import render_table
from repro.engine import preset_machine
from repro.sim import Simulator

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

N_PROCS = 64
N_WAITS = 400
ROUNDS = 3


def _archive_json(name: str, payload: dict) -> None:
    """Write one bench's machine-readable result for the CI gate."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2))


def _classic(sim: Simulator):
    for _ in range(N_WAITS):
        yield sim.timeout(1.0)


def _fast(sim: Simulator):
    for _ in range(N_WAITS):
        yield 1.0


def _throughput(make_proc) -> float:
    """Best-of-ROUNDS events/second for one wait style."""
    best = 0.0
    for _ in range(ROUNDS):
        sim = Simulator()
        for _ in range(N_PROCS):
            sim.process(make_proc(sim))
        t0 = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - t0
        assert sim.events_processed >= N_PROCS * N_WAITS
        best = max(best, sim.events_processed / elapsed)
    return best


def test_events_per_sec(benchmark, report):
    classic, fast = benchmark.pedantic(
        lambda: (_throughput(_classic), _throughput(_fast)),
        rounds=1,
        iterations=1,
    )
    rows = [
        ("timeout (Event per wait)", f"{classic:,.0f}"),
        ("fast-wakeup (bare delay)", f"{fast:,.0f}"),
    ]
    report(
        "events_per_sec",
        render_table(
            ["Wait style", "events/sec"],
            rows,
            title=(
                f"Simulator event throughput ({N_PROCS} procs x "
                f"{N_WAITS} waits, best of {ROUNDS})"
            ),
        ),
    )
    _archive_json(
        "events_per_sec",
        {"events_per_sec": {"classic": classic, "fast_wakeup": fast}},
    )
    assert classic > 0 and fast > 0
    # the fast path must not regress event throughput (lenient bound:
    # CI machines are noisy; locally this runs well above 1.0)
    assert fast > classic * 0.8


# -- fabric transfer throughput ---------------------------------------------

N_TRANSFER_MSGS = 2000
N_CONTENDERS = 8
MSG_BYTES = 64 * 1024


def _send_loop(fabric, src, dst, n_msgs):
    for _ in range(n_msgs):
        yield from fabric.transfer(src, dst, MSG_BYTES)


def _transfer_throughput(contenders: int) -> tuple:
    """(messages/sec, fast share) for ``contenders`` concurrent senders.

    One sender keeps every link idle between its sequential messages
    (pure fast path); several senders over the same directed route
    saturate the shared links and queue FIFO (slow path).
    """
    best, fast_share = 0.0, 0.0
    for _ in range(ROUNDS):
        machine = preset_machine("deep-er")
        fabric = machine.fabric
        for _ in range(contenders):
            machine.sim.process(
                _send_loop(fabric, "cn00", "bn00", N_TRANSFER_MSGS)
            )
        t0 = time.perf_counter()
        machine.sim.run()
        elapsed = time.perf_counter() - t0
        total = fabric.messages_transferred
        assert total == contenders * N_TRANSFER_MSGS
        best = max(best, total / elapsed)
        fast_share = fabric.fast_transfers / total
    return best, fast_share


def test_fabric_transfers_per_sec(benchmark, report):
    (uncontended, fast_share), (contended, contended_fast_share) = (
        benchmark.pedantic(
            lambda: (_transfer_throughput(1), _transfer_throughput(N_CONTENDERS)),
            rounds=1,
            iterations=1,
        )
    )
    rows = [
        ("uncontended (1 sender)", f"{uncontended:,.0f}", f"{fast_share:.0%}"),
        (
            f"contended ({N_CONTENDERS} senders, shared route)",
            f"{contended:,.0f}",
            f"{contended_fast_share:.0%}",
        ),
    ]
    report(
        "fabric_transfers_per_sec",
        render_table(
            ["Scenario", "messages/sec", "fast-path share"],
            rows,
            title=(
                f"Fabric transfer throughput ({MSG_BYTES // 1024} KiB "
                f"messages, best of {ROUNDS})"
            ),
        ),
    )
    _archive_json(
        "fabric_transfers_per_sec",
        {
            "transfers_per_sec": {
                "uncontended": uncontended,
                "contended": contended,
            }
        },
    )
    assert uncontended > 0 and contended > 0
    # a lone sender must ride the request-free fast path; saturated
    # links must fall back to FIFO queueing
    assert fast_share == 1.0
    assert contended_fast_share < 0.5
