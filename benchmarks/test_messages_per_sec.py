"""Microbenchmark — MPI message throughput through the whole send path.

Where ``fabric_transfers_per_sec`` times the fabric alone, this bench
drives every layer a halo exchange touches: 8 ranks on the deep-er
preset repeat a ``sendrecv`` ring shift plus a scalar ``allreduce``,
the per-step pattern of xPic.  Each message is one ``isend`` op
(start, route acquire, wakeup, mailbox delivery) plus the matching
receive, so the rate tracks the per-message cost of the MPI runtime,
the fabric and the event core together.

Archives ``messages_per_sec`` (best of 3, fabric messages per host
second) for the ``check_regression`` gate.
"""

import json
import pathlib
import time

from repro.bench import render_table
from repro.engine import preset_machine
from repro.mpi import Bytes, MPIRuntime

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

N_RANKS = 8
N_ITERS = 400
RING_BYTES = 4096
ROUNDS = 3


def _ring_allreduce(ctx):
    comm = ctx.world
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    total = 0.0
    for _ in range(N_ITERS):
        yield from comm.sendrecv(Bytes(RING_BYTES), dest=right, source=left)
        total = yield from comm.allreduce(1.0)
    return total


def _throughput() -> tuple:
    """(best messages/sec, messages per round, events per round)."""
    best = 0.0
    for _ in range(ROUNDS):
        machine = preset_machine("deep-er")
        runtime = MPIRuntime(machine)
        t0 = time.perf_counter()
        totals = runtime.run_app(_ring_allreduce, machine.cluster[:N_RANKS])
        elapsed = time.perf_counter() - t0
        assert totals == [float(N_RANKS)] * N_RANKS
        messages = machine.fabric.messages_transferred
        best = max(best, messages / elapsed)
    return best, messages, machine.sim.events_processed


def test_messages_per_sec(benchmark, report):
    rate, messages, events = benchmark.pedantic(
        _throughput, rounds=1, iterations=1
    )
    report(
        "messages_per_sec",
        render_table(
            ["Pattern", "messages", "events/message", "messages/sec"],
            [(
                "sendrecv ring + allreduce",
                f"{messages:,}",
                f"{events / messages:.2f}",
                f"{rate:,.0f}",
            )],
            title=(
                f"MPI message throughput ({N_RANKS} ranks on deep-er, "
                f"{N_ITERS} iterations, best of {ROUNDS})"
            ),
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "messages_per_sec.json").write_text(
        json.dumps({"messages_per_sec": rate}, indent=2)
    )
    # ring shift + recursive-doubling allreduce: 1 + log2(8) per rank
    assert messages == N_ITERS * N_RANKS * 4
    assert rate > 0
