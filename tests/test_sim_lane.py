"""The same-time lane and the wakeup pool of the event core.

Entries due at the current time skip the heap and ride the simulator's
same-time lane; these tests replay random programs against an oracle
that is the classic one-heap event loop, and check that pooled wakeups
neither leak nor miscount under interrupt churn.
"""

from heapq import heappop, heappush
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EmptyQueue, Interrupt, Simulator


# -- wakeup-pool hygiene under interrupt/cancel churn ------------------------


def test_wakeup_pool_reuse_under_interrupt_churn():
    """Interrupting fast-path waits over and over must not leak pending
    wakeups: each cancelled entry is discarded on pop, the pool object
    is replaced only while its predecessor is still queued, and the
    ``fast_wakeups`` counter counts exactly the waits that completed."""
    sim = Simulator()
    completed = []

    def sleeper(sim):
        n = 0
        while True:
            try:
                yield 10.0
            except Interrupt:
                continue
            n += 1
            completed.append(n)
            if n >= 5:
                return n

    def churner(sim, victim):
        # interrupt mid-wait 20 times, always re-arming a fresh wait
        # while the cancelled wakeup is still queued
        for _ in range(20):
            yield 1.0
            if victim.is_alive:
                victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(churner(sim, victim))
    sim.run()
    assert victim.ok and victim.value == 5
    # every completed wait took the fast path; interrupted waits never
    # increment the counter (their queued wakeups popped cancelled)
    assert sim.fast_wakeups == 5 + 20  # victim waits + churner waits
    # nothing left pending once the simulation drained
    assert len(sim) == 0
    assert victim._wakeup is not None and not victim._wakeup.pending


def test_no_leaked_wakeups_after_churn():
    """After heavy cancel churn the queue drains to empty — cancelled
    entries never linger."""
    sim = Simulator()

    def flapper(sim):
        for _ in range(10):
            try:
                yield 5.0
            except Interrupt:
                pass

    def interrupter(sim, victims):
        for _ in range(30):
            yield 0.5
            for v in victims:
                if v.is_alive:
                    v.interrupt()

    victims = [sim.process(flapper(sim)) for _ in range(4)]
    sim.process(interrupter(sim, victims))
    sim.run()
    assert len(sim) == 0
    assert sim._queue.count == 0
    exact = sim.fast_wakeups
    # the counter is exact: replaying the identical workload on a
    # fresh simulator reproduces it bit-for-bit
    other = Simulator()
    vs = [other.process(flapper(other)) for _ in range(4)]
    other.process(interrupter(other, vs))
    other.run()
    assert other.fast_wakeups == exact


# -- the same-time lane against a plain heapq oracle -------------------------
#
# These programs are replayed against an oracle that is the classic
# one-heap event loop, with batch dequeue, written out here.

#: a clock this large turns 1e-12 into a delay that rounds to "now"
LANE_START = 1e6
#: 0 and 1e-12 land on "now"; 1e-9 is a few ulps later, a distinct time
LANE_ARGS = (0.0, 1e-12, 1e-9, 0.25, 1.0)


def _lane_nodes():
    """(kind, arg, children): ``delay`` succeeds an event ``arg`` from
    now, ``at`` uses ``schedule_at(now + arg)`` and ``sleep`` starts a
    process that yields the bare number ``arg``.  A node schedules its
    children when it fires."""
    leaf = st.tuples(
        st.sampled_from(("delay", "at", "sleep")),
        st.sampled_from(LANE_ARGS),
        st.just(()),
    )
    return st.recursive(
        leaf,
        lambda kids: st.tuples(
            st.sampled_from(("delay", "at", "sleep")),
            st.sampled_from(LANE_ARGS),
            st.lists(kids, max_size=3).map(tuple),
        ),
        max_leaves=24,
    )


def _bin(n: int) -> str:
    if n == 1:
        return "1"
    k = n.bit_length()
    return f"{1 << (k - 1)}-{(1 << k) - 1}"


def _lane_oracle(program, untils):
    """Dispatch log and counters of ``program`` on one ``heapq``."""
    heap, seq, rem = [], count(), []
    state = {"now": LANE_START, "peak": 0, "events": 0, "batches": 0, "max": 0}
    hist, log = {}, []

    def push(when, item):
        heappush(heap, (when, next(seq), item))
        state["peak"] = max(state["peak"], len(heap) + len(rem))

    def schedule(path, node):
        kind, arg, children = node
        now = state["now"]
        if kind == "sleep":  # the process's init event, at now
            push(now, ("init", path, arg, children))
        else:
            push(now + arg, ("fire", path, children, False))

    for i, node in enumerate(program):
        schedule((i,), node)
    stops = []
    for until in list(untils) + [None]:
        if until is not None:
            push(until, ("stop",))
        while True:
            if not rem:
                if not heap:
                    break
                when = heap[0][0]
                state["now"] = when
                while heap and heap[0][0] == when:
                    rem.append(heappop(heap)[2])
                state["batches"] += 1
                state["max"] = max(state["max"], len(rem))
                hist[_bin(len(rem))] = hist.get(_bin(len(rem)), 0) + 1
            item = rem.pop(0)
            state["events"] += 1
            if item[0] == "stop":
                stops.append(state["now"])
                break
            if item[0] == "init":  # the process yields its delay
                _, path, arg, children = item
                push(state["now"] + arg, ("fire", path, children, True))
            elif item[0] == "fire":
                _, path, children, in_process = item
                log.append((path, state["now"]))
                for j, child in enumerate(children):
                    schedule(path + (j,), child)
                if in_process:  # the finished process's own event
                    push(state["now"], ("done",))
    return {
        "log": log,
        "stops": stops,
        "events": state["events"],
        "batches": state["batches"],
        "hist": hist,
        "max_batch": state["max"],
        "peak": state["peak"],
    }


def _lane_run(program, runner, untils):
    sim = Simulator(start_time=LANE_START)
    log = []

    def fire(path, children):
        log.append((path, sim.now))
        for j, child in enumerate(children):
            schedule(path + (j,), child)

    def schedule(path, node):
        kind, arg, children = node
        if kind == "sleep":
            def proc():
                yield arg
                fire(path, children)

            sim.process(proc())
            return
        ev = sim.event()
        ev.callbacks.append(lambda _ev: fire(path, children))
        if kind == "delay":
            ev.succeed(path, delay=arg)
        else:
            ev._ok = True
            ev._value = path
            sim.schedule_at(ev, sim.now + arg)

    for i, node in enumerate(program):
        schedule((i,), node)
    stops = []
    if runner == "run":
        sim.run()
    elif runner == "until":
        for until in untils:
            sim.run(until=until)
            stops.append(sim.now)
        sim.run()
    else:
        advance = sim.step if runner == "step" else sim.step_batch
        while True:
            try:
                advance()
            except EmptyQueue:
                break
    assert len(sim) == 0
    return {
        "log": log,
        "stops": stops,
        "events": sim.events_processed,
        "batches": sim.batches,
        "hist": sim.batch_size_hist(),
        "max_batch": sim.max_batch,
        "peak": sim.peak_queue_depth,
    }


@given(
    program=st.lists(_lane_nodes(), min_size=1, max_size=6),
    runner=st.sampled_from(("run", "step", "step_batch", "until")),
    offsets=st.lists(st.sampled_from((0.0, 1e-12, 0.25, 0.5, 2.0)), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_lane_matches_heapq_oracle(program, runner, offsets):
    """Entries due now (delay 0, delays that round to now,
    ``schedule_at(now)``), later entries and entries scheduled from
    callbacks dispatch in the oracle's order at its timestamps, with
    its event, batch, histogram and queue-depth figures."""
    untils = sorted(LANE_START + x for x in offsets) if runner == "until" else []
    expected = _lane_oracle(program, untils)
    if runner != "until":
        expected["stops"] = []
    assert _lane_run(program, runner, untils) == expected
