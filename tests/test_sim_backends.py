"""Differential tests: the event-queue backends are bit-identical.

The pluggable scheduler backends (``heap`` — the reference binary heap —
and ``calendar`` — the bucketed batch-dequeue queue) promise *exact*
equivalence: the same workload replays event-for-event, in the same
order, at the same timestamps, producing the same results and the same
deterministic metrics.  These tests enforce that promise on randomized
seeded workloads spanning every waiting primitive (timeouts, the
bare-delay fast path, interrupts, resources, stores, fabric transfers)
and on full engine reports.  The same-time lane both backends share is
checked against a plain ``heapq`` oracle.
"""

import json
import random
from heapq import heappop, heappush
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EmptyQueue, Interrupt, Resource, Simulator, Store

BACKENDS = ("heap", "calendar")

# exactly representable floats on purpose *and* awkward ones: equal
# timestamps must group identically however they were computed
DELAYS = (0.0, 0.125, 0.25, 0.1, 0.2, 0.3, 1.0, 1e-6, 3.7e-6)


def _random_workload(sim: Simulator, seed: int, log: list):
    """Build a randomized process soup; every action appends to ``log``.

    The RNG drives structure only (how many processes, which primitive
    each step uses) and is consumed identically for every backend, so
    two runs differ *only* by the scheduler implementation under test.
    """
    rng = random.Random(seed)
    resource = Resource(sim, capacity=rng.randint(1, 3))
    store = Store(sim, capacity=rng.choice([4, float("inf")]))
    n_procs = rng.randint(8, 16)

    def worker(pid, plan):
        try:
            for step, (kind, arg) in enumerate(plan):
                if kind == "timeout":
                    yield sim.timeout(arg)
                elif kind == "fast":
                    yield arg
                elif kind == "resource":
                    req = resource.request()
                    yield req
                    log.append(("acq", pid, step, sim.now))
                    try:
                        yield arg
                    finally:
                        resource.release(req)
                elif kind == "put":
                    yield store.put((pid, step))
                elif kind == "get":
                    item = yield store.get()
                    log.append(("got", pid, step, sim.now, item))
                log.append((kind, pid, step, sim.now))
        except Interrupt as i:
            log.append(("worker-interrupted", pid, sim.now, i.cause))
            return -1
        return pid

    def saboteur(victims, plan):
        for when, idx in plan:
            yield when
            victim = victims[idx % len(victims)]
            if victim.is_alive and sim.active_process is not victim:
                victim.interrupt(cause=("boom", idx))
                log.append(("interrupt", idx, sim.now))

    def resilient(pid, plan):
        # sleeps long, absorbs interrupts, then keeps going: exercises
        # cancelled-wakeup discard and pool reuse under churn
        for step, delay in enumerate(plan):
            try:
                yield delay * 50
            except Interrupt as i:
                log.append(("caught", pid, step, sim.now, i.cause))
            yield delay
            log.append(("resumed", pid, step, sim.now))

    victims = []
    for pid in range(n_procs):
        kinds = ("timeout", "fast", "resource", "put", "get")
        plan = [
            (rng.choice(kinds), rng.choice(DELAYS))
            for _ in range(rng.randint(3, 10))
        ]
        # keep put/get balanced enough that getters cannot all starve
        if all(k != "put" for k, _ in plan):
            plan.append(("put", 0.0))
        p = sim.process(worker(pid, plan))
        victims.append(p)
    for pid in range(rng.randint(1, 3)):
        plan = [rng.choice(DELAYS[1:]) for _ in range(rng.randint(2, 5))]
        victims.append(sim.process(resilient(100 + pid, plan)))
    sab_plan = [
        (rng.choice(DELAYS[1:]), rng.randrange(64))
        for _ in range(rng.randint(2, 6))
    ]
    sim.process(saboteur(victims, sab_plan))
    return victims


def _replay(backend: str, seed: int):
    sim = Simulator(backend=backend)
    log: list = []
    procs = _random_workload(sim, seed, log)
    sim.run(until=500.0)
    outcomes = [
        (p.value if (p.triggered and p.ok) else None, p.triggered)
        for p in procs
    ]
    return {
        "log": log,
        "outcomes": outcomes,
        "events": sim.events_processed,
        "fast_wakeups": sim.fast_wakeups,
        "peak_depth": sim.peak_queue_depth,
        "batches": sim.batches,
        "max_batch": sim.max_batch,
        "hist": sim.batch_size_hist(),
        "now": sim.now,
    }


@pytest.mark.parametrize("seed", range(12))
def test_randomized_workloads_replay_identically(seed):
    """Same seed, different backend: event-for-event identical traces —
    every action at the same timestamp in the same order, the same
    event/batch counters, the same process outcomes."""
    heap = _replay("heap", seed)
    calendar = _replay("calendar", seed)
    assert heap["log"] == calendar["log"]
    assert heap == calendar


def _transfer_trace(backend: str) -> list:
    from repro.engine import preset_machine

    sim = Simulator(backend=backend)
    machine = preset_machine(sim=sim)
    fabric = machine.fabric
    log = []

    def sender(src, dst, n, size):
        for i in range(n):
            yield from fabric.transfer(src, dst, size)
            log.append((src, dst, i, sim.now))

    # one uncontended sender (pure fast path) and a contended pair
    # sharing a route (FIFO slow path)
    sim.process(sender("cn00", "bn00", 20, 64 * 1024))
    sim.process(sender("cn01", "bn01", 15, 16 * 1024))
    sim.process(sender("cn01", "bn01", 15, 4 * 1024))
    sim.run()
    log.append(("totals", fabric.bytes_transferred,
                fabric.messages_transferred, fabric.fast_transfers))
    return log


def test_fabric_transfers_replay_identically():
    assert _transfer_trace("heap") == _transfer_trace("calendar")


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_leaked_wakeups_after_churn(backend):
    """After heavy cancel churn the queue drains to empty on both
    backends — cancelled entries never linger."""
    sim = Simulator(backend=backend)

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
    # the counter is exact: replaying the identical workload on the
    # other backend reproduces it bit-for-bit
    other = Simulator(backend="calendar" if backend == "heap" else "heap")
    vs = [other.process(flapper(other)) for _ in range(4)]
    other.process(interrupter(other, vs))
    other.run()
    assert other.fast_wakeups == exact


# -- engine reports: byte-identical modulo host timing ------------------------


def _normalized_report(backend: str) -> str:
    from repro.engine import Engine, ExperimentSpec

    spec = ExperimentSpec(mode="cb", steps=5, sim_backend=backend)
    doc = Engine().run(spec).to_dict()
    # host-side timing and the backend's own identity are the *only*
    # fields allowed to differ between backends
    for key in ("wall_time_s", "events_per_sec", "host_wall_s"):
        doc["sim"].pop(key, None)
    doc["sim"].pop("backend", None)
    doc["spec"].pop("sim_backend", None)
    return json.dumps(doc, sort_keys=True)


def test_fig7_report_byte_identical_across_backends():
    """A fig7-style engine run serializes to byte-identical JSON under
    both backends once host-timing and backend-identity fields are
    stripped (the acceptance contract of the pluggable core).  The
    batch-size histogram intentionally stays in the comparison: both
    backends must group co-temporal events identically."""
    assert _normalized_report("heap") == _normalized_report("calendar")


def test_backend_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", "calendar")
    assert Simulator().backend == "calendar"
    monkeypatch.setenv("REPRO_SIM_BACKEND", "heap")
    assert Simulator().backend == "heap"
    monkeypatch.setenv("REPRO_SIM_BACKEND", "wheel")
    with pytest.raises(ValueError, match="unknown sim backend"):
        Simulator()


def test_spec_backend_threads_into_metrics():
    from repro.engine import Engine, ExperimentSpec

    report = Engine().run(ExperimentSpec(mode="cb", steps=3,
                                         sim_backend="calendar"))
    assert report.sim["backend"]["name"] == "calendar"
    assert "peak_buckets" in report.sim["backend"]["queue"]
    assert report.spec["sim_backend"] == "calendar"


def test_cache_key_ignores_backend(tmp_path):
    """Backends are bit-identical, so a report cached under one backend
    answers the same spec under the other."""
    from repro.cache import ResultCache, cache_key
    from repro.engine import Engine, ExperimentSpec

    heap_spec = ExperimentSpec(mode="cb", steps=4, sim_backend="heap")
    cal_spec = ExperimentSpec(mode="cb", steps=4, sim_backend="calendar")
    assert cache_key(heap_spec) == cache_key(cal_spec)
    cache = ResultCache(tmp_path)
    Engine().run(heap_spec, cache=cache)
    assert cache.misses == 1
    Engine().run(cal_spec, cache=cache)
    assert cache.hits == 1


# -- the same-time lane against a plain heapq oracle -------------------------
#
# Both backends sit under the simulator's same-time lane, so comparing
# them with each other no longer checks how entries due *now* are
# ordered.  These programs are replayed against an oracle that is the
# classic one-heap event loop, with batch dequeue, written out here.

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


def _lane_run(backend, program, runner, untils):
    sim = Simulator(start_time=LANE_START, backend=backend)
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


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    program=st.lists(_lane_nodes(), min_size=1, max_size=6),
    runner=st.sampled_from(("run", "step", "step_batch", "until")),
    offsets=st.lists(st.sampled_from((0.0, 1e-12, 0.25, 0.5, 2.0)), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_lane_matches_heapq_oracle(backend, program, runner, offsets):
    """Entries due now (delay 0, delays that round to now,
    ``schedule_at(now)``), later entries and entries scheduled from
    callbacks dispatch in the oracle's order at its timestamps, with
    its event, batch, histogram and queue-depth figures."""
    untils = sorted(LANE_START + x for x in offsets) if runner == "until" else []
    expected = _lane_oracle(program, untils)
    if runner != "until":
        expected["stops"] = []
    assert _lane_run(backend, program, runner, untils) == expected
