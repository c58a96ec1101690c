"""The discrete-event simulator core: clock, event queue, run loop.

The simulator owns the virtual clock and keeps future events in a
:class:`~repro.sim.queues.HeapEventQueue`.  The run loop is
batch-oriented: every event scheduled at the next timestamp is dequeued
in one ``pop_batch`` and dispatched back-to-back in ascending time,
FIFO among equal times.  Entries due at the current time bypass the
heap through the same-time lane (see :class:`Simulator`).
"""

from __future__ import annotations

import time
from typing import Any, Generator, Optional

from .events import Event, Timeout, _Wakeup
from .process import Process
from .queues import EmptyQueue, HeapEventQueue

__all__ = ["Simulator", "StopSimulation", "EmptyQueue"]


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""


class Simulator:
    """Priority-queue driven discrete-event simulator.

    Time is a float in **seconds** by convention throughout this project
    (network latencies are therefore around ``1e-6``).

    Entries scheduled for the current time skip the heap: they go to a
    plain list, the *same-time lane*, which the run loop hands out as
    the next batch before it asks the heap.  Once the batch at time T
    is popped the heap holds nothing at T, so every later entry at T is
    in the lane in insertion order — exactly the order the heap would
    produce.

    Typical use::

        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)
            return 42

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 42
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue = HeapEventQueue()
        # the same-time lane: entries scheduled at exactly ``_now``
        self._lane: list = []
        # batch in flight: entries popped by step() but not yet
        # delivered (plus the tail of a batch a StopSimulation cut
        # short); _draining counts the undelivered entries of the batch
        # being dispatched, so depth accounting is one attribute read
        self._pending: list = []
        self._draining = 0
        self._active_process: Optional[Process] = None
        self.events_processed = 0
        #: events delivered as pooled wakeups (bare-number timeouts,
        #: parked receives, MPI send-op steps) rather than as Events
        self.fast_wakeups = 0
        #: batches dequeued (every pop_batch, singletons included)
        self.batches = 0
        #: largest single batch of co-temporal events dequeued
        self.max_batch = 0
        # histogram of multi-event batch sizes, keyed by bit_length
        # (size 1 is implicit: batches - sum of these counts)
        self._batch_hist: dict = {}
        #: high-water mark of the event queue (queued + lane + in-flight)
        self.peak_queue_depth = 0
        #: accumulated real (host) time spent inside :meth:`run`
        self.wall_time_s = 0.0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process whose generator is currently executing, if any."""
        return self._active_process

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event, delay: float = 0.0) -> None:
        """Queue ``event`` (an Event or a pooled wakeup) ``delay`` from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        now = self._now
        when = now + delay
        q = self._queue
        if when == now:
            self._lane.append(event)
        else:
            q.push(when, event)
        depth = q.count + len(self._lane) + self._draining
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    def _schedule_wakeup(self, process: Process, delay: float) -> None:
        """Timeout fast path: resume ``process`` after ``delay`` without
        allocating an Event (used when a process yields a bare number).

        The per-process :class:`_Wakeup` is reused between waits; a
        fresh one is only allocated if the old one is still held (queued
        after an interrupt cancelled it, or parked in a store).
        """
        wakeup = process._wakeup
        if wakeup is None or wakeup.pending:
            wakeup = _Wakeup(process)
            process._wakeup = wakeup
        wakeup.pending = True
        wakeup.cancelled = False
        now = self._now
        when = now + delay
        q = self._queue
        if when == now:
            self._lane.append(wakeup)
        else:
            q.push(when, wakeup)
        depth = q.count + len(self._lane) + self._draining
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    def _wake(self, wakeup: _Wakeup, value: Any = None) -> None:
        """Schedule ``wakeup`` at the current time; its process resumes
        with ``value``."""
        wakeup.pending = True
        wakeup._value = value
        lane = self._lane
        lane.append(wakeup)
        depth = self._queue.count + len(lane) + self._draining
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    def schedule_at(self, event: Event, when: float) -> None:
        """Schedule a *triggered* event at absolute time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        q = self._queue
        if when == self._now:
            self._lane.append(event)
        else:
            q.push(when, event)
        depth = q.count + len(self._lane) + self._draining
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator and return it.

        The returned :class:`Process` is itself an event that succeeds
        with the generator's return value.
        """
        return Process(self, generator)

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        """Entries still owed to the run loop (queued + lane + in-flight)."""
        return self._queue.count + len(self._lane) + self._draining

    def batch_size_hist(self) -> dict:
        """Histogram of dequeued batch sizes, power-of-two binned.

        Keys are bin labels (``"1"``, ``"2-3"``, ``"4-7"``, ...), values
        are batch counts.
        """
        multi = sum(self._batch_hist.values())
        hist = {}
        if self.batches > multi:
            hist["1"] = self.batches - multi
        for k in sorted(self._batch_hist):
            lo, hi = 1 << (k - 1), (1 << k) - 1
            hist[f"{lo}-{hi}"] = self._batch_hist[k]
        return hist

    # -- run loop ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event.

        That is the current time while entries of the batch being
        dispatched, or of the same-time lane, remain.  Raises
        :class:`EmptyQueue` (an :class:`IndexError`) when the simulation
        is idle.
        """
        if self._draining or self._lane:
            return self._now
        return self._queue.peek()

    def _pop_batch(self):
        """Dequeue the next batch (the lane first, else the heap's
        next timestamp), advancing the clock and the batch metrics."""
        batch = self._lane
        if batch:
            self._lane = []
        else:
            self._now, batch = self._queue.pop_batch()
        n = len(batch)
        self.batches += 1
        if n > 1:
            k = n.bit_length()
            hist = self._batch_hist
            hist[k] = hist.get(k, 0) + 1
            if n > self.max_batch:
                self.max_batch = n
        elif not self.max_batch:
            self.max_batch = 1
        return batch

    def _dispatch(self, entry) -> None:
        """Deliver one dequeued entry (pooled wakeup or callbacks)."""
        if entry.__class__ is _Wakeup:
            entry.pending = False
            if entry.cancelled:
                entry._value = None
            else:
                self.fast_wakeups += 1
                entry.process._resume(entry)
            return
        callbacks = entry.callbacks
        entry.callbacks = None  # mark processed
        for cb in callbacks:
            cb(entry)
        if not entry._ok and not entry._defused:
            # An un-handled failure: surface it rather than losing it.
            raise entry._value

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        Raises :class:`EmptyQueue` (an :class:`IndexError`) when no
        events remain.  When several events share the next timestamp the
        whole batch is dequeued and buffered; each ``step()`` delivers
        one entry of it, in the same order :meth:`run` would.
        """
        pending = self._pending
        if not pending:
            batch = self._pop_batch()
            pending.extend(batch)
            self._draining = len(batch)
        entry = pending.pop(0)
        self._draining -= 1
        self.events_processed += 1
        self._dispatch(entry)

    def step_batch(self) -> int:
        """Process every event at the next timestamp; returns the count.

        This is the run loop's unit of work: one batch of co-temporal
        events, delivered back-to-back.  Events scheduled at the *same*
        time during the batch form a later batch (preserving FIFO).
        Raises :class:`EmptyQueue` when no events remain.
        """
        pending = self._pending
        if not pending:
            batch = self._pop_batch()
            pending.extend(batch)
            self._draining = len(batch)
        done = 0
        while pending:
            entry = pending.pop(0)
            self._draining -= 1
            self.events_processed += 1
            done += 1
            self._dispatch(entry)
        return done

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue is empty or the clock passes ``until``."""
        if until is not None:
            if until < self._now:
                raise ValueError(f"until ({until}) lies in the past")
            stopper = Event(self)
            stopper._ok = True
            stopper._value = None
            stopper.callbacks.append(self._raise_stop)
            self.schedule_at(stopper, until)
        t0 = time.perf_counter()  # wall-clock-ok: host-side telemetry only
        try:
            self._run_loop()
        except StopSimulation:
            pass
        finally:
            self.wall_time_s += time.perf_counter() - t0  # wall-clock-ok: host-side telemetry only

    def _run_loop(self) -> None:
        """The hot loop: dequeue one batch, deliver its events.

        Everything dispatch needs is bound to locals; the per-event work
        for a pooled wakeup is the class check, two flag writes, and the
        process's resume.  A mid-batch exception (including the
        ``StopSimulation`` a ``run(until=...)`` stopper raises) stashes
        the undelivered tail in ``_pending`` so queue state stays exact.
        """
        pop_batch = self._pop_batch
        pending = self._pending
        hist_cls = _Wakeup
        while True:
            if pending:
                # tail of a batch a step()/stop cut short: finish it
                while pending:
                    entry = pending.pop(0)
                    self._draining -= 1
                    self.events_processed += 1
                    self._dispatch(entry)
            try:
                batch = pop_batch()
            except EmptyQueue:
                return
            n = len(batch)
            self.events_processed += n
            fast = 0
            if n == 1:
                entry = batch[0]
                if entry.__class__ is hist_cls:
                    entry.pending = False
                    if entry.cancelled:
                        entry._value = None
                    else:
                        self.fast_wakeups += 1
                        entry.process._resume(entry)
                    continue
                callbacks = entry.callbacks
                entry.callbacks = None
                for cb in callbacks:
                    cb(entry)
                if not entry._ok and not entry._defused:
                    raise entry._value
                continue
            self._draining = n
            it = iter(batch)
            try:
                for entry in it:
                    self._draining -= 1
                    if entry.__class__ is hist_cls:
                        entry.pending = False
                        if entry.cancelled:
                            entry._value = None
                        else:
                            fast += 1
                            entry.process._resume(entry)
                        continue
                    callbacks = entry.callbacks
                    entry.callbacks = None
                    for cb in callbacks:
                        cb(entry)
                    if not entry._ok and not entry._defused:
                        raise entry._value
            except BaseException:
                # keep the undelivered tail (events_processed was bumped
                # for the whole batch up front: take the tail back out)
                rest = list(it)
                if rest:
                    pending.extend(rest)
                self._draining = len(rest)
                self.events_processed -= len(rest)
                self.fast_wakeups += fast
                raise
            self.fast_wakeups += fast

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Convenience: start ``generator`` as a process, run, return its value."""
        proc = self.process(generator)
        self.run(until=until)
        if not proc.triggered:
            raise RuntimeError("process did not finish before the simulation ended")
        if not proc._ok:
            raise proc._value
        return proc._value

    @staticmethod
    def _raise_stop(_event: Event) -> None:
        raise StopSimulation()
