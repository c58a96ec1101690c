"""Event primitives for the discrete-event simulation engine.

The engine follows the classic event/process paradigm (in the spirit of
SimPy, reimplemented from scratch): an :class:`Event` is a one-shot
condition that is *triggered* (scheduled) and later *processed* (its
callbacks run at its scheduled simulation time).  Processes (see
:mod:`repro.sim.process`) are generators that suspend by yielding events.

All hot-path primitives here are slotted: the event queue
(:mod:`repro.sim.queues`) and the same-time lane move these objects
through batches by the million, so they carry no ``__dict__`` and the
pooled fast-path entries (:class:`_Wakeup`) are reused across yields.
Events scheduled for the same timestamp are dispatched as one batch in
FIFO insertion order.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "PENDING",
    "PARK",
]


class _Wakeup:
    """Pooled queue entry that resumes one process.

    Every per-message step of a run travels as one of these instead of
    a full :class:`Event`: a bare-number timeout, a parked receive (see
    :meth:`repro.sim.Store.park`) and the start, transfer and waited
    completion of an MPI send op.  It carries a value but no callback
    list, and each process reuses its own across waits, so the hot loop
    allocates nothing after a process's first wait.  The run loop hands
    the entry itself to ``process._resume``; ``_ok`` is a class constant
    because a wakeup always succeeds.

    ``pending`` is set while the entry is held by the queue or parked in
    a store, so a process never re-arms an entry somebody still holds.
    A cancelled wakeup (its process was interrupted away) is discarded
    when popped and skipped by the store it is parked in.
    """

    __slots__ = ("process", "pending", "cancelled", "_value")

    _ok = True

    def __init__(self, process):
        self.process = process
        self.pending = False
        self.cancelled = False
        self._value = None


class _Park:
    """Sentinel a process yields to wait on its parked wakeup."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PARK>"


#: yielded by a process whose pooled wakeup a producer now holds (see
#: :meth:`repro.sim.Store.park`); the process resumes with the value
#: the wakeup is scheduled with
PARK = _Park()


class _PendingType:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _PendingType()


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries an arbitrary user object describing
    why the interruption happened (e.g. a node failure record).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    Events move through three states:

    1. *untriggered* — freshly created, not yet scheduled;
    2. *triggered*  — :meth:`succeed` or :meth:`fail` has been called and
       the event sits in the simulator queue;
    3. *processed*  — the simulator popped it and ran its callbacks.

    Callbacks are callables of one argument (the event itself).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "abandoned")

    def __init__(self, sim: "Simulator"):  # noqa: F821 - forward ref
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: a failed event whose exception was delivered to somebody
        self._defused = False
        #: set when the waiting process was interrupted away from this
        #: event: producers (e.g. Store) must not satisfy it anymore
        self.abandoned = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled via succeed()/fail()."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        ``delay`` schedules processing that far in the future (default:
        process at the current simulation time).
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator will not crash."""
        self._defused = True

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class Condition(Event):
    """An event that triggers when ``evaluate`` over its children is met.

    Children that are already processed are accounted for immediately.
    If any child fails, the condition fails with that child's exception.
    """

    __slots__ = ("events", "_evaluate", "_count")

    def __init__(
        self,
        sim: "Simulator",
        events: List[Event],
        evaluate: Callable[[int, int], bool],
    ):
        super().__init__(sim)
        self.events = list(events)
        self._evaluate = evaluate
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
            if ev.processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)
            return
        self._count += 1
        if self._evaluate(len(self.events), self._count):
            self.succeed(self._collect())

    def _collect(self) -> dict:
        """Value of a condition: mapping of processed child -> value."""
        return {
            ev: ev._value
            for ev in self.events
            if ev.processed and ev._ok
        }


class AllOf(Condition):
    """Condition that triggers when *all* children have succeeded."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim, events, lambda total, done: done == total)


class AnyOf(Condition):
    """Condition that triggers when *any* child has succeeded."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim, events, lambda total, done: done >= 1)
