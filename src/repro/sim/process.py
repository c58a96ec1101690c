"""Generator-based simulation processes."""

from __future__ import annotations

from typing import Any, Generator

from .events import PARK, PENDING, Event, Interrupt, _Wakeup

__all__ = ["Process"]


class Process(Event):
    """A simulation process wrapping a Python generator.

    The generator yields :class:`~repro.sim.events.Event` instances to
    suspend; it is resumed with the event's value (or the event's
    exception is thrown into it).  The process is itself an event that
    succeeds with the generator's ``return`` value, so processes can be
    joined by yielding them.

    As a fast path, a generator may also yield a bare non-negative
    number: it suspends for that many seconds, exactly like yielding
    ``sim.timeout(n)`` but without allocating an event (the simulator
    reuses one pooled wakeup entry per process).  A generator that
    yields :data:`~repro.sim.events.PARK` waits on that same pooled
    wakeup after handing it to a producer (see
    :meth:`~repro.sim.Store.park`), and resumes with the value the
    producer schedules it with.
    """

    __slots__ = ("generator", "_target", "_wakeup")

    def __init__(self, sim: "Simulator", generator: Generator):  # noqa: F821
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)"
            )
        super().__init__(sim)
        self.generator = generator
        self._target: Event = None
        self._wakeup: _Wakeup = None
        # Kick off the process at the current simulation time.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        sim._schedule(init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Used e.g. for failure injection.  Interrupting a finished
        process is an error.
        """
        if not self.is_alive:
            raise RuntimeError("cannot interrupt a finished process")
        if self.sim.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        # Detach from the event we were waiting on, then resume with failure.
        target = self._target
        if type(target) is _Wakeup:
            # pooled wait: a queued entry is discarded when popped, a
            # parked one is skipped by its store
            target.cancelled = True
        elif target is not None and not target.processed:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            # nobody is listening anymore: producers must skip it
            target.abandoned = True
        interrupt_ev = Event(self.sim)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(self._resume)
        self.sim._schedule(interrupt_ev)

    # -- internal ------------------------------------------------------------
    def _resume(self, event) -> None:
        """Advance the generator with ``event``'s outcome (an Event or
        this process's pooled wakeup) until it waits again."""
        if self._value is not PENDING:
            # The process finished between this event being scheduled
            # and delivered (e.g. two same-instant interrupts: the first
            # one ends the generator, the second finds it gone).  The
            # event is stale — discard it.  A pooled wakeup carries no
            # failure, so only real events need defusing.
            if event.__class__ is not _Wakeup:
                event.defuse()
            return
        sim = self.sim
        send = self.generator.send
        sim._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        value = event._value
                        if event.__class__ is _Wakeup:
                            # consumed: a parked wakeup must not pin it
                            event._value = None
                        target = send(value)
                    else:
                        event.defuse()
                        target = self.generator.throw(event._value)
                except StopIteration as stop:
                    self._target = None
                    self.succeed(stop.value)
                    break
                except BaseException as exc:
                    self._target = None
                    self.fail(exc)
                    break

                cls = target.__class__
                if cls is float or cls is int:
                    # Fast path: a bare number is a timeout of that many
                    # seconds, scheduled without allocating an Event.
                    if target < 0:
                        exc = ValueError(f"negative delay {target}")
                        event = Event(sim)
                        event._ok = False
                        event._value = exc
                        event._defused = True
                        continue
                    sim._schedule_wakeup(self, target)
                    self._target = self._wakeup
                    break
                if target is PARK:
                    # a producer holds our wakeup and will schedule it
                    self._target = self._wakeup
                    break
                if not isinstance(target, Event):
                    exc = TypeError(
                        f"process yielded a non-event: {target!r}"
                    )
                    # Feed the error straight back into the generator.
                    event = Event(sim)
                    event._ok = False
                    event._value = exc
                    event._defused = True
                    continue
                if target.sim is not sim:
                    raise RuntimeError("yielded an event from another simulator")
                if target.callbacks is None:
                    # Already processed: loop immediately with its value.
                    event = target
                    continue
                target.callbacks.append(self._resume)
                self._target = target
                break
        finally:
            sim._active_process = None
