"""The event queue behind the :class:`~repro.sim.Simulator`.

The simulator's hot loop is, end to end, "push timestamped entries, pop
them back in (time, FIFO) order".  :class:`HeapEventQueue` keeps that
concern behind a tiny interface — ``push`` / ``pop_batch`` / ``peek`` /
``len()`` — so the run loop never sees the ``(time, seq, entry)``
tuples it stores.

``pop_batch`` returns *every* entry of the next timestamp at once (the
batch-dequeue contract); entries scheduled **at** that same timestamp
*while the batch executes* form a later batch, which preserves the
global (time, insertion) order a one-at-a-time heap loop would produce.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

__all__ = ["EmptyQueue", "HeapEventQueue", "resolve_backend"]


class EmptyQueue(IndexError):
    """Raised by ``pop_batch``/``peek`` (and :meth:`Simulator.step` /
    :meth:`Simulator.peek`) on an empty event queue.

    Subclasses :class:`IndexError` so callers that guarded the old
    bare ``heappop``/``[0]`` errors keep working unchanged.
    """


class HeapEventQueue:
    """One binary heap of ``(time, seq, entry)``.

    ``seq`` is a monotonically increasing tie-breaker, so entries that
    share a timestamp pop in FIFO (insertion) order.
    """

    __slots__ = ("_heap", "_seq", "count")

    def __init__(self):
        self._heap: List[tuple] = []
        self._seq = 0
        #: live entry count (kept as a plain attribute so the hot
        #: scheduling path reads it without a method call)
        self.count = 0

    def push(self, when: float, entry) -> None:
        """Insert ``entry`` at time ``when`` (FIFO among equal times)."""
        self._seq += 1
        heappush(self._heap, (when, self._seq, entry))
        self.count += 1

    def pop_batch(self) -> Tuple[float, list]:
        """Remove and return ``(when, entries)`` for the next timestamp.

        ``entries`` holds every queued entry scheduled at exactly
        ``when``, in insertion order.  Raises :class:`EmptyQueue` when
        idle.
        """
        heap = self._heap
        if not heap:
            raise EmptyQueue("event queue is empty")
        when, _seq, entry = heappop(heap)
        batch = [entry]
        while heap and heap[0][0] == when:
            batch.append(heappop(heap)[2])
        self.count -= len(batch)
        return when, batch

    def peek(self) -> float:
        """Time of the next entry; raises :class:`EmptyQueue` when idle."""
        heap = self._heap
        if not heap:
            raise EmptyQueue("event queue is empty")
        return heap[0][0]

    def __len__(self) -> int:
        return self.count


def resolve_backend(name=None) -> str:
    """Name of the event core: always ``"heap"``, the only one.

    Versions before 1.10 offered a choice of event-queue backend.
    ``perfbench/run.py`` still records this value in the environment
    block of every run, so the function stays and returns the constant;
    ``name`` is ignored.
    """
    return "heap"
