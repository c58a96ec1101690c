"""Non-blocking operation handles (MPI_Request equivalents)."""

from __future__ import annotations

from typing import Any, Sequence

from ..sim import AllOf, AnyOf, Process

__all__ = ["Request", "waitall", "waitany"]


class Request:
    """Handle for a pending non-blocking send or receive.

    Wraps the simulation event performing the operation: a
    :class:`~repro.mpi.runtime.SendOp` for a send, a
    :class:`~repro.sim.Process` otherwise.  ``yield req.wait()``
    suspends the caller until complete and evaluates to the
    operation's result (the received payload for a receive, ``None``
    for a send).
    """

    __slots__ = ("process", "kind")

    def __init__(self, process: Process, kind: str):
        self.process = process
        self.kind = kind

    def wait(self) -> Process:
        """The event to yield on: fires when the operation completes."""
        return self.process

    def test(self) -> bool:
        """Non-blockingly check for completion (MPI_Test)."""
        return self.process.triggered

    @property
    def result(self) -> Any:
        """Result after completion (raises if not complete)."""
        return self.process.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.test() else "pending"
        return f"<Request {self.kind} {state}>"


def waitall(requests: Sequence[Request]) -> AllOf:
    """MPI_Waitall: an event firing when every request completes.

    ``yield waitall(reqs)``; results remain available via
    ``req.result``.
    """
    if not requests:
        raise ValueError("waitall needs at least one request")
    sim = requests[0].process.sim
    return AllOf(sim, [r.process for r in requests])


def waitany(requests: Sequence[Request]) -> AnyOf:
    """MPI_Waitany: an event firing when the first request completes."""
    if not requests:
        raise ValueError("waitany needs at least one request")
    sim = requests[0].process.sim
    return AnyOf(sim, [r.process for r in requests])
