"""Wire messages and matching."""

from __future__ import annotations

from typing import Any

from .datatypes import ANY_SOURCE, ANY_TAG

__all__ = ["Envelope", "match"]


class Envelope:
    """A message as it sits in a process's mailbox.

    ``context_id`` isolates communicators from each other (messages on
    different communicators never match), exactly as MPI contexts do.
    ``source`` is the sender's rank *within that communicator* (for an
    inter-communicator: the rank in the remote group).

    A plain slotted class rather than a frozen dataclass: one is built
    per message, and the frozen ``__init__`` costs a ``setattr`` call
    per field.  Treat instances as read-only.
    """

    __slots__ = ("context_id", "source", "tag", "nbytes", "payload")

    def __init__(
        self, context_id: int, source: int, tag: int, nbytes: int, payload: Any
    ):
        self.context_id = context_id
        self.source = source
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload

    def _fields(self) -> tuple:
        return (self.context_id, self.source, self.tag, self.nbytes, self.payload)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Envelope:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            f"Envelope(context_id={self.context_id!r}, source={self.source!r}, "
            f"tag={self.tag!r}, nbytes={self.nbytes!r}, payload={self.payload!r})"
        )


def match(context_id: int, source: int, tag: int):
    """Build a mailbox filter implementing MPI matching semantics."""

    def _filter(env: Envelope) -> bool:
        return (
            env.context_id == context_id
            and (source == ANY_SOURCE or env.source == source)
            and (tag == ANY_TAG or env.tag == tag)
        )

    return _filter
