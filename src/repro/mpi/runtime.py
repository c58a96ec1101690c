"""The simulated MPI runtime: processes, groups, transport, launching.

Plays the role ParaStation MPI plays on the prototype: it starts rank
processes on nodes, carries messages over the EXTOLL fabric model, and
implements the global-MPI spawn mechanism used to bridge Cluster and
Booster (section III-A of the paper).

Application code is written as Python generators receiving a
:class:`RankContext`::

    def app(ctx):
        if ctx.world.rank == 0:
            yield from ctx.world.send(data, dest=1)
        else:
            data = yield from ctx.world.recv(source=0)

Sends have buffered (eager-style) completion semantics: a send blocks
for the wire time of the message, never for the matching receive, so
classic head-to-head exchanges cannot deadlock.  The rendezvous
handshake for large messages is charged inside the wire-time model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Sequence

import networkx as nx

from ..hardware.machine import Machine
from ..hardware.node import Node
from ..network.fabric import NodeFailedError
from ..sim import Process, Simulator, Store
from ..sim.events import PENDING, AnyOf, Event
from .datatypes import payload_nbytes
from .errors import (
    CommError,
    PeerFailedError,
    RankError,
    RouteDownError,
    TransportTimeoutError,
)
from .message import Envelope

__all__ = [
    "MPIProcess",
    "GroupState",
    "MPIRuntime",
    "FaultTolerancePolicy",
    "SendOp",
]


@dataclass(frozen=True)
class FaultTolerancePolicy:
    """How the runtime reacts to transport failures.

    With no policy attached (the default), a transfer that hits a dead
    node or severed route raises immediately and transfers never time
    out — byte-for-byte the pre-fault-tolerance behaviour.

    ``max_retries`` bounds re-attempts per message; between attempts the
    sender backs off ``backoff_base_s * backoff_factor**attempt``
    seconds of simulated time, which doubles as the window in which a
    restored link lets the retry reroute and succeed.  ``timeout_s``
    (optional) aborts any single transfer attempt that takes longer —
    e.g. one crawling over a degraded link.

    ``jitter`` spreads retrying senders apart: each delay is scaled by
    a uniform factor from ``[1 - jitter, 1 + jitter]`` drawn from a
    private RNG seeded with ``jitter_seed`` — deterministic for a
    given seed, so jittered simulations still replay bit-identically.
    ``jitter=0`` (default) draws nothing and reproduces the historical
    fixed schedule exactly.  The delay sequence itself comes from the
    shared :class:`repro.backoff.ExponentialBackoff` helper — the same
    implementation the experiment-service clients use.
    """

    max_retries: int = 0
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0
    timeout_s: Optional[float] = None
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_factor < 1:
            raise ValueError("invalid backoff parameters")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff(self):
        """A fresh per-message delay generator under this policy."""
        from ..backoff import ExponentialBackoff

        return ExponentialBackoff(
            base_s=self.backoff_base_s,
            factor=self.backoff_factor,
            jitter=self.jitter,
            seed=self.jitter_seed,
        )


class MPIProcess:
    """One MPI rank: a mailbox plus its pinned node."""

    _ids = itertools.count()

    def __init__(self, runtime: "MPIRuntime", node: Node):
        self.gid = next(MPIProcess._ids)
        self.runtime = runtime
        self.node = node
        self.mailbox = Store(runtime.sim)
        self.sim_process: Optional[Process] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MPIProcess gid={self.gid} on {self.node.node_id}>"


class GroupState:
    """Shared state of a communicator's process group.

    Owns two MPI context ids — one for point-to-point traffic, one for
    collectives — so library-internal messages can never match user
    receives (the same trick real MPI implementations use).
    """

    def __init__(self, runtime: "MPIRuntime", procs: List[MPIProcess], name: str):
        if not procs:
            raise CommError("cannot create an empty group")
        self.runtime = runtime
        self.procs = procs
        self.name = name
        self.context_pt2pt = runtime.next_context()
        self.context_coll = runtime.next_context()
        runtime.register_context(self.context_pt2pt, name, "p2p")
        runtime.register_context(self.context_coll, name, "coll")
        # Rendezvous area for collectively-created objects (spawn):
        # op sequence number -> created object.
        self.spawn_results: dict = {}

    @property
    def size(self) -> int:
        """Number of ranks in the group."""
        return len(self.procs)

    def proc(self, rank: int) -> MPIProcess:
        """The member process at a rank (validates the rank)."""
        if not 0 <= rank < len(self.procs):
            raise RankError(
                f"rank {rank} out of range for group {self.name!r} "
                f"of size {len(self.procs)}"
            )
        return self.procs[rank]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GroupState {self.name!r} size={self.size}>"


class RankContext:
    """Everything one rank's application code needs.

    Attributes
    ----------
    world:
        The rank's view of its ``MPI_COMM_WORLD``.
    node:
        The hardware node this rank is pinned to.
    """

    def __init__(
        self,
        runtime: "MPIRuntime",
        proc: MPIProcess,
        world: "Comm",  # noqa: F821
        parent: Optional["Comm"] = None,  # noqa: F821
    ):
        self.runtime = runtime
        self.proc = proc
        self.world = world
        self._parent = parent

    @property
    def sim(self) -> Simulator:
        return self.runtime.sim

    @property
    def node(self) -> Node:
        return self.proc.node

    @property
    def rank(self) -> int:
        return self.world.rank

    def compute(self, seconds: float):
        """``seconds`` of local computation, to be yielded by the rank.

        Returns the validated delay itself: yielding a bare number takes
        the simulator's allocation-free timeout fast path.
        """
        if seconds < 0:
            raise ValueError("negative compute time")
        return seconds

    def execute(self, kernel, threads: Optional[int] = None) -> Generator:
        """Run a perf-model kernel on this rank's node (simulated time).

        Returns the modeled duration in seconds.
        """
        from ..perfmodel import time_on_node  # late import: avoid cycle

        duration = time_on_node(self.node, kernel, threads=threads)
        yield duration
        return duration

    def get_parent(self) -> Optional["Comm"]:  # noqa: F821
        """The inter-communicator to the spawning application, if any
        (``MPI_Comm_get_parent`` equivalent)."""
        return self._parent


class SendOp(Process):
    """One non-blocking send, driven by callbacks instead of a generator.

    The op is the event a :class:`~repro.mpi.request.Request` waits on.
    Its start entry takes the queue position a send process's init
    event would, and does the traffic accounting.  On an uncontended
    route (:meth:`~repro.network.fabric.Fabric.acquire`) it occupies the
    links and schedules one pooled wakeup at ``now + transfer_time``;
    the wakeup releases the route (:meth:`Fabric.finish`) and deposits
    the envelope.  Every other case (fast path disabled, same-node
    copy, failed endpoint or missing route, contended route, a policy
    with ``timeout_s``) resumes :meth:`MPIRuntime.transmit` as this
    process's generator in place: the reference path, unchanged.

    A successful op with no waiter yet is marked processed in place
    rather than scheduled, so a later ``yield req.wait()`` continues at
    once; an op with a waiter, and every failure, is scheduled as a
    finished process would be.
    """

    __slots__ = (
        "runtime", "src_proc", "dst_proc", "context_id", "source_rank",
        "tag", "payload", "nbytes", "_rc", "_t0",
    )

    def __init__(
        self,
        runtime: "MPIRuntime",
        src_proc: MPIProcess,
        dst_proc: MPIProcess,
        context_id: int,
        source_rank: int,
        tag: int,
        payload: Any,
        nbytes: Optional[int] = None,
    ):
        sim = runtime.sim
        Event.__init__(self, sim)
        self.generator = None
        self._target = None
        self._wakeup = None
        self.runtime = runtime
        self.src_proc = src_proc
        self.dst_proc = dst_proc
        self.context_id = context_id
        self.source_rank = source_rank
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        start = Event(sim)
        start._ok = True
        start._value = None
        start.callbacks.append(self._start)
        sim._schedule(start)

    def _start(self, event: Event) -> None:
        rt = self.runtime
        payload, nbytes = self.payload, self.nbytes
        n = payload_nbytes(payload) if nbytes is None else int(nbytes)
        policy = rt.fault_tolerance
        fast = None
        if policy is None or policy.timeout_s is None:
            fast = rt.fabric.acquire(
                self.src_proc.node.node_id, self.dst_proc.node.node_id, n
            )
        if fast is None:
            self.generator = rt.transmit(
                self.src_proc, self.dst_proc, self.context_id,
                self.source_rank, self.tag, payload, nbytes=n,
            )
            self.payload = None  # the generator owns it now
            Process._resume(self, event)
            return
        rt._account(self.context_id, n)
        self.nbytes = n
        self._rc, duration = fast
        sim = self.sim
        self._t0 = sim._now
        sim._schedule_wakeup(self, duration)

    def _resume(self, event: Event) -> None:
        # A finished op drops its pooled wakeup: that breaks the
        # op <-> wakeup cycle, so the op (and the machine it references)
        # is freed by refcount rather than by a full gc pass.
        if self.generator is not None:
            Process._resume(self, event)
            if self._value is not PENDING:
                self._wakeup = None
            return
        # the transfer's wakeup: release the route, deliver
        self._wakeup = None
        n = self.nbytes
        self.runtime.fabric.finish(
            self._rc, self.src_proc.node.node_id, self.dst_proc.node.node_id,
            n, self._t0,
        )
        env = Envelope(
            self.context_id, self.source_rank, self.tag, n, self.payload
        )
        self.payload = None  # a finished request must not pin the data
        mailbox = self.dst_proc.mailbox
        if mailbox.offer(env):
            self._complete()
        else:
            # a full bounded mailbox: complete once a receiver drains it
            mailbox.put(env).callbacks.append(self._complete)

    def _complete(self, _event: Optional[Event] = None) -> None:
        if self.callbacks:
            self.succeed()
        else:
            # nobody waits yet: processed in place, no queue entry
            self._ok = True
            self._value = None
            self.callbacks = None


class MPIRuntime:
    """Factory and transport for simulated MPI jobs on one machine."""

    def __init__(
        self,
        machine: Machine,
        fault_tolerance: Optional[FaultTolerancePolicy] = None,
    ):
        self.machine = machine
        self.sim = machine.sim
        self.fabric = machine.fabric
        self.fault_tolerance = fault_tolerance
        self._context_counter = itertools.count(1)
        #: per-context traffic accounting: context_id -> [messages, bytes]
        self.traffic: dict = {}
        #: context id -> (communicator name, "p2p" | "coll"), so traffic
        #: can be reported per communicator instead of per opaque id
        self.contexts: dict = {}
        #: every rank sim-process ever launched (spawned children too) —
        #: lets a supervisor abort a whole job on a fatal fault
        self.launched_processes: List[Process] = []
        # transport fault-tolerance accounting
        self.transport_failures = 0
        self.transport_retries = 0
        self.transport_timeouts = 0
        self.backoff_time_s = 0.0

    def live_processes(self) -> List[Process]:
        """Launched rank processes that have not finished yet."""
        return [p for p in self.launched_processes if not p.triggered]

    def transport_metrics(self) -> dict:
        """Fault-tolerance counter snapshot for the instrumentation hub."""
        return {
            "failures": self.transport_failures,
            "retries": self.transport_retries,
            "timeouts": self.transport_timeouts,
            "backoff_time_s": self.backoff_time_s,
        }

    def next_context(self) -> int:
        """Allocate a fresh MPI context id."""
        return next(self._context_counter)

    def register_context(self, context_id: int, comm_name: str, kind: str) -> None:
        """Label a context id for per-communicator traffic reporting."""
        self.contexts[context_id] = (comm_name, kind)

    def comm_traffic(self) -> dict:
        """Traffic aggregated per communicator name.

        Returns ``{name: {p2p_messages, p2p_bytes, coll_messages,
        coll_bytes}}``; unregistered contexts appear as ``ctx<N>``.
        """
        out: dict = {}
        for ctx_id, (messages, nbytes) in sorted(self.traffic.items()):
            name, kind = self.contexts.get(ctx_id, (f"ctx{ctx_id}", "p2p"))
            stats = out.setdefault(
                name,
                {
                    "p2p_messages": 0,
                    "p2p_bytes": 0,
                    "coll_messages": 0,
                    "coll_bytes": 0,
                },
            )
            prefix = "coll" if kind == "coll" else "p2p"
            stats[f"{prefix}_messages"] += messages
            stats[f"{prefix}_bytes"] += nbytes
        return out

    # -- transport ---------------------------------------------------------
    def transmit(
        self,
        src_proc: MPIProcess,
        dst_proc: MPIProcess,
        context_id: int,
        source_rank: int,
        tag: int,
        payload: Any,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Move one message from ``src_proc`` to ``dst_proc`` (a process).

        Without a :class:`FaultTolerancePolicy` this is exactly one
        fabric transfer (failures propagate raw).  With one, transport
        faults surface as typed :class:`~repro.mpi.errors.TransportError`
        subclasses and each message is retried with exponential backoff
        — a restored link or rebooted peer lets the retry reroute.
        """
        n = payload_nbytes(payload) if nbytes is None else int(nbytes)
        self._account(context_id, n)
        if self.fault_tolerance is None:
            yield from self.fabric.transfer(
                src_proc.node.node_id, dst_proc.node.node_id, n
            )
        else:
            yield from self._transfer_with_retries(
                src_proc.node.node_id, dst_proc.node.node_id, n
            )
        env = Envelope(context_id, source_rank, tag, n, payload)
        mailbox = dst_proc.mailbox
        if not mailbox.offer(env):
            # only a full bounded mailbox exerts back-pressure
            yield mailbox.put(env)

    def _account(self, context_id: int, nbytes: int) -> None:
        """Per-context traffic accounting of one message."""
        stats = self.traffic.get(context_id)
        if stats is None:
            stats = self.traffic[context_id] = [0, 0]
        stats[0] += 1
        stats[1] += nbytes

    def _transfer_once(self, src_id: str, dst_id: str, nbytes: int) -> Generator:
        """One transfer attempt, optionally bounded by the policy timeout."""
        timeout_s = self.fault_tolerance.timeout_s
        if timeout_s is None:
            yield from self.fabric.transfer(src_id, dst_id, nbytes)
            return
        xfer = self.sim.process(self.fabric.transfer(src_id, dst_id, nbytes))
        xfer.defuse()  # outcome is collected here, not by the simulator
        race = AnyOf(self.sim, [xfer, self.sim.timeout(timeout_s)])
        yield race  # a failed child re-raises its exception right here
        if xfer.triggered:
            return
        xfer.interrupt(cause="transport timeout")
        self.transport_timeouts += 1
        raise TransportTimeoutError(
            f"transfer {src_id} -> {dst_id} ({nbytes} B) exceeded "
            f"{timeout_s} s"
        )

    def _transfer_with_retries(
        self, src_id: str, dst_id: str, nbytes: int
    ) -> Generator:
        """Retry-with-backoff wrapper mapping fabric faults to typed errors."""
        policy = self.fault_tolerance
        backoff = policy.backoff()
        for attempt in range(policy.max_retries + 1):
            try:
                yield from self._transfer_once(src_id, dst_id, nbytes)
                return
            except NodeFailedError as exc:
                error = PeerFailedError(str(exc))
            except nx.exception.NetworkXNoPath as exc:
                error = RouteDownError(str(exc))
            except TransportTimeoutError as exc:
                error = exc
            self.transport_failures += 1
            if attempt == policy.max_retries:
                raise error
            self.transport_retries += 1
            delay = backoff.next_delay()
            self.backoff_time_s += delay
            yield delay

    # -- launching ---------------------------------------------------------
    def _place(
        self, nodes: Sequence[Node], nprocs: int, procs_per_node: int
    ) -> List[Node]:
        if nprocs <= 0:
            raise ValueError("need at least one process")
        if procs_per_node <= 0:
            raise ValueError("procs_per_node must be positive")
        capacity = len(nodes) * procs_per_node
        if nprocs > capacity:
            raise ValueError(
                f"cannot place {nprocs} ranks on {len(nodes)} nodes "
                f"({procs_per_node} per node)"
            )
        placement = []
        for i in range(nprocs):
            placement.append(nodes[i // procs_per_node])
        return placement

    def launch(
        self,
        app: Callable[[RankContext], Generator],
        nodes: Sequence[Node],
        nprocs: Optional[int] = None,
        procs_per_node: int = 1,
        name: str = "world",
        parent_maker: Optional[Callable[[GroupState, int], "Comm"]] = None,  # noqa: F821
    ) -> List[Process]:
        """Start ``nprocs`` ranks of ``app`` over ``nodes``.

        Returns one sim :class:`Process` per rank; each succeeds with
        the application generator's return value.  ``parent_maker`` is
        used internally by spawn to hand children their parent
        inter-communicator.
        """
        from .communicator import Comm  # late import: avoid cycle

        nprocs = nprocs if nprocs is not None else len(nodes) * procs_per_node
        placement = self._place(nodes, nprocs, procs_per_node)
        procs = [MPIProcess(self, node) for node in placement]
        group = GroupState(self, procs, name=name)
        sim_procs = []
        for rank, proc in enumerate(procs):
            world_view = Comm(group, rank)
            parent = parent_maker(group, rank) if parent_maker else None
            ctx = RankContext(self, proc, world_view, parent=parent)
            proc.sim_process = self.sim.process(app(ctx))
            sim_procs.append(proc.sim_process)
        self.launched_processes.extend(sim_procs)
        return sim_procs

    def run_app(
        self,
        app: Callable[[RankContext], Generator],
        nodes: Sequence[Node],
        nprocs: Optional[int] = None,
        procs_per_node: int = 1,
        until: Optional[float] = None,
    ) -> List[Any]:
        """Launch, run the simulation to completion, return rank results."""
        sim_procs = self.launch(
            app, nodes, nprocs=nprocs, procs_per_node=procs_per_node
        )
        self.sim.run(until=until)
        unfinished = [i for i, p in enumerate(sim_procs) if not p.triggered]
        if unfinished:
            raise RuntimeError(
                f"ranks {unfinished} never completed "
                "(deadlock or missing message?)"
            )
        return [p.value for p in sim_procs]
