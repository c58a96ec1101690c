"""Communicator views: point-to-point, collectives, and spawn.

A :class:`Comm` is one rank's view of a communicator (all ranks of a
group share a :class:`~repro.mpi.runtime.GroupState`).  Intra- and
inter-communicators share the class: an inter-communicator simply has a
``remote`` group, and point-to-point ranks then address the remote
group — exactly the global-MPI model ParaStation implements across
Cluster and Booster.

Collectives are implemented with the textbook algorithms (binomial
trees, recursive doubling, dissemination, ring), so their simulated
cost has the right latency/bandwidth scaling in group size.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Generator, List, Optional, Sequence

from .datatypes import ANY_SOURCE, ANY_TAG
from .errors import CommError, RankError
from .message import match
from .request import Request
from .runtime import GroupState, MPIProcess, SendOp
from .status import Status

__all__ = ["Comm", "PersistentRequest", "SUM", "MAX", "MIN", "PROD"]


def SUM(a, b):
    """Default reduction: elementwise/numeric addition."""
    return a + b


def MAX(a, b):
    """Reduction operator: elementwise/numeric maximum."""
    import numpy as np

    return np.maximum(a, b) if hasattr(a, "shape") else max(a, b)


def MIN(a, b):
    """Reduction operator: elementwise/numeric minimum."""
    import numpy as np

    return np.minimum(a, b) if hasattr(a, "shape") else min(a, b)


def PROD(a, b):
    """Reduction operator: elementwise/numeric product."""
    return a * b


class Comm:
    """One rank's handle on a communicator."""

    def __init__(
        self,
        group: GroupState,
        rank: int,
        remote: Optional[GroupState] = None,
        context_override: Optional[tuple] = None,
    ):
        self.group = group
        self._rank = rank
        self.remote = remote
        # Inter-communicators carry their own context ids (shared by the
        # two sides) so traffic cannot match intra-communicator receives.
        if context_override is not None:
            self._ctx_pt2pt, self._ctx_coll = context_override
        else:
            self._ctx_pt2pt = group.context_pt2pt
            self._ctx_coll = group.context_coll
        self._coll_seq = 0
        self._spawn_seq = 0

    # -- introspection -------------------------------------------------------
    @property
    def rank(self) -> int:
        """This rank's number in the (local) group."""
        return self._rank

    @property
    def size(self) -> int:
        """Size of the local group."""
        return self.group.size

    @property
    def remote_size(self) -> int:
        """Size of the remote group (inter-communicators only)."""
        if self.remote is None:
            raise CommError("not an inter-communicator")
        return self.remote.size

    @property
    def is_inter(self) -> bool:
        """Whether this is an inter-communicator."""
        return self.remote is not None

    @property
    def runtime(self):
        """The owning MPI runtime."""
        return self.group.runtime

    @property
    def _my_proc(self) -> MPIProcess:
        # the own rank is valid by construction: skip the range check
        return self.group.procs[self._rank]

    def _peer_group(self) -> GroupState:
        return self.remote if self.remote is not None else self.group

    # -- point-to-point --------------------------------------------------
    def send(
        self,
        payload: Any,
        dest: int,
        tag: int = 0,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Blocking (buffered-semantics) send to ``dest``."""
        dst_proc = self._peer_group().proc(dest)
        yield from self.runtime.transmit(
            self._my_proc,
            dst_proc,
            self._ctx_pt2pt,
            self._rank,
            tag,
            payload,
            nbytes=nbytes,
        )

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Generator:
        """Blocking receive; returns the payload."""
        if source != ANY_SOURCE:
            self._peer_group().proc(source)  # validate rank
        env = yield self._park(self._ctx_pt2pt, source, tag)
        if status is not None:
            status._set(env.source, env.tag, env.nbytes)
        return env.payload

    def isend(
        self,
        payload: Any,
        dest: int,
        tag: int = 0,
        nbytes: Optional[int] = None,
    ) -> Request:
        """Non-blocking send; returns a :class:`Request` over a
        :class:`~repro.mpi.runtime.SendOp`.  ``dest`` is validated at
        once."""
        return Request(
            self._send_op(
                self._peer_group().proc(dest), self._ctx_pt2pt, tag, payload,
                nbytes,
            ),
            "isend",
        )

    def _send_op(self, dst_proc, context_id, tag, payload, nbytes=None) -> SendOp:
        return SendOp(
            self.group.runtime, self._my_proc, dst_proc, context_id,
            self._rank, tag, payload, nbytes,
        )

    def _park(self, context_id, source, tag):
        """Park the running process on this rank's mailbox for the next
        matching envelope: ``env = yield self._park(...)``.

        The matching receive of ``recv``, ``sendrecv`` and the
        collectives: no event, the process's pooled wakeup waits in the
        mailbox (:meth:`~repro.sim.Store.park`).
        """
        mailbox = self._my_proc.mailbox
        return mailbox.park(
            mailbox.sim._active_process, match(context_id, source, tag)
        )

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Request:
        """Non-blocking receive; ``yield req.wait()`` gives the payload."""
        proc = self.runtime.sim.process(self.recv(source=source, tag=tag))
        return Request(proc, "irecv")

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Optional[Status]:
        """Non-blocking probe: Status of a matching buffered message,
        or ``None`` (MPI_Iprobe).  Does not consume the message."""
        env = self._my_proc.mailbox.peek(match(self._ctx_pt2pt, source, tag))
        if env is None:
            return None
        st = Status()
        st._set(env.source, env.tag, env.nbytes)
        return st

    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator:
        """Blocking probe: wait until a matching message is available,
        return its Status without consuming it (MPI_Probe)."""
        env = yield self._my_proc.mailbox.watch(
            match(self._ctx_pt2pt, source, tag)
        )
        st = Status()
        st._set(env.source, env.tag, env.nbytes)
        return st

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Simultaneous send and receive (deadlock-free exchange)."""
        peers = self._peer_group()
        op = self._send_op(
            peers.proc(dest), self._ctx_pt2pt, sendtag, payload, nbytes
        )
        if source != ANY_SOURCE:
            peers.proc(source)  # validate rank
        env = yield self._park(self._ctx_pt2pt, source, recvtag)
        yield op
        return env.payload

    # -- collective helpers ----------------------------------------------
    def _coll_send(self, payload, dest, tag, nbytes=None) -> Generator:
        dst_proc = self.group.proc(dest)
        yield from self.runtime.transmit(
            self._my_proc,
            dst_proc,
            self._ctx_coll,
            self._rank,
            tag,
            payload,
            nbytes=nbytes,
        )

    def _coll_recv(self, source, tag) -> Generator:
        env = yield self._park(self._ctx_coll, source, tag)
        return env.payload

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    # -- collectives ----------------------------------------------------
    def barrier(self) -> Generator:
        """Dissemination barrier: ceil(log2 p) rounds."""
        if self.is_inter:
            raise CommError("collectives are intra-communicator operations")
        size, rank = self.size, self._rank
        tag = self._next_coll_tag()
        from .datatypes import Bytes

        k = 1
        while k < size:
            dest = (rank + k) % size
            src = (rank - k) % size
            req = self.isend_internal(Bytes(0), dest, tag)
            yield from self._coll_recv(src, tag)
            yield req.wait()
            k <<= 1

    def isend_internal(self, payload, dest, tag) -> Request:
        """Non-blocking send on the collective context (library use)."""
        return Request(
            self._send_op(self.group.proc(dest), self._ctx_coll, tag, payload),
            "isend",
        )

    #: payload size above which bcast switches from the binomial tree
    #: to the bandwidth-optimal scatter + allgather (van de Geijn)
    BCAST_LONG_THRESHOLD = 512 * 1024

    def bcast(self, payload: Any, root: int = 0) -> Generator:
        """Broadcast; returns the payload on every rank.

        The algorithm switches by size, as production MPIs do: a
        binomial tree for short messages (latency-optimal, but every
        hop carries the full payload) and scatter + ring allgather for
        long ones (bandwidth-optimal: each rank transmits ~2x its 1/p
        share instead of up to log p full copies).
        """
        if self.is_inter:
            raise CommError("collectives are intra-communicator operations")
        from .datatypes import payload_nbytes

        if self.size <= 2:
            result = yield from self._bcast_binomial(payload, root)
            return result
        # In real MPI every rank knows the count; with opaque payloads
        # only the root does, so an 8-byte size header travels down the
        # tree first and synchronizes the algorithm choice.
        total = payload_nbytes(payload) if self._rank == root else 0
        total = yield from self._bcast_binomial(total, root)
        if total > self.BCAST_LONG_THRESHOLD:
            result = yield from self._bcast_long(payload, root)
        else:
            result = yield from self._bcast_binomial(payload, root)
        return result

    def _bcast_long(self, payload: Any, root: int) -> Generator:
        """van de Geijn broadcast: scatter 1/p chunks, ring-allgather.

        Payloads are opaque objects in this MPI, so the wire traffic is
        modelled with exactly the algorithm's chunk sizes while the
        object itself is handed over through the group's shared state
        once the (fully synchronizing) pattern completes.
        """
        from .datatypes import Bytes, payload_nbytes

        size = self.size
        tag = self._next_coll_tag()
        total = payload_nbytes(payload)
        share = max(total // size, 1)
        key = ("_bcast_long", self._ctx_coll, tag)
        if self._rank == root:
            self.group.spawn_results[key] = payload
        # scatter the 1/p chunks down from the root ...
        my_chunk = yield from self.scatter(
            [Bytes(share) for _ in range(size)] if self._rank == root else None,
            root=root,
        )
        # ... and ring-allgather them back together everywhere
        yield from self.allgather(my_chunk)
        return self.group.spawn_results[key]

    def _bcast_binomial(self, payload: Any, root: int) -> Generator:
        """Binomial-tree broadcast (latency-optimal for short messages)."""
        size, rank = self.size, self._rank
        self.group.proc(root)
        tag = self._next_coll_tag()
        relative = (rank - root) % size
        if relative != 0:
            msb = 1 << (relative.bit_length() - 1)
            parent = ((relative - msb) + root) % size
            payload = yield from self._coll_recv(parent, tag)
            kstart = relative.bit_length()
        else:
            kstart = 0
        k = kstart
        while (1 << k) < size:
            child = relative + (1 << k)
            if child < size:
                yield from self._coll_send(payload, (child + root) % size, tag)
            k += 1
        return payload

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = SUM,
        root: int = 0,
    ) -> Generator:
        """Binomial-tree reduction; the result lands on ``root``."""
        if self.is_inter:
            raise CommError("collectives are intra-communicator operations")
        size, rank = self.size, self._rank
        self.group.proc(root)
        tag = self._next_coll_tag()
        relative = (rank - root) % size
        acc = value
        mask = 1
        while mask < size:
            if relative & mask:
                parent = ((relative & ~mask) + root) % size
                yield from self._coll_send(acc, parent, tag)
                break
            partner = relative | mask
            if partner < size:
                other = yield from self._coll_recv((partner + root) % size, tag)
                acc = op(acc, other)
            mask <<= 1
        return acc if rank == root else None

    def allreduce(
        self, value: Any, op: Callable[[Any, Any], Any] = SUM
    ) -> Generator:
        """Recursive doubling for power-of-two groups, else reduce+bcast."""
        if self.is_inter:
            raise CommError("collectives are intra-communicator operations")
        size, rank = self.size, self._rank
        if size & (size - 1) == 0:
            tag = self._next_coll_tag()
            acc = value
            mask = 1
            procs = self.group.procs
            while mask < size:
                partner = rank ^ mask
                send = self._send_op(procs[partner], self._ctx_coll, tag, acc)
                env = yield self._park(self._ctx_coll, partner, tag)
                yield send
                other = env.payload
                # Keep op application order rank-independent.
                acc = op(acc, other) if rank < partner else op(other, acc)
                mask <<= 1
            return acc
        result = yield from self.reduce(value, op=op, root=0)
        result = yield from self.bcast(result, root=0)
        return result

    def gather(self, value: Any, root: int = 0) -> Generator:
        """Linear gather; returns the rank-ordered list on ``root``."""
        if self.is_inter:
            raise CommError("collectives are intra-communicator operations")
        size, rank = self.size, self._rank
        self.group.proc(root)
        tag = self._next_coll_tag()
        if rank == root:
            out: List[Any] = [None] * size
            out[root] = value
            for _ in range(size - 1):
                env = yield self._park(self._ctx_coll, ANY_SOURCE, tag)
                out[env.source] = env.payload
            return out
        yield from self._coll_send(value, root, tag)
        return None

    def allgather(self, value: Any) -> Generator:
        """Ring allgather: p-1 steps, bandwidth-optimal."""
        if self.is_inter:
            raise CommError("collectives are intra-communicator operations")
        size, rank = self.size, self._rank
        tag = self._next_coll_tag()
        out: List[Any] = [None] * size
        out[rank] = value
        right = (rank + 1) % size
        left = (rank - 1) % size
        carry_idx = rank
        for _ in range(size - 1):
            req = self.isend_internal((carry_idx, out[carry_idx]), right, tag)
            idx, item = yield from self._coll_recv(left, tag)
            yield req.wait()
            out[idx] = item
            carry_idx = idx
        return out

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0) -> Generator:
        """Linear scatter of ``values[i]`` to rank ``i``."""
        if self.is_inter:
            raise CommError("collectives are intra-communicator operations")
        size, rank = self.size, self._rank
        self.group.proc(root)
        tag = self._next_coll_tag()
        if rank == root:
            if values is None or len(values) != size:
                raise ValueError(f"scatter needs exactly {size} values at root")
            for dest in range(size):
                if dest != root:
                    yield from self._coll_send(values[dest], dest, tag)
            return values[root]
        item = yield from self._coll_recv(root, tag)
        return item

    def alltoall(self, values: Sequence[Any]) -> Generator:
        """Pairwise-exchange all-to-all."""
        if self.is_inter:
            raise CommError("collectives are intra-communicator operations")
        size, rank = self.size, self._rank
        if len(values) != size:
            raise ValueError(f"alltoall needs exactly {size} values")
        tag = self._next_coll_tag()
        out: List[Any] = [None] * size
        out[rank] = values[rank]
        for k in range(1, size):
            send_to = (rank + k) % size
            recv_from = (rank - k) % size
            req = self.isend_internal(values[send_to], send_to, tag)
            out[recv_from] = yield from self._coll_recv(recv_from, tag)
            yield req.wait()
        return out

    def reduce_scatter_block(
        self, values: Sequence[Any], op: Callable[[Any, Any], Any] = SUM
    ) -> Generator:
        """Reduce ``values[i]`` across ranks; rank i gets the i-th result.

        Implemented as pairwise reduce-to-owner: each rank sends its
        contribution for block i directly to rank i (the large-message
        optimal pattern).
        """
        if self.is_inter:
            raise CommError("collectives are intra-communicator operations")
        size, rank = self.size, self._rank
        if len(values) != size:
            raise ValueError(f"reduce_scatter_block needs exactly {size} values")
        tag = self._next_coll_tag()
        reqs = []
        for k in range(1, size):
            dest = (rank + k) % size
            reqs.append(self.isend_internal(values[dest], dest, tag))
        acc = values[rank]
        for _ in range(size - 1):
            other = yield from self._coll_recv(ANY_SOURCE, tag)
            acc = op(acc, other)
        for req in reqs:
            yield req.wait()
        return acc

    def scan(self, value: Any, op: Callable[[Any, Any], Any] = SUM) -> Generator:
        """Inclusive prefix reduction along the rank chain."""
        if self.is_inter:
            raise CommError("collectives are intra-communicator operations")
        size, rank = self.size, self._rank
        tag = self._next_coll_tag()
        acc = value
        if rank > 0:
            prefix = yield from self._coll_recv(rank - 1, tag)
            acc = op(prefix, value)
        if rank + 1 < size:
            yield from self._coll_send(acc, rank + 1, tag)
        return acc

    # -- persistent requests (MPI_Send_init / MPI_Recv_init) ----------------
    def send_init(
        self, dest: int, tag: int = 0, nbytes: Optional[int] = None
    ) -> "PersistentRequest":
        """Create a persistent send channel to ``dest``.

        Call ``start(payload)`` each iteration — the idiom for xPic's
        per-step interface-buffer exchange."""
        self._peer_group().proc(dest)  # validate once, up front
        return PersistentRequest(self, "send", dest, tag, nbytes)

    def recv_init(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> "PersistentRequest":
        """Create a persistent receive channel from ``source``."""
        if source != ANY_SOURCE:
            self._peer_group().proc(source)
        return PersistentRequest(self, "recv", source, tag, None)

    # -- non-blocking collectives (MPI-3) -----------------------------------
    def ibarrier(self) -> Request:
        """Non-blocking barrier; ``yield req.wait()`` to complete."""
        return Request(self.runtime.sim.process(self.barrier()), "ibarrier")

    def ibcast(self, payload: Any, root: int = 0) -> Request:
        """Non-blocking broadcast; the request's result is the payload."""
        return Request(
            self.runtime.sim.process(self.bcast(payload, root=root)), "ibcast"
        )

    def iallreduce(
        self, value: Any, op: Callable[[Any, Any], Any] = SUM
    ) -> Request:
        """Non-blocking allreduce; the request's result is the total.

        Lets diagnostics reductions overlap compute, exactly like the
        auxiliary computations of the paper's Listings 2/3.
        """
        return Request(
            self.runtime.sim.process(self.allreduce(value, op=op)),
            "iallreduce",
        )

    # -- statistics ----------------------------------------------------------
    def stats(self) -> dict:
        """Traffic accounting for this communicator: messages and bytes
        on its point-to-point and collective contexts."""
        t = self.runtime.traffic
        p2p = t.get(self._ctx_pt2pt, [0, 0])
        coll = t.get(self._ctx_coll, [0, 0])
        return {
            "p2p_messages": p2p[0],
            "p2p_bytes": p2p[1],
            "coll_messages": coll[0],
            "coll_bytes": coll[1],
        }

    # -- communicator management ------------------------------------------
    def dup(self) -> "Comm":
        """A new view with fresh contexts is unnecessary here: views are
        cheap, so dup simply returns a sibling view of the same group."""
        return Comm(self.group, self._rank, remote=self.remote)

    def split(self, color: int, key: Optional[int] = None) -> Generator:
        """Collective split into sub-communicators by ``color``.

        Returns this rank's view of its new communicator (or ``None``
        for a negative color, mirroring ``MPI_UNDEFINED``).
        """
        if self.is_inter:
            raise CommError("split is an intra-communicator operation")
        key = self._rank if key is None else key
        entries = yield from self.allgather((color, key, self._rank))
        if color < 0:
            return None
        members = sorted(
            (k, r) for (c, k, r) in entries if c == color
        )
        ranks = [r for (_k, r) in members]
        # Deterministic shared construction: every member computes the
        # same group; the runtime memoizes it by (context, color, ranks).
        new_group = self.runtime_shared_group(ranks, f"{self.group.name}/split{color}")
        my_new_rank = ranks.index(self._rank)
        return Comm(new_group, my_new_rank)

    def runtime_shared_group(self, ranks: Sequence[int], name: str) -> GroupState:
        """Memoized group creation so all split callers share one state."""
        cache = self.group.spawn_results.setdefault("_split_cache", {})
        key = (self._coll_seq, tuple(ranks))
        if key not in cache:
            procs = [self.group.proc(r) for r in ranks]
            cache[key] = GroupState(self.runtime, procs, name=name)
        return cache[key]

    def merge(self, high: bool = False) -> Generator:
        """``MPI_Intercomm_merge``: fuse an inter-communicator into one
        intra-communicator spanning both groups.

        All ranks of both sides must call.  The group passing
        ``high=False`` occupies the low ranks.  After merging, the
        combined Cluster+Booster job can use ordinary collectives
        across the whole machine.
        """
        if not self.is_inter:
            raise CommError("merge requires an inter-communicator")
        # Handshake: local rank 0 exchanges a token with remote rank 0,
        # then each side synchronizes internally — the minimal real
        # coordination a merge needs.
        if self._rank == 0:
            req = self.isend(("merge", high), dest=0, tag=-42)
            remote_high = yield from self.recv(source=0, tag=-42)
            yield req.wait()
            if remote_high[1] == high:
                exc = CommError(
                    "both sides of merge passed the same 'high' value"
                )
                raise exc
        yield from self._local_barrier()
        key = ("_merge", self._ctx_pt2pt)
        cache = self.group.spawn_results
        rcache = self.remote.spawn_results
        if key not in cache and key not in rcache:
            low, highg = (self.remote, self.group) if high else (self.group, self.remote)
            merged = GroupState(
                self.runtime, list(low.procs) + list(highg.procs), name="merged"
            )
            cache[key] = merged
            rcache[key] = merged
        merged = cache.get(key) or rcache.get(key)
        offset = self.remote.size if high else 0
        return Comm(merged, offset + self._rank)

    def _local_barrier(self) -> Generator:
        """Barrier over the local group of an inter-communicator.

        The helper view is cached so repeated merges keep advancing the
        same collective sequence (no tag collisions across calls).
        """
        if not hasattr(self, "_local_view"):
            self._local_view = Comm(self.group, self._rank)
        yield from self._local_view.barrier()

    # -- spawn (the Cluster-Booster offload mechanism) ----------------------
    def spawn(
        self,
        app: Callable[["RankContext"], Generator],  # noqa: F821
        nodes: Sequence,
        nprocs: Optional[int] = None,
        procs_per_node: int = 1,
        name: str = "spawned",
        startup_cost_s: float = 50e-3,
    ) -> Generator:
        """``MPI_Comm_spawn``: collectively start ``nprocs`` children.

        All ranks of this communicator must call; children are placed on
        ``nodes`` (typically the nodes of the *other* module) and receive
        an inter-communicator to this group via ``ctx.get_parent()``.
        Returns the parents' inter-communicator view.

        ``startup_cost_s`` models the binary launch/connect time on the
        prototype (tens of milliseconds; paid once, not per step).
        """
        if self.is_inter:
            raise CommError("spawn must be called on an intra-communicator")
        self._spawn_seq += 1
        seq = self._spawn_seq
        yield from self.barrier()
        if self._rank == 0:
            inter_ctx = (self.runtime.next_context(), self.runtime.next_context())
            inter_name = f"{self.group.name}<->{name}"
            self.runtime.register_context(inter_ctx[0], inter_name, "p2p")
            self.runtime.register_context(inter_ctx[1], inter_name, "coll")
            child_group_holder = {}

            def parent_maker(child_group: GroupState, child_rank: int) -> Comm:
                child_group_holder["group"] = child_group
                return Comm(
                    child_group,
                    child_rank,
                    remote=self.group,
                    context_override=inter_ctx,
                )

            self.runtime.launch(
                app,
                nodes,
                nprocs=nprocs,
                procs_per_node=procs_per_node,
                name=name,
                parent_maker=parent_maker,
            )
            if seconds_positive(startup_cost_s):
                yield self.runtime.sim.timeout(startup_cost_s)
            self.group.spawn_results[seq] = (
                child_group_holder["group"],
                inter_ctx,
            )
        yield from self.barrier()
        child_group, inter_ctx = self.group.spawn_results[seq]
        return Comm(
            self.group, self._rank, remote=child_group, context_override=inter_ctx
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "inter" if self.is_inter else "intra"
        return (
            f"<Comm {kind} {self.group.name!r} rank={self._rank}/{self.size}>"
        )


def seconds_positive(t: float) -> bool:
    return t is not None and t > 0


class PersistentRequest:
    """A reusable communication channel (MPI persistent request).

    Created by :meth:`Comm.send_init` / :meth:`Comm.recv_init`; each
    :meth:`start` launches one instance and returns an ordinary
    :class:`~repro.mpi.request.Request` to wait on.  At most one
    instance may be in flight (as in MPI).
    """

    def __init__(self, comm: Comm, kind: str, peer: int, tag: int, nbytes):
        self.comm = comm
        self.kind = kind
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self._inflight: Optional[Request] = None
        self.starts = 0

    def start(self, payload: Any = None) -> Request:
        """Begin one instance (MPI_Start).  For sends, ``payload`` is
        this iteration's data; receives ignore it."""
        if self._inflight is not None and not self._inflight.test():
            raise CommError("persistent request already active")
        if self.kind == "send":
            req = self.comm.isend(
                payload, self.peer, tag=self.tag, nbytes=self.nbytes
            )
        else:
            req = self.comm.irecv(source=self.peer, tag=self.tag)
        self._inflight = req
        self.starts += 1
        return req

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self._inflight and not self._inflight.test() else "idle"
        return f"<PersistentRequest {self.kind} peer={self.peer} {state}>"
