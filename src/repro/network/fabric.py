"""End-to-end message transport over the fabric.

The message cost model is LogGP-flavoured:

    t(msg) = o_send + o_recv            (per-side CPU software overhead)
           + hops * L                   (per-hop wire/switch latency)
           + n / (G_eff)                (serialization at bottleneck bw)
           + [rendezvous handshake]     (for messages above the eager
                                         threshold: one extra round trip)

The software overheads live on the *nodes* (KNL cores process the MPI
stack more slowly — footnote 1 of the paper); the wire terms live on
the links.  Contention is modelled by occupying every link of the route
for the serialization time.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..hardware.node import Node
from ..sim import Simulator
from ..sim.resources import Request, Resource
from .topology import NoRouteError, Topology

__all__ = [
    "Fabric",
    "NodeFailedError",
    "EAGER_THRESHOLD_BYTES",
    "PROTOCOL_EFFICIENCY",
]


class NodeFailedError(Exception):
    """A transfer was attempted to or from a failed node."""


#: ParaStation-MPI-like eager/rendezvous switch point.
EAGER_THRESHOLD_BYTES = 32 * 1024

#: Fraction of raw link bandwidth achievable by the MPI payload
#: (headers, cells, flow control).  Calibrated so the large-message
#: plateau of Fig 3 sits near 10 GByte/s on a 12.5 GByte/s link.
PROTOCOL_EFFICIENCY = 0.82


class _RouteCost:
    """Precomputed per-route terms, cached by ``(src, dst)``.

    Holds the canonically-sorted directed links (the deadlock-free
    acquisition order), their per-direction channel pools, and the
    route's analytic cost terms, so the per-transfer work reduces to a
    multiply-add plus an occupancy check.
    """

    __slots__ = ("directed", "links", "resources", "hop_latency_s", "bw_eff", "rtt_s")

    def __init__(self, directed: list, protocol_efficiency: float):
        self.directed: Tuple = tuple(
            sorted(directed, key=lambda lf: lf[0].key)
        )
        self.links: Tuple = tuple(link for link, _fwd in self.directed)
        self.resources: Tuple[Resource, ...] = tuple(
            link.resource_for(fwd) for link, fwd in self.directed
        )
        self.hop_latency_s = sum(l.spec.hop_latency_s for l in self.links)
        self.bw_eff = (
            min(l.spec.bandwidth_bps for l in self.links) * protocol_efficiency
            if self.links
            else float("inf")
        )
        self.rtt_s = 2.0 * self.hop_latency_s


class Fabric:
    """Transfers bytes between endpoints of a :class:`Topology`.

    Endpoints are :class:`~repro.hardware.node.Node` objects registered
    under their ``node_id``.  The fabric caches routes and their cost
    terms (the topology is static between link failures).

    Transfers take one of two paths:

    * **fast path** — when every link of the route is uncontended, link
      occupancy is bumped directly (no ``Request`` events) and the whole
      transfer is a single pooled bare-delay yield.  Its two halves,
      :meth:`acquire` and :meth:`finish`, are public so the MPI send op
      can drive a transfer from callbacks without a generator;
    * **slow path** — the moment any link is busy, the transfer falls
      back to per-link FIFO ``Resource.request()``/``release()`` (with
      ``Request`` objects recycled through a pool).

    Both paths produce identical simulated timestamps and per-link
    counters; ``fast_path_enabled`` (class or instance attribute) forces
    the slow path for verification.
    """

    #: set False (per class or instance) to force every transfer down
    #: the FIFO slow path — the two paths must agree exactly
    fast_path_enabled: bool = True

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        eager_threshold: int = EAGER_THRESHOLD_BYTES,
        protocol_efficiency: float = PROTOCOL_EFFICIENCY,
    ):
        if not 0 < protocol_efficiency <= 1:
            raise ValueError("protocol efficiency must be in (0, 1]")
        self.sim = sim
        self.topology = topology
        self.eager_threshold = eager_threshold
        self.protocol_efficiency = protocol_efficiency
        self._nodes: Dict[str, Node] = {}
        self._route_cache: Dict[Tuple[str, str], list] = {}
        self._cost_cache: Dict[Tuple[str, str], _RouteCost] = {}
        self._request_pool: List[Request] = []
        self.bytes_transferred = 0
        self.messages_transferred = 0
        #: transfers that skipped the Request event machinery entirely
        self.fast_transfers = 0
        #: transfers that went through per-link FIFO queueing
        self.slow_transfers = 0
        #: optional :class:`~repro.sim.Tracer`: every transfer is
        #: recorded as an interval on a per-link actor ("cn00<->sw.…"),
        #: so fabric occupancy renders as a Gantt chart
        self.tracer = None

    # -- registration -----------------------------------------------------
    def register_node(self, node: Node) -> None:
        """Attach a node object to its topology endpoint."""
        if node.node_id not in self.topology:
            raise KeyError(f"{node.node_id} not present in topology")
        self._nodes[node.node_id] = node

    def node(self, node_id: str) -> Node:
        """Look a registered node up by id."""
        return self._nodes[node_id]

    @property
    def nodes(self) -> Dict[str, Node]:
        """Copy of the registered node mapping."""
        return dict(self._nodes)

    # -- routing ------------------------------------------------------------
    def route(self, src: str, dst: str) -> list:
        """The (cached) list of links between two endpoints."""
        return [link for link, _fwd in self.directed_route(src, dst)]

    def directed_route(self, src: str, dst: str) -> list:
        """The (cached) (link, forward) pairs between two endpoints.

        Raises :class:`NoRouteError` when every path between the
        endpoints is down (failed links and/or failed nodes).
        """
        key = (src, dst)
        if key not in self._route_cache:
            path = self.topology.shortest_path(src, dst)
            self._route_cache[key] = self.topology.directed_links_on_path(path)
        return self._route_cache[key]

    def route_cost(self, src: str, dst: str) -> _RouteCost:
        """Cached cost terms + canonically-sorted links of one route."""
        key = (src, dst)
        rc = self._cost_cache.get(key)
        if rc is None:
            rc = _RouteCost(
                self.directed_route(src, dst), self.protocol_efficiency
            )
            self._cost_cache[key] = rc
        return rc

    def fail_link(self, u: str, v: str) -> None:
        """Fail a fabric link; subsequent traffic reroutes around it.

        Routing raises :class:`NoRouteError` later if a destination
        becomes unreachable.
        """
        self.topology.fail_link(u, v)
        self._route_cache.clear()
        self._cost_cache.clear()

    def restore_link(self, u: str, v: str) -> None:
        """Return a previously failed link to service and re-route."""
        self.topology.restore_link(u, v)
        self._route_cache.clear()
        self._cost_cache.clear()

    def fail_node(self, node_id: str) -> None:
        """Crash a node: its host stops responding and every incident
        link leaves the routing graph, so cached routes *through* it are
        invalidated too (not just routes ending at it)."""
        self.topology.fail_node(node_id)
        node = self._nodes.get(node_id)
        if node is not None and not node.failed:
            node.fail()
        self._route_cache.clear()
        self._cost_cache.clear()

    def restore_node(self, node_id: str) -> None:
        """Bring a crashed node back (volatile NVMe state stays lost)."""
        self.topology.restore_node(node_id)
        node = self._nodes.get(node_id)
        if node is not None and node.failed:
            node.recover()
        self._route_cache.clear()
        self._cost_cache.clear()

    def degrade_link(self, u: str, v: str, factor: float) -> None:
        """Run one link at ``factor`` of nominal bandwidth (flaky cable:
        the route survives but its bottleneck bandwidth drops)."""
        self.topology.link(u, v).degrade(factor)
        self._cost_cache.clear()

    def restore_link_quality(self, u: str, v: str) -> None:
        """Return a degraded link to nominal bandwidth."""
        self.topology.link(u, v).restore_quality()
        self._cost_cache.clear()

    def hops(self, src: str, dst: str) -> int:
        """Number of links on the route between two endpoints."""
        return len(self.route(src, dst))

    # -- analytic cost model ----------------------------------------------
    def wire_time(self, src: str, dst: str, nbytes: int) -> float:
        """Latency + serialization along the route, without CPU overheads."""
        rc = self.route_cost(src, dst)
        return rc.hop_latency_s + nbytes / rc.bw_eff

    def transfer_time(
        self, src: str, dst: str, nbytes: int, rdma: bool = False
    ) -> float:
        """No-contention end-to-end message time (the LogGP sum)."""
        if nbytes < 0:
            raise ValueError("negative message size")
        src_node, dst_node = self._nodes[src], self._nodes[dst]
        return self._message_time(
            src_node, dst_node, self.route_cost(src, dst), nbytes, rdma
        )

    def _message_time(
        self,
        src_node: Node,
        dst_node: Node,
        rc: _RouteCost,
        nbytes: int,
        rdma: bool,
    ) -> float:
        if rdma:
            # Remote DMA: no software processing on the remote side.
            return (
                src_node.nic_sw_overhead_s
                + rc.hop_latency_s
                + nbytes / rc.bw_eff
            )
        t = (
            src_node.nic_sw_overhead_s
            + dst_node.nic_sw_overhead_s
            + rc.hop_latency_s
            + nbytes / rc.bw_eff
        )
        if nbytes > self.eager_threshold:
            # Rendezvous: request-to-send / clear-to-send round trip.
            t += rc.rtt_s + dst_node.nic_sw_overhead_s
        return t

    # -- simulated transfer (with contention) -------------------------------
    def acquire(
        self, src: str, dst: str, nbytes: int, rdma: bool = False
    ) -> Optional[Tuple[_RouteCost, float]]:
        """Fast-path acquire step: occupy an idle route without events.

        When the fast path is enabled, both endpoints are alive, a route
        exists and every link on it is idle with nobody queueing, the
        links are occupied (atomically in simulated time, so a
        same-time rival sees them busy and it cannot deadlock),
        ``fast_transfers`` is bumped, and ``(route_cost, duration)`` is
        returned.  The caller must hand the route back through
        :meth:`finish` after ``duration`` seconds.

        Returns ``None``, occupying and counting nothing, in every other
        case: the fast path is disabled, a same-node copy, a failed
        endpoint, no route, a negative size, or a busy link.
        :meth:`transfer` then takes the FIFO slow path or raises the
        matching error.
        """
        if not self.fast_path_enabled or src == dst or nbytes < 0:
            return None
        nodes = self._nodes
        src_node = nodes.get(src)
        dst_node = nodes.get(dst)
        if (
            src_node is None
            or dst_node is None
            or src_node.failed
            or dst_node.failed
        ):
            return None
        try:
            rc = self.route_cost(src, dst)
        except (NoRouteError, KeyError):
            return None
        resources = rc.resources
        for r in resources:
            if r._in_use >= r.capacity or r._waiting:
                return None
        for r in resources:
            r._in_use += 1
        self.fast_transfers += 1
        return rc, self._message_time(src_node, dst_node, rc, nbytes, rdma)

    def finish(
        self, rc: _RouteCost, src: str, dst: str, nbytes: int, t0: float
    ) -> None:
        """Fast-path finish step: release the route :meth:`acquire`
        occupied (waking any waiter queued behind it) and account the
        delivered message."""
        for r in rc.resources:
            r.release_slot()
        self._record(rc, src, dst, nbytes, t0)

    def _record(
        self, rc: _RouteCost, src: str, dst: str, nbytes: int, t0: float
    ) -> None:
        """Per-link and fabric counters (plus the tracer interval) of
        one delivered message; shared by both paths."""
        for link in rc.links:
            link.bytes_carried += nbytes
            link.messages_carried += 1
        if self.tracer is not None:
            for link in rc.links:
                self.tracer.record(
                    f"{link.key[0]}<->{link.key[1]}",
                    f"{src}->{dst}",
                    t0,
                    self.sim.now,
                )
        self.bytes_transferred += nbytes
        self.messages_transferred += 1

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        rdma: bool = False,
    ) -> Generator:
        """Simulation process performing one message transfer.

        Acquires every link of the route (in canonical order, which
        prevents deadlock) for the serialization time, so concurrent
        messages crossing a shared link queue behind each other.  When
        the whole route is idle the acquisition skips the event
        machinery entirely (:meth:`acquire` / :meth:`finish`).

        Both paths suspend through pooled bare-delay yields (the
        simulator's allocation-free wakeup fast path), so co-temporal
        transfer completions land in one same-timestamp bucket and are
        dispatched as a single batch by the event core — many
        simultaneous barrier-style completions cost one queue pop.

        Transfers touching a failed node raise :class:`NodeFailedError`
        (the NIC stops responding with its host).
        """
        fast = self.acquire(src, dst, nbytes, rdma)
        if fast is not None:
            rc, duration = fast
            t0 = self.sim.now
            try:
                yield duration
            except BaseException:
                # interrupted (fault injection): free the links, no
                # delivery to account
                for r in rc.resources:
                    r.release_slot()
                raise
            self.finish(rc, src, dst, nbytes, t0)
            return

        for endpoint in (src, dst):
            node = self._nodes.get(endpoint)
            if node is not None and node.failed:
                raise NodeFailedError(f"node {endpoint} has failed")
        if src == dst:
            # Intra-node (shared memory) copy: model as memory-bandwidth
            # bounded with negligible latency.
            node = self._nodes[src]
            bw = node.memory.peak_bandwidth if node.memory else 50e9
            yield 200e-9 + nbytes / bw
            self.messages_transferred += 1
            return

        duration = self.transfer_time(src, dst, nbytes, rdma=rdma)
        rc = self.route_cost(src, dst)
        # Slow path (contended route, or the fast path disabled):
        # FIFO-fair queueing on every busy link, with Request objects
        # recycled through a pool.
        self.slow_transfers += 1
        pool = self._request_pool
        requests = []
        # acquisition sits inside the try: an interrupt (fault
        # injection) while queueing on link k must release the k links
        # already granted, or they stay occupied forever
        try:
            for (link, _fwd), resource in zip(rc.directed, rc.resources):
                t_wait = self.sim.now
                req = resource.request(pool.pop() if pool else None)
                yield req
                link.stall_time_s += self.sim.now - t_wait
                requests.append((resource, req))
            t0 = self.sim.now
            yield duration
        finally:
            for resource, req in requests:
                resource.release(req)
                if req.processed and not req.abandoned:
                    pool.append(req)
        self._record(rc, src, dst, nbytes, t0)

    # -- convenience --------------------------------------------------------
    def latency(self, src: str, dst: str) -> float:
        """Zero-byte one-way MPI latency between two endpoints."""
        return self.transfer_time(src, dst, 0)

    def bandwidth(self, src: str, dst: str, nbytes: int) -> float:
        """Effective bandwidth (bytes/s) of a single message of size n."""
        if nbytes <= 0:
            raise ValueError("bandwidth needs a positive message size")
        return nbytes / self.transfer_time(src, dst, nbytes)
