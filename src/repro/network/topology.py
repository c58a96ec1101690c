"""Fabric topology construction and shortest-path routing.

The DEEP-ER prototype runs one uniform EXTOLL Tourmalet fabric across
Cluster, Booster and storage.  We model it as a two-level fat topology:

* every Cluster node attaches to a Cluster-side switch group ``sw.cluster``;
* every Booster node attaches to a Booster-side switch group ``sw.booster``;
* the groups are joined by a multi-channel backbone trunk that also
  hosts the storage servers and NAM devices.

Hop counts therefore come out as CN-CN / BN-BN = 2 links and
CN-BN = 3 links, which (together with the per-node software overheads)
reproduces the latency ordering of Fig 3.

Routes are fixed shortest paths.  The routing graph is a plain ordered
adjacency map, and :meth:`Topology.shortest_path` is a bidirectional
breadth-first search that visits neighbours in insertion order, so
equal-length ties (torus rings, storage and NAM vertices that touch
both switch groups) always resolve to the same route.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..sim import Simulator
from .link import Link, LinkSpec, TOURMALET_LINK

__all__ = [
    "NoRouteError",
    "Topology",
    "build_two_level_topology",
    "build_torus_topology",
]

CLUSTER_SWITCH = "sw.cluster"
BOOSTER_SWITCH = "sw.booster"


class NoRouteError(Exception):
    """No surviving path connects two endpoints."""


class Topology:
    """A fabric graph whose edges carry :class:`Link` objects.

    Links and vertices can be taken out of service (``fail_link`` /
    ``fail_node``) and brought back (``restore_link`` / ``restore_node``).
    An edge is present in the routing graph iff its link exists, is not
    itself failed, and neither endpoint vertex is down — so failing a
    node atomically detaches all of its links without forgetting which
    ones were independently failed.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: routing graph: vertex -> neighbours, both in insertion order
        self._adj: Dict[str, Dict[str, None]] = {}
        self._kind: Dict[str, str] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: canonical (u, v) keys of links individually taken down
        self._failed_links: set = set()
        #: vertices currently down (node crash)
        self._failed_nodes: set = set()

    def add_endpoint(self, node_id: str, kind: str = "node") -> None:
        """Add a vertex (node or switch) to the fabric graph."""
        self._adj.setdefault(node_id, {})
        self._kind[node_id] = kind

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._adj

    def kind(self, node_id: str) -> str:
        """The vertex kind: ``"node"``, ``"switch"`` or ``"spare"``."""
        return self._kind[node_id]

    def degree(self, node_id: str) -> int:
        """Number of links of a vertex currently in the routing graph."""
        return len(self._adj[node_id])

    def _add_edge(self, u: str, v: str) -> None:
        # Re-adding a present edge keeps its neighbour-order position.
        self._adj[u][v] = None
        self._adj[v][u] = None

    def add_link(self, u: str, v: str, spec: LinkSpec) -> Link:
        """Connect two existing endpoints with a new link."""
        for n in (u, v):
            if n not in self._adj:
                raise KeyError(f"unknown endpoint {n!r}")
        link = Link(self.sim, u, v, spec)
        self._add_edge(u, v)
        self._links[tuple(sorted((u, v)))] = link
        return link

    def link(self, u: str, v: str) -> Link:
        """The link object between two directly connected endpoints."""
        return self._links[tuple(sorted((u, v)))]

    def _edge_should_exist(self, key: Tuple[str, str]) -> bool:
        return (
            key in self._links
            and key not in self._failed_links
            and key[0] not in self._failed_nodes
            and key[1] not in self._failed_nodes
        )

    def _sync_edge(self, key: Tuple[str, str]) -> None:
        """Make the routing graph agree with the link/node failure sets."""
        u, v = key
        present = v in self._adj[u]
        if self._edge_should_exist(key) and not present:
            self._add_edge(u, v)
        elif not self._edge_should_exist(key) and present:
            del self._adj[u][v]
            del self._adj[v][u]

    def fail_link(self, u: str, v: str) -> None:
        """Take a link out of service (routing will avoid it).

        Raises a clear :class:`ValueError` naming the endpoints when no
        link connects them (non-adjacent pair) or the link is already
        failed, leaving the topology state untouched.
        """
        key = tuple(sorted((u, v)))
        if key not in self._links:
            raise ValueError(
                f"cannot fail link {u!r} <-> {v!r}: "
                "the endpoints are not directly connected"
            )
        if key in self._failed_links:
            raise ValueError(f"link {u!r} <-> {v!r} is already failed")
        self._failed_links.add(key)
        self._sync_edge(key)

    def restore_link(self, u: str, v: str) -> None:
        """Return a previously failed link to service."""
        key = tuple(sorted((u, v)))
        if key not in self._links:
            raise ValueError(
                f"cannot restore link {u!r} <-> {v!r}: "
                "the endpoints are not directly connected"
            )
        self._failed_links.discard(key)
        self._sync_edge(key)

    def fail_node(self, node_id: str) -> None:
        """Take a vertex down: all of its links leave the routing graph
        (traffic *through* the vertex reroutes or fails cleanly)."""
        if node_id not in self._adj:
            raise ValueError(f"unknown endpoint {node_id!r}")
        if node_id in self._failed_nodes:
            raise ValueError(f"node {node_id!r} is already down")
        self._failed_nodes.add(node_id)
        for key in self._links:
            if node_id in key:
                self._sync_edge(key)

    def restore_node(self, node_id: str) -> None:
        """Bring a vertex back up; its non-failed links rejoin the graph."""
        if node_id not in self._adj:
            raise ValueError(f"unknown endpoint {node_id!r}")
        self._failed_nodes.discard(node_id)
        for key in self._links:
            if node_id in key:
                self._sync_edge(key)

    @property
    def failed_links(self):
        """Canonical keys of the currently failed links."""
        return set(self._failed_links)

    @property
    def failed_nodes(self):
        """Ids of the currently down vertices."""
        return set(self._failed_nodes)

    def links_on_path(self, path: Iterable[str]):
        """The link objects along a vertex path."""
        path = list(path)
        return [self.link(a, b) for a, b in zip(path, path[1:])]

    def directed_links_on_path(self, path: Iterable[str]):
        """(link, forward) pairs along a vertex path; ``forward`` means
        the traversal runs link.u -> link.v."""
        path = list(path)
        out = []
        for a, b in zip(path, path[1:]):
            link = self.link(a, b)
            out.append((link, link.u == a))
        return out

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Shortest vertex path between two endpoints.

        Raises :class:`KeyError` for an unknown endpoint and
        :class:`NoRouteError` when no path survives.
        """
        for n in (src, dst):
            if n not in self._adj:
                raise KeyError(f"unknown endpoint {n!r}")
        pred, succ, w = self._meet(src, dst)
        path = []
        while w is not None:
            path.append(w)
            w = pred[w]
        path.reverse()
        w = succ[path[-1]]
        while w is not None:
            path.append(w)
            w = succ[w]
        return path

    def _meet(self, src: str, dst: str) -> tuple:
        """Bidirectional BFS: ``(pred, succ, w)`` where ``pred`` leads
        from the meeting vertex ``w`` back to ``src`` and ``succ`` on to
        ``dst``.

        Each round grows the smaller fringe (the forward one on a tie),
        scans neighbours in insertion order and stops at the first
        vertex both searches have reached, so every tie between
        equal-length routes always resolves the same way.
        """
        if src == dst:
            return {dst: None}, {src: None}, src
        adj = self._adj
        pred = {src: None}
        succ = {dst: None}
        forward = [src]
        reverse = [dst]
        while forward and reverse:
            if len(forward) <= len(reverse):
                level, forward = forward, []
                for v in level:
                    for w in adj[v]:
                        if w not in pred:
                            forward.append(w)
                            pred[w] = v
                        if w in succ:
                            return pred, succ, w
            else:
                level, reverse = reverse, []
                for v in level:
                    for w in adj[v]:
                        if w not in succ:
                            succ[w] = v
                            reverse.append(w)
                        if w in pred:
                            return pred, succ, w
        raise NoRouteError(f"no surviving route {src!r} -> {dst!r}")

    def is_connected(self) -> bool:
        """Whether every vertex can reach every other (a failed vertex
        has no links, so it counts as isolated)."""
        adj = self._adj
        if not adj:
            return False
        start = next(iter(adj))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return len(seen) == len(adj)

    @property
    def links(self):
        """All link objects of the fabric (including failed ones)."""
        return list(self._links.values())

    @property
    def vertices(self) -> List[str]:
        """All vertices (nodes, switches and spares) in insertion order."""
        return list(self._adj)

    @property
    def endpoints(self):
        """All node (non-switch) vertices."""
        return [n for n, kind in self._kind.items() if kind == "node"]


def build_two_level_topology(
    sim: Simulator,
    cluster_ids: Iterable[str],
    booster_ids: Iterable[str],
    storage_ids: Iterable[str] = (),
    nam_ids: Iterable[str] = (),
    link_spec: LinkSpec = TOURMALET_LINK,
    backbone_channels: int = 8,
) -> Topology:
    """Build the DEEP-ER style two-level fabric.

    ``backbone_channels`` sets the trunking factor of the inter-module
    connection (the prototype's torus offers several independent paths
    between the Cluster and Booster sub-fabrics).
    """
    topo = Topology(sim)
    topo.add_endpoint(CLUSTER_SWITCH, kind="switch")
    topo.add_endpoint(BOOSTER_SWITCH, kind="switch")
    backbone_spec = LinkSpec(
        bandwidth_bps=link_spec.bandwidth_bps,
        hop_latency_s=link_spec.hop_latency_s,
        channels=backbone_channels,
    )
    topo.add_link(CLUSTER_SWITCH, BOOSTER_SWITCH, backbone_spec)

    for cid in cluster_ids:
        topo.add_endpoint(cid)
        topo.add_link(cid, CLUSTER_SWITCH, link_spec)
    for bid in booster_ids:
        topo.add_endpoint(bid)
        topo.add_link(bid, BOOSTER_SWITCH, link_spec)
    # Storage and NAM sit on the backbone: equidistant-ish from both sides.
    for sid in storage_ids:
        topo.add_endpoint(sid)
        topo.add_link(sid, CLUSTER_SWITCH, link_spec)
        topo.add_link(sid, BOOSTER_SWITCH, link_spec)
    for nid in nam_ids:
        topo.add_endpoint(nid)
        topo.add_link(nid, CLUSTER_SWITCH, link_spec)
        topo.add_link(nid, BOOSTER_SWITCH, link_spec)
    return topo


def _torus_dims(n: int) -> tuple:
    """Smallest near-cubic 3D torus with at least ``n`` vertices."""
    import math

    side = max(2, round(n ** (1 / 3)))
    dims = [side, side, side]
    i = 0
    while dims[0] * dims[1] * dims[2] < n:
        dims[i % 3] += 1
        i += 1
    return tuple(dims)


def build_torus_topology(
    sim: Simulator,
    node_ids: Iterable[str],
    dims: Tuple[int, int, int] = None,
    link_spec: LinkSpec = TOURMALET_LINK,
) -> Topology:
    """A switchless 3D torus — EXTOLL Tourmalet's native topology.

    Every NIC has six links to its torus neighbours; messages hop
    through intermediate *nodes* (the Tourmalet chip forwards in
    hardware).  Node ids are laid out in order along the torus
    coordinates; unused torus slots become passive forwarding vertices
    (kind ``"spare"``).

    This is the physically faithful alternative to the two-level model
    (which matches the paper's uniform measured latencies); the fabric
    bench compares the two.
    """
    node_ids = list(node_ids)
    if len(node_ids) < 2:
        raise ValueError("a torus needs at least two endpoints")
    dims = dims or _torus_dims(len(node_ids))
    if dims[0] * dims[1] * dims[2] < len(node_ids):
        raise ValueError(f"dims {dims} too small for {len(node_ids)} nodes")
    topo = Topology(sim)

    def coord_name(c):
        return f"torus.{c[0]}.{c[1]}.{c[2]}"

    coords = [
        (x, y, z)
        for x in range(dims[0])
        for y in range(dims[1])
        for z in range(dims[2])
    ]
    names = {}
    for i, c in enumerate(coords):
        if i < len(node_ids):
            names[c] = node_ids[i]
            topo.add_endpoint(node_ids[i], kind="node")
        else:
            names[c] = coord_name(c)
            topo.add_endpoint(names[c], kind="spare")
    for c in coords:
        for axis in range(3):
            if dims[axis] == 1:
                continue
            nb = list(c)
            nb[axis] = (nb[axis] + 1) % dims[axis]
            nb = tuple(nb)
            if dims[axis] == 2 and nb < c:
                continue  # avoid double edge on 2-rings
            key = tuple(sorted((names[c], names[nb])))
            if key not in topo._links:
                topo.add_link(names[c], names[nb], link_spec)
    return topo
