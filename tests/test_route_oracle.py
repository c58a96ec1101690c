"""Routes and task DAGs agree exactly with networkx, used as an oracle.

Fabric routes are fixed shortest paths, and on the DEEP-ER fabrics many
of them tie (torus rings, storage and NAM vertices that touch both
switch groups).  Which tie wins decides link contention and so every
simulated runtime, so the stdlib router must pick exactly the route
networkx picks, under any sequence of link and node failures.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

nx = pytest.importorskip("networkx")

import repro.network.topology as topology_mod  # noqa: E402
from repro.network import (  # noqa: E402
    NoRouteError,
    Topology,
    build_torus_topology,
    build_two_level_topology,
)
from repro.ompss import (  # noqa: E402
    TaskSpec,
    build_dependency_graph,
    critical_path_length,
    ready_tasks,
)
from repro.sim import Simulator  # noqa: E402


class NxTopology(Topology):
    """A topology that mirrors its routing graph into a ``networkx.Graph``
    with the same edge adds and removes, in the same order."""

    def __init__(self, sim):
        super().__init__(sim)
        self.nxg = nx.Graph()

    def add_endpoint(self, node_id, kind="node"):
        super().add_endpoint(node_id, kind)
        self.nxg.add_node(node_id, kind=kind)

    def add_link(self, u, v, spec):
        link = super().add_link(u, v, spec)
        self.nxg.add_edge(u, v)
        return link

    def _sync_edge(self, key):
        super()._sync_edge(key)
        present = self.nxg.has_edge(*key)
        if self._edge_should_exist(key) and not present:
            self.nxg.add_edge(*key)
        elif not self._edge_should_exist(key) and present:
            self.nxg.remove_edge(*key)


def mirrored(build, *args, **kwargs) -> NxTopology:
    with mock.patch.object(topology_mod, "Topology", NxTopology):
        topo = build(Simulator(), *args, **kwargs)
    assert isinstance(topo, NxTopology)
    return topo


@st.composite
def two_level(draw):
    return mirrored(
        build_two_level_topology,
        [f"cn{i:02d}" for i in range(draw(st.integers(1, 4)))],
        [f"bn{i:02d}" for i in range(draw(st.integers(1, 4)))],
        storage_ids=[f"st{i}" for i in range(draw(st.integers(0, 3)))],
        nam_ids=[f"nam{i}" for i in range(draw(st.integers(0, 2)))],
    )


@st.composite
def torus(draw):
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    size = dims[0] * dims[1] * dims[2]
    if size < 2:
        dims, size = (2, 1, 1), 2
    n = draw(st.integers(2, size))
    ids = [f"n{i:02d}" for i in range(n)]
    return mirrored(build_torus_topology, ids, dims)


OPS = ("fail_link", "restore_link", "fail_node", "restore_node")


def apply(topo: Topology, op: str, pick: int) -> None:
    try:
        if op.endswith("_link"):
            links = sorted(topo._links)
            getattr(topo, op)(*links[pick % len(links)])
        else:
            getattr(topo, op)(topo.vertices[pick % len(topo.vertices)])
    except ValueError:
        pass  # already failed / not failed: state must stay in step


def assert_same_route(topo: NxTopology, src: str, dst: str) -> None:
    try:
        want = nx.shortest_path(topo.nxg, src, dst)
    except nx.NetworkXNoPath:
        with pytest.raises(NoRouteError):
            topo.shortest_path(src, dst)
    else:
        assert topo.shortest_path(src, dst) == want


@given(
    st.one_of(two_level(), torus()),
    st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 200)), max_size=8
    ),
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)),
             min_size=1, max_size=12),
)
@settings(max_examples=120, deadline=None)
def test_routes_match_networkx_under_failures(topo, ops, pairs):
    vertices = topo.vertices
    for step in [None] + ops:
        if step is not None:
            apply(topo, *step)
        assert topo.is_connected() == nx.is_connected(topo.nxg)
        for i, j in pairs:
            assert_same_route(
                topo, vertices[i % len(vertices)], vertices[j % len(vertices)]
            )


def test_storage_and_nam_ties_match_networkx():
    """Every pair on a full two-level fabric, storage-to-NAM ties
    included, before and after losing one switch uplink."""
    topo = mirrored(
        build_two_level_topology,
        ["cn00", "cn01"], ["bn00", "bn01"],
        storage_ids=["st0", "st1"], nam_ids=["nam0", "nam1"],
    )
    for fail in (None, ("st0", "sw.cluster")):
        if fail is not None:
            topo.fail_link(*fail)
        for src in topo.vertices:
            for dst in topo.vertices:
                assert_same_route(topo, src, dst)


def test_unknown_endpoint_is_named():
    topo = build_two_level_topology(Simulator(), ["cn00"], ["bn00"])
    with pytest.raises(KeyError, match="cn99"):
        topo.shortest_path("cn99", "bn00")
    with pytest.raises(KeyError, match="bn99"):
        topo.shortest_path("cn00", "bn99")


# ------------------------------------------------------------- task DAG
def nx_dependency_graph(tasks):
    """The networkx dependency graph the OmpSs runtime used to build."""
    g = nx.DiGraph()
    last_writer, readers = {}, {}
    for t in tasks:
        g.add_node(t.task_id, task=t)
        for name in t.reads:
            w = last_writer.get(name)
            if w is not None and w.task_id != t.task_id:
                g.add_edge(w.task_id, t.task_id, kind="RAW", data=name)
            readers.setdefault(name, []).append(t)
        for name in t.writes:
            w = last_writer.get(name)
            if w is not None and w.task_id != t.task_id:
                g.add_edge(w.task_id, t.task_id, kind="WAW", data=name)
            for r in readers.get(name, []):
                if r.task_id != t.task_id:
                    g.add_edge(r.task_id, t.task_id, kind="WAR", data=name)
            last_writer[name] = t
            readers[name] = []
    return g


@st.composite
def task_lists(draw):
    names = st.sampled_from("abcd")
    tasks = []
    for i in range(draw(st.integers(1, 10))):
        inouts = draw(st.sets(names, max_size=1))
        ins = draw(st.sets(names, max_size=2)) - inouts
        outs = draw(st.sets(names, max_size=2)) - inouts - ins
        tasks.append(TaskSpec(
            f"t{i}", lambda: None, ins=tuple(sorted(ins)),
            outs=tuple(sorted(outs)), inouts=tuple(sorted(inouts)),
            duration_s=draw(st.floats(0.0, 5.0)),
        ))
    return tasks


@given(task_lists(), st.data())
@settings(max_examples=80, deadline=None)
def test_dependency_graph_matches_networkx(tasks, data):
    g = build_dependency_graph(tasks)
    want = nx_dependency_graph(tasks)
    assert list(g.tasks) == list(want.nodes)
    assert g.edges() == list(want.edges)
    for u, v in want.edges:
        assert g.edge(u, v) == (want.edges[u, v]["kind"],
                                want.edges[u, v]["data"])
    done = data.draw(st.sets(st.sampled_from(list(g.tasks))))
    want_ready = [
        want.nodes[n]["task"] for n in want.nodes
        if n not in done and all(p in done for p in want.predecessors(n))
    ]
    assert ready_tasks(g, done) == want_ready
    lengths = {}
    for n in nx.topological_sort(want):
        best = max((lengths[p] for p in want.predecessors(n)), default=0.0)
        lengths[n] = best + want.nodes[n]["task"].duration_s
    assert critical_path_length(g) == max(lengths.values(), default=0.0)
