"""Run-time task dependency graph (RAW/WAR/WAW over data clauses).

OmpSs builds "a task dependency graph at run-time" from the pragma
annotations (section III-B); this module does the same from the
``ins``/``outs``/``inouts`` clauses, as a small ordered DAG.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .task import TaskSpec

__all__ = [
    "Dependency",
    "DependencyGraph",
    "build_dependency_graph",
    "ready_tasks",
    "critical_path_length",
]


class Dependency(NamedTuple):
    """Why one task waits for another: the hazard and the datum."""

    kind: str  # "RAW", "WAR" or "WAW"
    data: str


class DependencyGraph:
    """Tasks (in submission order) and the dependency edges between them.

    Adding an edge that already exists keeps its position and takes the
    new :class:`Dependency` (the last hazard found wins).
    """

    def __init__(self) -> None:
        self.tasks: Dict[int, TaskSpec] = {}
        self._succ: Dict[int, Dict[int, Dependency]] = {}
        self._pred: Dict[int, Dict[int, None]] = {}

    def add_task(self, task: TaskSpec) -> None:
        """Add (or replace) a task vertex."""
        self.tasks[task.task_id] = task
        self._succ.setdefault(task.task_id, {})
        self._pred.setdefault(task.task_id, {})

    def add_edge(self, u: int, v: int, kind: str, data: str) -> None:
        """Task ``v`` depends on task ``u`` through ``data``."""
        self._succ[u][v] = Dependency(kind, data)
        self._pred[v][u] = None

    def __len__(self) -> int:
        return len(self.tasks)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether task ``v`` depends directly on task ``u``."""
        return v in self._succ.get(u, ())

    def edge(self, u: int, v: int) -> Dependency:
        """The dependency of ``v`` on ``u`` (``KeyError`` if none)."""
        return self._succ[u][v]

    def edges(self) -> List[Tuple[int, int]]:
        """Every ``(u, v)`` edge, grouped by ``u`` in task order."""
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def predecessors(self, v: int) -> Iterator[int]:
        """Tasks ``v`` depends on directly, in edge-insertion order."""
        return iter(self._pred[v])

    def topological_order(self) -> List[int]:
        """Task ids with every task after all of its predecessors
        (Kahn's algorithm); raises :class:`ValueError` on a cycle."""
        indegree = {v: len(pred) for v, pred in self._pred.items()}
        order = [v for v, d in indegree.items() if d == 0]
        for u in order:  # grows while iterating
            for v in self._succ[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    order.append(v)
        if len(order) != len(self.tasks):
            raise ValueError("dependency graph has a cycle")
        return order


def build_dependency_graph(tasks: Sequence[TaskSpec]) -> DependencyGraph:
    """Edges follow program order: a task depends on the latest earlier
    writer of anything it reads (RAW), the latest earlier reader or
    writer of anything it writes (WAR/WAW)."""
    g = DependencyGraph()
    last_writer: Dict[str, TaskSpec] = {}
    readers_since_write: Dict[str, List[TaskSpec]] = {}
    for t in tasks:
        g.add_task(t)
        for name in t.reads:
            w = last_writer.get(name)
            if w is not None and w.task_id != t.task_id:
                g.add_edge(w.task_id, t.task_id, "RAW", name)
            readers_since_write.setdefault(name, []).append(t)
        for name in t.writes:
            w = last_writer.get(name)
            if w is not None and w.task_id != t.task_id:
                g.add_edge(w.task_id, t.task_id, "WAW", name)
            for r in readers_since_write.get(name, []):
                if r.task_id != t.task_id:
                    g.add_edge(r.task_id, t.task_id, "WAR", name)
            last_writer[name] = t
            readers_since_write[name] = []
    g.topological_order()  # defensive: program order cannot cycle
    return g


def ready_tasks(g: DependencyGraph, done: set) -> List[TaskSpec]:
    """Tasks whose predecessors are all in ``done`` and not yet done."""
    return [
        t
        for node, t in g.tasks.items()
        if node not in done and all(p in done for p in g.predecessors(node))
    ]


def critical_path_length(g: DependencyGraph) -> float:
    """Longest chain of task durations (lower bound on the schedule)."""
    lengths: Dict[int, float] = {}
    for node in g.topological_order():
        best = max((lengths[p] for p in g.predecessors(node)), default=0.0)
        lengths[node] = best + g.tasks[node].duration_s
    return max(lengths.values(), default=0.0)
