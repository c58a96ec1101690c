"""OmpSs-like dataflow programming model with module offload.

The abstraction layer of section III-B: tasks annotated with data
clauses and a device target; run-time dependency graph; offload of
tasks (with their data) between Cluster and Booster; and the three
DEEP-ER resiliency extensions of section III-D.
"""

from .depgraph import (
    DependencyGraph,
    build_dependency_graph,
    critical_path_length,
    ready_tasks,
)
from .runtime import OmpSsRuntime, TaskFailure
from .task import Target, TaskSpec, TaskState

__all__ = [
    "OmpSsRuntime",
    "TaskFailure",
    "TaskSpec",
    "TaskState",
    "Target",
    "DependencyGraph",
    "build_dependency_graph",
    "ready_tasks",
    "critical_path_length",
]
