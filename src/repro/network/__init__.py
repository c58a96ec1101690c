"""EXTOLL-like interconnect fabric model.

Topology (ordered routing graph of nodes, switches and trunked links), LogGP
message cost model, and contention-aware transfers driven by the
discrete-event simulator.
"""

from .fabric import (
    EAGER_THRESHOLD_BYTES,
    PROTOCOL_EFFICIENCY,
    Fabric,
    NodeFailedError,
    NoRouteError,
)
from .link import Link, LinkSpec, TOURMALET_LINK
from .topology import (
    BOOSTER_SWITCH,
    CLUSTER_SWITCH,
    Topology,
    build_torus_topology,
    build_two_level_topology,
)

__all__ = [
    "Fabric",
    "NodeFailedError",
    "NoRouteError",
    "Link",
    "LinkSpec",
    "TOURMALET_LINK",
    "Topology",
    "build_two_level_topology",
    "build_torus_topology",
    "CLUSTER_SWITCH",
    "BOOSTER_SWITCH",
    "EAGER_THRESHOLD_BYTES",
    "PROTOCOL_EFFICIENCY",
]
