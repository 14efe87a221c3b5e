"""Per-vertex state container.

The kernel keeps one :class:`NodeState` per vertex.  It stores the static
local knowledge a vertex has in the clean network model at the start of a
computation: its identity and its incident edges with their weights.
Protocols keep their own per-vertex variables on the protocol instance,
keyed by vertex, and should only read and write state of the vertex
currently being processed; this is how the simulation preserves the
locality of the model even though it runs in one process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..types import VertexId


@dataclass
class NodeState:
    """Local state of one simulated vertex.

    Attributes:
        vertex: the vertex identity (``Id(v)`` in the paper).
        neighbors: identities of adjacent vertices, in sorted order.
        edge_weights: weight of the edge to each neighbour.  In the clean
            network model a vertex knows the weights of its incident
            edges but not the identities beyond its direct neighbours.
    """

    vertex: VertexId
    neighbors: tuple[VertexId, ...]
    edge_weights: Dict[VertexId, float]
