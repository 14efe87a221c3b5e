"""Sequential Kruskal MST (reference implementation).

Used as ground truth by the verification layer (together with networkx's
own MST) and as the local computation the GKP root performs on the edges
the Pipeline-MST procedure delivers.  Ties are broken by the
``(weight, u, v)`` tuple order over sorted endpoints, the same rule the
distributed algorithms use, so all implementations agree even when the
caller did not make the weights unique.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

import networkx as nx

from ..exceptions import DisconnectedGraphError
from ..types import Edge, normalize_edge, VertexId


class UnionFind:
    """Union-find with path compression (no ranks; fine for library sizes)."""

    def __init__(self, elements: Iterable[VertexId]) -> None:
        self._parent: Dict[VertexId, VertexId] = {element: element for element in elements}

    def find(self, element: VertexId) -> VertexId:
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: VertexId, b: VertexId) -> bool:
        """Merge the sets of ``a`` and ``b``; return False when already joined."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if root_b < root_a:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        return True


def kruskal_filter(
    weighted_edges: Iterable[Tuple[float, VertexId, VertexId]],
    vertices: Iterable[VertexId],
) -> Set[Edge]:
    """Kruskal's greedy filter over an arbitrary edge stream.

    Edges are considered in increasing ``(weight, u, v)`` order; an edge
    is kept iff it joins two previously separate components.  The input
    does not have to describe a connected graph -- the result is a
    maximum spanning *forest* of whatever was supplied.
    """
    union_find = UnionFind(vertices)
    chosen: Set[Edge] = set()
    for weight, u, v in sorted(
        (weight, *normalize_edge(u, v)) for weight, u, v in weighted_edges
    ):
        if union_find.union(u, v):
            chosen.add((u, v))
    return chosen


def kruskal_mst(graph: nx.Graph) -> Set[Edge]:
    """The MST of ``graph`` as a set of canonical edges.

    Raises :class:`DisconnectedGraphError` when ``graph`` is not connected
    (an MST does not exist in that case).
    """
    edges = [(data["weight"], u, v) for u, v, data in graph.edges(data=True)]
    chosen = kruskal_filter(edges, graph.nodes())
    if len(chosen) != graph.number_of_nodes() - 1:
        raise DisconnectedGraphError(
            f"graph is disconnected: spanning forest has {len(chosen)} edges "
            f"for {graph.number_of_nodes()} vertices"
        )
    return chosen
