"""Sequential Boruvka MST.

The distributed algorithms in this library are all Boruvka-shaped, so a
plain sequential Boruvka is a useful third oracle: it exercises the same
"minimum outgoing edge per component" logic without any simulator in the
loop, which makes test failures easy to localise.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import networkx as nx

from ..exceptions import DisconnectedGraphError, GraphError
from ..types import Edge, normalize_edge, VertexId
from .kruskal import UnionFind


def boruvka_mst(graph: nx.Graph) -> Set[Edge]:
    """The MST of ``graph`` via sequential Boruvka phases.

    The edge list is extracted into flat ``(weight, u, v)`` tuples once
    and compacted as phases merge components (an edge that has become
    internal can never cross a cut again), so later phases scan only the
    surviving candidates instead of re-reading every networkx edge
    attribute -- the classical edge-pruning formulation.  Each phase
    first labels every vertex with its component root, then scans the
    surviving edges against those labels: one ``find`` per vertex
    instead of two per edge.  The unions still run after the scan, in
    the order the scan picked the edges, so the labels are the roots a
    ``find`` would return and the chosen set is built in the same order.
    """
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphError("cannot compute the MST of an empty graph")
    vertices = list(graph.nodes())
    union_find = UnionFind(vertices)
    find = union_find.find
    edges = [
        (data["weight"], *normalize_edge(u, v))
        for u, v, data in graph.edges(data=True)
    ]
    chosen: Set[Edge] = set()
    components = n
    while components > 1:
        root = {vertex: find(vertex) for vertex in vertices}
        best: Dict[VertexId, Tuple[float, VertexId, VertexId]] = {}
        crossing = []
        for key in edges:
            root_u = root[key[1]]
            root_v = root[key[2]]
            if root_u == root_v:
                continue
            crossing.append(key)
            current: Optional[Tuple[float, VertexId, VertexId]] = best.get(root_u)
            if current is None or key < current:
                best[root_u] = key
            current = best.get(root_v)
            if current is None or key < current:
                best[root_v] = key
        edges = crossing
        if not best:
            raise DisconnectedGraphError(
                f"graph is disconnected: {components} components remain with no crossing edges"
            )
        merged_any = False
        for weight, u, v in best.values():
            if union_find.union(u, v):
                chosen.add((u, v))
                components -= 1
                merged_any = True
        if not merged_any:
            raise GraphError("Boruvka made no progress (duplicate edge weights?)")
    return chosen
