"""The Garay-Kutten-Peleg (GKP / KP98) two-phase MST baseline.

Phase 1 is the same Controlled-GHS the paper uses, always run with
``k = sqrt(n)`` (GKP predates the diameter-sensitive choice of ``k``).
Phase 2 is the Pipeline-MST procedure: candidate inter-fragment edges are
pipelined towards the root of an auxiliary BFS tree with per-vertex cycle
filtering, and the root completes the MST locally.

The running time is near optimal, O(D + sqrt(n) log* n) rounds, but the
pipelining costs Theta(|E| + n^{3/2}) messages -- this is exactly the
behaviour the paper's experiment E7 contrasts with its own
O(|E| log n + n log n log* n) message bound.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

import networkx as nx

from .._collector import paused_collector
from ..conditions.proxy import require_condition_applied
from ..config import normalize_config, RunConfig
from ..core.controlled_ghs import build_base_forest
from ..core.results import MSTRunResult
from ..exceptions import FragmentError
from ..graphs.properties import reject_bad_identities, validate_weighted_graph
from ..simulator.engine import create_engine
from ..simulator.primitives.bfs import build_bfs_tree
from ..simulator.primitives.neighbor_exchange import neighbor_exchange
from ..types import CostReport, Edge, FragmentId, normalize_edge, VertexId
from .kruskal import kruskal_filter
from .pipeline_mst import CandidateEdge, pipeline_mst_upcast


@paused_collector()
def gkp_mst(
    graph: nx.Graph,
    config: Optional[RunConfig] = None,
    root: Optional[VertexId] = None,
) -> MSTRunResult:
    """Compute the MST with the Garay-Kutten-Peleg two-phase baseline.

    Raises :class:`~repro.exceptions.GraphError` before round 1 when a
    vertex identity is not a non-negative integer (Controlled-GHS colours
    fragments by them).  The cyclic garbage collector is paused while
    the run lasts.
    """
    config = normalize_config(config)
    validate_weighted_graph(graph, require_unique_weights=True)
    reject_bad_identities(graph)
    n = graph.number_of_nodes()
    if n == 1:
        return MSTRunResult(
            algorithm="gkp",
            edges=set(),
            total_weight=0.0,
            cost=CostReport(),
            n=1,
            m=0,
            bandwidth=config.bandwidth,
        )

    network = create_engine(
        graph, bandwidth=config.bandwidth, validate=False, engine=config.engine
    )
    require_condition_applied(network, config.condition)
    stage_costs: Dict[str, CostReport] = {}

    # Auxiliary BFS tree (needed by the pipeline).
    checkpoint = network.checkpoint()
    bfs_tree = build_bfs_tree(network, root)
    stage_costs["bfs"] = network.cost_since(checkpoint)

    # Phase 1: Controlled-GHS with k = sqrt(n), regardless of the diameter.
    k = max(1, min(math.ceil(math.sqrt(n)), max(1, n // 10)))
    checkpoint = network.checkpoint()
    base = build_base_forest(network, k)
    stage_costs["controlled_ghs"] = network.cost_since(checkpoint)
    forest = base.forest
    mst_edges: Set[Edge] = set(forest.tree_edges())

    if forest.count > 1:
        # Phase 2: Pipeline-MST.
        checkpoint = network.checkpoint()
        fragment_of = forest.vertex_to_fragment()
        neighbor_fragments = neighbor_exchange(network, fragment_of)

        items: Dict[VertexId, List[CandidateEdge]] = {}
        for vertex in network.vertices():
            own_fragment = fragment_of[vertex]
            best_per_fragment: Dict[FragmentId, CandidateEdge] = {}
            node = network.node(vertex)
            for neighbor in node.neighbors:
                other_fragment = neighbor_fragments[vertex].get(neighbor, own_fragment)
                if other_fragment == own_fragment:
                    continue
                candidate: CandidateEdge = (
                    node.edge_weights[neighbor],
                    *normalize_edge(vertex, neighbor),
                    own_fragment,
                    other_fragment,
                )
                current = best_per_fragment.get(other_fragment)
                if current is None or candidate < current:
                    best_per_fragment[other_fragment] = candidate
            if best_per_fragment:
                items[vertex] = sorted(best_per_fragment.values())

        collected = pipeline_mst_upcast(
            network, bfs_tree.forest, items, set(forest.fragments)
        )
        stage_costs["pipeline"] = network.cost_since(checkpoint)

        # The root finishes locally: an MST of the fragments' graph over the
        # collected candidates supplies exactly the missing MST edges.
        remaining = kruskal_filter(
            (
                (weight, fragment_u, fragment_v)
                for weight, _, _, fragment_u, fragment_v in collected
            ),
            set(forest.fragments),
        )
        chosen_pairs = {tuple(sorted(pair)) for pair in remaining}
        for weight, u, v, fragment_u, fragment_v in sorted(collected):
            if tuple(sorted((fragment_u, fragment_v))) in chosen_pairs:
                mst_edges.add(normalize_edge(u, v))
                chosen_pairs.discard(tuple(sorted((fragment_u, fragment_v))))

    if len(mst_edges) != n - 1:
        raise FragmentError(
            f"GKP selected {len(mst_edges)} edges for a graph with {n} vertices"
        )
    total_weight = sum(graph[u][v]["weight"] for u, v in mst_edges)
    return MSTRunResult(
        algorithm="gkp",
        edges=mst_edges,
        total_weight=total_weight,
        cost=network.total_cost(),
        n=n,
        m=graph.number_of_edges(),
        bandwidth=config.bandwidth,
        details={
            "k": k,
            "bfs_depth": bfs_tree.depth,
            "base_fragment_count": forest.count,
            "stage_costs": {name: cost.__dict__ for name, cost in stage_costs.items()},
        },
    )
