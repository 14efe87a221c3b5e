"""The complete deterministic distributed MST algorithm (Theorems 3.1 and 3.2).

``compute_mst`` executes the paper's algorithm end to end on a simulated
CONGEST(b log n) network:

1. build the auxiliary BFS tree ``tau`` rooted at ``rt``
   (O(D) rounds, O(|E|) messages);
2. pick the base-forest parameter ``k`` from the regime
   (``k = sqrt(n/b)`` when the BFS depth is at most that, else ``k = D``)
   and build the base MST forest ``F_0`` with Controlled-GHS
   (Theorem 4.3);
3. label ``tau`` with subtree intervals for routing and upcast the base
   fragments' identities/positions to ``rt``
   (O(D + n/k) rounds, O(D * n/k) messages);
4. run Boruvka phases on top of the base forest: per phase, every base
   fragment finds the lightest edge leaving its *coarse* fragment
   (convergecast inside base fragments), the candidates are pipelined up
   ``tau``, the root merges the fragments' graph locally, the new
   fragment identities are pipelined back down to the base-fragment
   roots, broadcast inside the base fragments and exchanged between
   neighbours.  Each phase at least halves the number of coarse
   fragments, so there are at most ``ceil(log2)`` of them.

The result carries the selected MST edges together with the exact rounds
and messages consumed, which is what the benchmark harness compares
against the theorem bounds and against the baselines.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import networkx as nx

from .._collector import paused_collector
from ..conditions.proxy import require_condition_applied
from ..config import normalize_config, RunConfig
from ..exceptions import FragmentError
from ..graphs.properties import reject_bad_identities, validate_weighted_graph
from ..simulator.engine import create_engine
from ..simulator.primitives.bfs import build_bfs_tree
from ..simulator.primitives.broadcast import forest_broadcast
from ..simulator.primitives.intervals import assign_intervals
from ..simulator.primitives.neighbor_exchange import neighbor_exchange
from ..simulator.primitives.pipeline import pipelined_downcast, pipelined_upcast
from ..types import CostReport, Edge, FragmentId, PhaseTelemetry, VertexId
from .boruvka_merge import merge_fragment_graph
from .controlled_ghs import build_base_forest
from .mwoe import Candidate, fragment_outgoing_edges
from .parameters import choose_base_forest_parameter
from .results import MSTRunResult


@paused_collector()
def compute_mst(
    graph: nx.Graph,
    config: Optional[RunConfig] = None,
    root: Optional[VertexId] = None,
) -> MSTRunResult:
    """Compute the MST of ``graph`` with the paper's deterministic algorithm.

    Python's cyclic garbage collector is paused while the run lasts.

    Args:
        graph: connected undirected graph with distinct positive edge
            weights (see :func:`repro.graphs.validate_weighted_graph`).
        config: run configuration (bandwidth ``b``, optional override of
            the base-forest parameter ``k``, telemetry switches).
        root: the BFS root ``rt``; defaults to the smallest vertex
            identity.

    Returns:
        An :class:`~repro.core.results.MSTRunResult` with
        ``algorithm == "elkin"``.

    Raises:
        GraphError: before round 1, when ``graph`` is not a valid input
            or a vertex identity is not a non-negative integer.
    """
    config = normalize_config(config)
    validate_weighted_graph(graph, require_unique_weights=True)
    reject_bad_identities(graph)
    n = graph.number_of_nodes()
    if n == 1:
        return MSTRunResult(
            algorithm="elkin",
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

    # Stage 1: auxiliary BFS tree tau.
    checkpoint = network.checkpoint()
    bfs_tree = build_bfs_tree(network, root)
    stage_costs["bfs"] = network.cost_since(checkpoint)

    # Stage 2: base MST forest via Controlled-GHS with the regime's k.
    k = (
        config.base_forest_k
        if config.base_forest_k is not None
        else choose_base_forest_parameter(n, bfs_tree.depth, config.bandwidth)
    )
    checkpoint = network.checkpoint()
    base = build_base_forest(network, k)
    stage_costs["controlled_ghs"] = network.cost_since(checkpoint)
    base_forest = base.forest
    mst_edges: Set[Edge] = set(base_forest.tree_edges())

    # Stage 3: interval labelling of tau and the upcast of base-fragment
    # identities and routing positions to the root.
    checkpoint = network.checkpoint()
    routing = assign_intervals(network, bfs_tree.forest)
    base_roots = base_forest.roots()
    pipelined_upcast(
        network,
        bfs_tree.forest,
        items={
            root_vertex: {fragment_id: (routing.position(root_vertex),)}
            for fragment_id, root_vertex in base_roots.items()
        },
    )
    stage_costs["intervals_and_registration"] = network.cost_since(checkpoint)

    # Stage 4: Boruvka phases over the base forest.
    base_combined = base_forest.combined_forest()
    base_of: Dict[VertexId, FragmentId] = base_forest.vertex_to_fragment()
    coarse_of: Dict[VertexId, FragmentId] = dict(base_of)
    coarse_of_base: Dict[FragmentId, FragmentId] = {fid: fid for fid in base_roots}
    phases = []
    phase_index = 0
    checkpoint = network.checkpoint()

    while len(set(coarse_of_base.values())) > 1:
        phase_start = network.checkpoint()
        coarse_ids = set(coarse_of_base.values())

        # 4a. Every vertex tells its neighbours its coarse fragment identity.
        neighbor_coarse = neighbor_exchange(network, coarse_of)

        # 4b. Every base fragment finds the lightest edge leaving its
        #     coarse fragment (convergecast inside the base fragments).
        candidates_by_root = fragment_outgoing_edges(
            network, base_combined, coarse_of, neighbor_coarse
        )

        # 4c. Pipelined upcast of the candidates, keyed by the coarse
        #     fragment they would leave; the root keeps the minimum per key.
        items: Dict[VertexId, Dict[FragmentId, Candidate]] = {}
        for fragment_id, root_vertex in base_roots.items():
            candidate = candidates_by_root.get(root_vertex)
            if candidate is None:
                continue
            weight, u, v, _ = candidate
            # Re-key the target group by *coarse* identity (the neighbour
            # exchange already reported coarse identities, so the fourth
            # component is the target coarse fragment).
            items.setdefault(root_vertex, {})[coarse_of_base[fragment_id]] = candidate
        upcast_result = pipelined_upcast(network, bfs_tree.forest, items)
        mwoe_per_coarse = upcast_result[bfs_tree.root]

        if not mwoe_per_coarse:
            break

        # 4d. The root merges the fragments' graph locally.
        merge = merge_fragment_graph(mwoe_per_coarse, coarse_ids)
        mst_edges |= merge.mst_edges_added

        # 4e. Pipelined downcast: every base-fragment root learns the
        #     identity of the coarse fragment that now contains it.
        payloads = [
            (base_roots[fragment_id], merge.new_fragment_of[coarse_of_base[fragment_id]])
            for fragment_id in sorted(base_roots)
        ]
        pipelined_downcast(network, bfs_tree.forest, payloads, routing=routing)

        # 4f. Broadcast the new coarse identity inside every base fragment.
        new_ids_by_root = {
            base_roots[fragment_id]: merge.new_fragment_of[coarse_of_base[fragment_id]]
            for fragment_id in base_roots
        }
        broadcast_values = forest_broadcast(network, base_combined, new_ids_by_root)
        coarse_of = dict(broadcast_values)
        coarse_of_base = {
            fragment_id: merge.new_fragment_of[coarse_of_base[fragment_id]]
            for fragment_id in base_roots
        }

        phase_cost = network.cost_since(phase_start)
        phases.append(
            PhaseTelemetry(
                phase=phase_index,
                fragments_before=len(coarse_ids),
                fragments_after=len(set(coarse_of_base.values())),
                rounds=phase_cost.rounds,
                messages=phase_cost.messages,
                mst_edges_added=len(merge.mst_edges_added),
                details={"upcast_keys": len(mwoe_per_coarse)},
            )
        )
        phase_index += 1
        if phase_index > 2 * max(1, n).bit_length() + 4:
            raise FragmentError(
                f"Boruvka did not converge after {phase_index} phases "
                f"({len(set(coarse_of_base.values()))} fragments remain)"
            )

    stage_costs["boruvka"] = network.cost_since(checkpoint)

    if len(mst_edges) != n - 1:
        raise FragmentError(
            f"algorithm selected {len(mst_edges)} edges for a graph with {n} vertices"
        )
    total_weight = sum(graph[u][v]["weight"] for u, v in mst_edges)

    result = MSTRunResult(
        algorithm="elkin",
        edges=mst_edges,
        total_weight=total_weight,
        cost=network.total_cost(),
        n=n,
        m=graph.number_of_edges(),
        bandwidth=config.bandwidth,
        phases=phases if config.collect_telemetry else [],
        details={
            "k": k,
            "bfs_depth": bfs_tree.depth,
            "bfs_root": bfs_tree.root,
            "base_fragment_count": base_forest.count,
            "base_max_diameter": base_forest.max_diameter(),
            "controlled_ghs_phases": [phase.__dict__ for phase in base.phases]
            if config.collect_telemetry
            else [],
            "boruvka_phase_count": phase_index,
            "stage_costs": {name: cost.__dict__ for name, cost in stage_costs.items()},
        },
    )
    if config.strict_bounds:
        from ..verify.complexity_checks import assert_elkin_bounds

        assert_elkin_bounds(result, condition=config.condition)
    return result
