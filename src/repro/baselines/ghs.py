"""A synchronous GHS-style distributed Boruvka baseline.

This is the classical pre-sublinear-time behaviour the paper's
introduction contrasts with: fragments repeatedly find their MWOE via a
convergecast over their own fragment tree and merge, with no control over
fragment diameters and no auxiliary BFS tree.  Fragment diameters can
grow to Theta(n), so the running time is O(n log n) rounds even on
low-diameter graphs, while the message complexity stays
O((|E| + n) log n) -- the opposite trade-off to Garay-Kutten-Peleg.

The implementation reuses the library's fragment machinery and charges
every step (neighbour exchange, MWOE convergecast, cross-edge
announcements, new-identity broadcast) through the simulator, exactly as
the paper's algorithm does, so the head-to-head round/message comparison
in experiment E8 is apples to apples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from .._collector import paused_collector
from ..conditions.proxy import require_condition_applied
from ..config import normalize_config, RunConfig
from ..core.boruvka_merge import merge_fragment_graph
from ..core.fragments import MSTForest
from ..core.mwoe import Candidate, candidate_edge, fragment_outgoing_edges
from ..core.results import MSTRunResult
from ..exceptions import FragmentError
from ..graphs.properties import validate_weighted_graph
from ..simulator.engine import create_engine
from ..simulator.primitives.broadcast import forest_broadcast
from ..simulator.primitives.direct import send_over_edges
from ..simulator.primitives.neighbor_exchange import neighbor_exchange
from ..types import CostReport, Edge, FragmentId, PhaseTelemetry, VertexId


@paused_collector()
def ghs_style_mst(graph: nx.Graph, config: Optional[RunConfig] = None) -> MSTRunResult:
    """Compute the MST with the GHS-style synchronous Boruvka baseline.

    The cyclic garbage collector is paused while the run lasts.
    """
    config = normalize_config(config)
    validate_weighted_graph(graph, require_unique_weights=True)
    n = graph.number_of_nodes()
    if n == 1:
        return MSTRunResult(
            algorithm="ghs",
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
    forest = MSTForest.singletons(network.vertices())
    mst_edges: Set[Edge] = set()
    phases: List[PhaseTelemetry] = []
    phase_index = 0

    while forest.count > 1:
        phase_start = network.checkpoint()

        fragment_of = forest.vertex_to_fragment()
        neighbor_fragments = neighbor_exchange(network, fragment_of)
        combined = forest.combined_forest()
        mwoe_by_root = fragment_outgoing_edges(
            network, combined, fragment_of, neighbor_fragments
        )

        mwoe: Dict[FragmentId, Candidate] = {}
        for fragment_id, fragment in forest.fragments.items():
            candidate = mwoe_by_root[fragment.root]
            if candidate is None:
                raise FragmentError(
                    f"fragment {fragment_id} has no outgoing edge although "
                    f"{forest.count} fragments remain"
                )
            mwoe[fragment_id] = candidate

        # The chosen edge is announced inside the fragment and over the edge
        # itself (same charging as in Controlled-GHS).
        forest_broadcast(
            network, combined, {forest.root_of(fid): mwoe[fid][:3] for fid in mwoe}
        )
        send_over_edges(
            network, [(mwoe[fid][1], mwoe[fid][2], fid) for fid in sorted(mwoe)]
        )

        merge = merge_fragment_graph(mwoe, set(forest.fragments))
        mst_edges |= merge.mst_edges_added

        groups = _component_groups(forest, mwoe, merge.new_fragment_of)
        new_forest = forest.merge_groups(groups)

        forest_broadcast(
            network,
            new_forest.combined_forest(),
            {root: fid for fid, root in new_forest.roots().items()},
        )

        phase_cost = network.cost_since(phase_start)
        phases.append(
            PhaseTelemetry(
                phase=phase_index,
                fragments_before=forest.count,
                fragments_after=new_forest.count,
                rounds=phase_cost.rounds,
                messages=phase_cost.messages,
                mst_edges_added=len(merge.mst_edges_added),
                details={"max_fragment_diameter": forest.max_diameter()},
            )
        )
        forest = new_forest
        phase_index += 1
        if phase_index > 2 * n.bit_length() + 4:
            raise FragmentError(f"GHS-style Boruvka did not converge after {phase_index} phases")

    if len(mst_edges) != n - 1:
        raise FragmentError(
            f"GHS baseline selected {len(mst_edges)} edges for a graph with {n} vertices"
        )
    total_weight = sum(graph[u][v]["weight"] for u, v in mst_edges)
    return MSTRunResult(
        algorithm="ghs",
        edges=mst_edges,
        total_weight=total_weight,
        cost=network.total_cost(),
        n=n,
        m=graph.number_of_edges(),
        bandwidth=config.bandwidth,
        phases=phases if config.collect_telemetry else [],
        details={"phase_count": phase_index},
    )


def _component_groups(
    forest: MSTForest,
    mwoe: Dict[FragmentId, Candidate],
    new_fragment_of: Dict[FragmentId, FragmentId],
) -> List[Tuple[List[FragmentId], List[Edge], VertexId]]:
    """Group fragments by merged component and choose deterministic new roots."""
    members: Dict[FragmentId, List[FragmentId]] = {}
    for fragment_id, component in new_fragment_of.items():
        members.setdefault(component, []).append(fragment_id)
    groups: List[Tuple[List[FragmentId], List[Edge], VertexId]] = []
    for component, fragment_ids in sorted(members.items()):
        if len(fragment_ids) == 1:
            continue
        component_set = set(fragment_ids)
        edges = sorted(
            {
                candidate_edge(mwoe[fid])
                for fid in fragment_ids
                if fid in mwoe and mwoe[fid][3] in component_set
            }
        )
        new_root = forest.root_of(max(fragment_ids))
        groups.append((sorted(fragment_ids), edges, new_root))
    return groups
