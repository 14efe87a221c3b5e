"""Validation against *planted* ground truth.

Some workload-zoo families (see :data:`repro.workloads.PLANTED_FAMILIES`)
construct their instances around a spanning tree that is the unique MST
*by construction* -- every planted edge is strictly lighter than every
non-planted edge.  The generator records that tree in
``graph.graph["planted_mst"]``, which gives the verification layer an
oracle that is independent of the sequential references: a bug shared by
Kruskal, Prim and networkx (for example in the tie-breaking order)
cannot also forge the planted tree.

:class:`~repro.verify.mst_checks.MSTOracle` requires the planted tree to
equal the sequential references' MST, so every verified run on a
planted graph is checked against it; ``run_single`` also surfaces the
tree in ``result.details`` for provenance (:func:`planted_mst_details`).
"""

from __future__ import annotations

from typing import List, Optional, Set

import networkx as nx

from ..core.results import MSTRunResult
from ..exceptions import VerificationError
from ..types import Edge, normalize_edge, normalize_edges

#: Graph attribute under which generators record their planted MST.
PLANTED_MST_KEY = "planted_mst"


def planted_mst_edges(graph: nx.Graph) -> Optional[Set[Edge]]:
    """The planted MST recorded on ``graph``, or ``None`` when absent.

    Raises :class:`~repro.exceptions.VerificationError` when the
    recorded tree is malformed (an edge not in the graph, or not exactly
    ``n - 1`` edges) -- a planted oracle that cannot be trusted is worse
    than none.
    """
    recorded = graph.graph.get(PLANTED_MST_KEY)
    if recorded is None:
        return None
    edges = {normalize_edge(u, v) for u, v in recorded}
    n = graph.number_of_nodes()
    if len(edges) != n - 1:
        raise VerificationError(
            f"planted MST of a {n}-vertex graph must have {n - 1} edges, "
            f"got {len(edges)}"
        )
    for u, v in sorted(edges):
        if not graph.has_edge(u, v):
            raise VerificationError(
                f"planted MST edge ({u}, {v}) is not an edge of the graph"
            )
    return edges


def planted_mst_details(graph: nx.Graph) -> Optional[List[List[int]]]:
    """JSON-safe form of the planted MST for ``result.details`` exposure."""
    edges = planted_mst_edges(graph)
    if edges is None:
        return None
    return [list(edge) for edge in sorted(edges)]


def assert_matches_planted_mst(graph: nx.Graph, result: MSTRunResult) -> None:
    """Raise unless ``result`` selected exactly the planted MST.

    A no-op for graphs that do not carry a planted tree.
    """
    expected = planted_mst_edges(graph)
    if expected is None:
        return
    edge_set = normalize_edges(result.edges)
    if edge_set == expected:
        return
    missing = sorted(expected - edge_set)
    extra = sorted(edge_set - expected)
    raise VerificationError(
        f"run disagrees with the planted MST: {len(missing)} planted edges "
        f"missing (e.g. {missing[:3]}), {len(extra)} non-planted edges "
        f"selected (e.g. {extra[:3]})"
    )
