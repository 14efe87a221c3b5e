"""Adapter exposing the sequential references through the registry contract.

The sequential MSTs (Kruskal, Prim, Boruvka) historically returned bare
edge sets, which kept them out of every sweep: ``Runner.run_many``
and ``repro-mst sweep`` only speak the ``(graph, RunConfig) ->
MSTRunResult`` contract.  :func:`sequential_runner` wraps an edge-set
function into that contract so the references become first-class,
sweepable registry entries -- they report ``rounds = messages = 0``
(no simulated network is involved) and are marked
``is_distributed=False`` in their :class:`~repro.algorithms.AlgorithmInfo`,
which is how analysis code distinguishes "free" local computation from
CONGEST executions.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

import networkx as nx

from ..config import normalize_config, RunConfig
from ..core.results import MSTRunResult
from ..graphs.properties import reject_self_loops
from ..types import CostReport, Edge

#: A sequential MST: graph -> canonical edge set.
EdgeSetFn = Callable[[nx.Graph], Set[Edge]]

#: A registry-compatible runner.
SequentialRunner = Callable[[nx.Graph, Optional[RunConfig]], MSTRunResult]


def sequential_runner(name: str, edge_fn: EdgeSetFn) -> SequentialRunner:
    """Wrap the edge-set function ``edge_fn`` into the runner contract.

    The returned runner accepts ``config: Optional[RunConfig] = None``
    exactly like the distributed runners (same normalization), records
    the configured bandwidth for provenance even though no message ever
    crosses an edge, and reports zero rounds/messages/words.  A
    self-loop raises the distributed runners'
    :class:`~repro.exceptions.GraphError`.
    """

    def runner(graph: nx.Graph, config: Optional[RunConfig] = None) -> MSTRunResult:
        config = normalize_config(config)
        # The O(n) loop check, not the O(n + m) validator: a sweep runs
        # this once per cell.
        reject_self_loops(graph)
        edges = edge_fn(graph)
        total_weight = sum(graph[u][v]["weight"] for u, v in edges)
        return MSTRunResult(
            algorithm=name,
            edges=set(edges),
            total_weight=total_weight,
            cost=CostReport(),
            n=graph.number_of_nodes(),
            m=graph.number_of_edges(),
            bandwidth=config.bandwidth,
            details={"distributed": False},
        )

    runner.__name__ = f"{name}_sequential_runner"
    runner.__qualname__ = runner.__name__
    runner.__doc__ = f"Sequential {name} MST adapted to the registry runner contract."
    return runner
