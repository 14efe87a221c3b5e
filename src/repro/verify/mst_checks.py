"""MST correctness against independent oracles.

The paper assumes unique edge weights, under which the MST is unique, so
correctness is exact set equality.  :class:`MSTOracle` is the package's
one verifier: it computes the MST of a graph with networkx's Kruskal,
our own Kruskal and our own Prim, requires them -- and the planted tree,
on a graph that records one -- to agree, and then checks any number of
runs against that tree.  Equality with the unique MST already implies
the spanning-tree property.  Failures raise
:class:`~repro.exceptions.VerificationError` with a precise description
of the first discrepancy, which keeps property-based test failures easy
to read.
"""

from __future__ import annotations

import numbers
from typing import Any, Set

import networkx as nx

from ..baselines.kruskal import kruskal_mst
from ..baselines.prim import prim_mst
from ..core.results import MSTRunResult
from ..exceptions import VerificationError
from ..types import Edge, normalize_edge, normalize_edges
from .planted_checks import planted_mst_edges


def reference_mst(graph: nx.Graph) -> Set[Edge]:
    """The unique MST of ``graph`` according to networkx (canonical edges).

    Also cross-checks networkx against our own Kruskal so that a bug in
    either reference cannot silently validate a wrong distributed result.
    """
    nx_edges = normalize_edges(nx.minimum_spanning_edges(graph, algorithm="kruskal", data=False))
    own_edges = kruskal_mst(graph)
    if nx_edges != own_edges:
        raise VerificationError(
            "internal oracle disagreement: networkx and Kruskal produced different MSTs "
            f"({len(nx_edges ^ own_edges)} differing edges); are the edge weights unique?"
        )
    return own_edges


def verify_mst_result(graph: nx.Graph, result: MSTRunResult) -> None:
    """Validate one run against every oracle: ``MSTOracle(graph).verify(result)``."""
    MSTOracle(graph).verify(result)


class MSTOracle:
    """Verification oracle for one graph instance.

    Construction computes the unique MST once and cross-checks its
    sources: networkx against Kruskal against Prim and, when the graph
    records a planted tree (:mod:`repro.verify.planted_checks`),
    against that tree -- an oracle a bug shared by the sequential
    references cannot forge.  :meth:`verify` then validates any number
    of results at set-comparison cost, which is why the batched campaign
    executor keeps one oracle per distinct graph.

    An oracle keeps one edge set, Kruskal's (``expected``), and two
    floats: ``expected_weight`` and ``prim_weight``, the tree weight
    summed in the iteration order of Kruskal's and of Prim's own set.
    Equal sets can iterate in different orders, and the order decides
    the last bits of a float sum.  That is all a verifying batch runner
    needs to serve a ``kruskal`` or ``prim`` cell without running the
    reference again (DESIGN.md, Section 7).
    """

    def __init__(self, graph: nx.Graph) -> None:
        self.expected = reference_mst(graph)
        prim_edges = prim_mst(graph)
        if prim_edges != self.expected:
            raise VerificationError(
                "internal oracle disagreement: Prim and Kruskal produced different "
                f"MSTs ({len(prim_edges ^ self.expected)} differing edges); "
                "are the edge weights unique?"
            )
        planted = planted_mst_edges(graph)
        if planted is not None and planted != self.expected:
            raise VerificationError(
                "internal oracle disagreement: the planted MST and Kruskal differ "
                f"({len(planted ^ self.expected)} differing edges)"
            )
        self.expected_weight = sum(graph[u][v]["weight"] for u, v in self.expected)
        self.prim_weight = sum(graph[u][v]["weight"] for u, v in prim_edges)

    def verify(self, result: MSTRunResult) -> None:
        """Validate ``result`` against the precomputed unique MST.

        Every discrepancy raises :class:`VerificationError`, a malformed
        result included: an edge that is not a pair of distinct vertices
        (named in the message), a different edge set, a weight that is
        not a number within tolerance of the tree's (NaN fails), and a
        round, message or word count that is not a number >= 0.
        """
        try:
            edge_set = normalize_edges(result.edges)
        except (TypeError, ValueError):
            raise VerificationError(
                f"malformed edge {_first_malformed(result.edges)!r} in the result: "
                "an edge is a pair of distinct vertices"
            ) from None
        if edge_set != self.expected:
            missing = sorted(self.expected - edge_set)
            extra = sorted(edge_set - self.expected)
            raise VerificationError(
                f"MST mismatch: {len(missing)} expected edges missing "
                f"(e.g. {missing[:3]}), {len(extra)} unexpected edges selected "
                f"(e.g. {extra[:3]})"
            )
        recomputed = self.expected_weight
        weight = result.total_weight
        # Written so that NaN fails: every comparison with NaN is False.
        if not (
            isinstance(weight, numbers.Real)
            and abs(recomputed - weight) <= 1e-6 * max(1.0, abs(recomputed))
        ):
            raise VerificationError(
                f"reported weight {weight} does not match the edge set ({recomputed})"
            )
        cost = result.cost
        counters = (cost.rounds, cost.messages, cost.words)
        if not all(isinstance(count, numbers.Real) and count >= 0 for count in counters):
            raise VerificationError(
                f"cost counters must be numbers >= 0, got rounds={cost.rounds}, "
                f"messages={cost.messages}, words={cost.words}"
            )


def _first_malformed(edges: Any) -> Any:
    """The first of ``edges`` that is not a pair of distinct, hashable
    vertices, or ``edges`` itself when it is not iterable."""
    try:
        iterator = iter(edges)
    except TypeError:
        return edges
    for edge in iterator:
        try:
            u, v = edge
            hash(normalize_edge(u, v))
        except (TypeError, ValueError):
            return edge
    return None
