"""Tests for the shared type helpers (repro.types)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.exceptions import GraphError
from repro.simulator import create_engine
from repro.types import CostReport, normalize_edge, normalize_edges


class TestNormalizeEdge:
    def test_orders_endpoints(self):
        assert normalize_edge(5, 2) == (2, 5)
        assert normalize_edge(2, 5) == (2, 5)

    def test_preserves_already_sorted(self):
        assert normalize_edge(0, 1) == (0, 1)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            normalize_edge(3, 3)

    def test_normalize_edges_deduplicates(self):
        edges = [(1, 2), (2, 1), (3, 4)]
        assert normalize_edges(edges) == {(1, 2), (3, 4)}


def _sorted_edge_keys(*edges):
    graph = nx.Graph()
    for u, v, weight in edges:
        graph.add_edge(u, v, weight=weight)
    return create_engine(graph).sorted_edges()


class TestEdgeKey:
    """The unique-MST order is the plain tuple ``(weight, u, v)`` with ``u < v``."""

    def test_orders_by_weight_first(self):
        keys = _sorted_edge_keys((0, 1, 2.0), (9, 8, 1.0), (1, 8, 3.0))
        assert keys == [(1.0, 8, 9), (2.0, 0, 1), (3.0, 1, 8)]

    def test_breaks_ties_lexicographically(self):
        keys = _sorted_edge_keys((1, 2, 1.0), (0, 5, 1.0), (0, 1, 2.0))
        assert keys == [(1.0, 0, 5), (1.0, 1, 2), (2.0, 0, 1)]

    def test_edge_property_is_canonical(self):
        assert _sorted_edge_keys((7, 3, 1.5)) == [(1.5, 3, 7)]

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            _sorted_edge_keys((1, 2, 1.0), (2, 2, 0.5))


class TestCostReport:
    def test_addition_sums_all_fields(self):
        total = CostReport(rounds=2, messages=5, words=7) + CostReport(rounds=3, messages=1, words=2)
        assert (total.rounds, total.messages, total.words) == (5, 6, 9)

    def test_default_is_zero(self):
        report = CostReport()
        assert report.rounds == 0 and report.messages == 0 and report.words == 0
