"""Tests for weight assignment and graph properties."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.baselines import kruskal_mst
from repro.exceptions import DisconnectedGraphError, GraphError, WeightError
from repro.graphs import (
    assign_random_unique_weights,
    assign_unique_weights,
    ensure_unique_weights,
    graph_summary,
    hop_diameter,
    path_graph,
    random_connected_graph,
    validate_weighted_graph,
    weights_are_unique,
)


def _unweighted_triangle():
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (1, 2), (0, 2)])
    return graph


class TestWeightAssignment:
    def test_assign_unique_weights_is_deterministic(self):
        first = assign_unique_weights(_unweighted_triangle())
        second = assign_unique_weights(_unweighted_triangle())
        assert [first[u][v]["weight"] for u, v in sorted(first.edges())] == [
            second[u][v]["weight"] for u, v in sorted(second.edges())
        ]

    def test_assign_unique_weights_rejects_bad_step(self):
        with pytest.raises(WeightError):
            assign_unique_weights(_unweighted_triangle(), step=0)

    def test_random_weights_are_unique_and_in_range(self):
        graph = assign_random_unique_weights(_unweighted_triangle(), seed=1, low=10, high=20)
        assert weights_are_unique(graph)
        assert all(10 <= data["weight"] < 20 for _, _, data in graph.edges(data=True))

    def test_random_weights_reject_bad_range(self):
        with pytest.raises(WeightError):
            assign_random_unique_weights(_unweighted_triangle(), low=5, high=5)

    def test_weights_are_unique_detects_duplicates(self):
        graph = _unweighted_triangle()
        nx.set_edge_attributes(graph, 1.0, "weight")
        assert not weights_are_unique(graph)

    def test_weights_are_unique_detects_missing(self):
        assert not weights_are_unique(_unweighted_triangle())

    def test_ensure_unique_preserves_mst_under_tie_breaking(self):
        graph = _unweighted_triangle()
        graph[0][1]["weight"] = 1.0
        graph[1][2]["weight"] = 1.0
        graph[0][2]["weight"] = 1.0
        ensure_unique_weights(graph)
        assert weights_are_unique(graph)
        # Lexicographically smallest edges win: (0,1) and (0,2).
        assert kruskal_mst(graph) == {(0, 1), (0, 2)}

    def test_ensure_unique_requires_weights(self):
        with pytest.raises(WeightError):
            ensure_unique_weights(_unweighted_triangle())


class TestProperties:
    def test_hop_diameter_of_known_graphs(self):
        assert hop_diameter(path_graph(10, seed=0)) == 9
        single = nx.Graph()
        single.add_node(0)
        assert hop_diameter(single) == 0

    def test_hop_diameter_rejects_disconnected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1.0)
        graph.add_edge(2, 3, weight=2.0)
        with pytest.raises(DisconnectedGraphError):
            hop_diameter(graph)

    def test_hop_diameter_rejects_empty(self):
        with pytest.raises(GraphError):
            hop_diameter(nx.Graph())

    def test_validate_accepts_generated_graph(self):
        validate_weighted_graph(random_connected_graph(20, seed=1))

    def test_validate_rejects_empty_graph(self):
        with pytest.raises(GraphError, match="no vertices"):
            validate_weighted_graph(nx.Graph())

    def test_validate_rejects_missing_weight(self):
        with pytest.raises(WeightError):
            validate_weighted_graph(_unweighted_triangle())

    def test_validate_rejects_non_positive_weight(self):
        graph = _unweighted_triangle()
        graph[0][1]["weight"] = -1.0
        graph[1][2]["weight"] = 2.0
        graph[0][2]["weight"] = 3.0
        with pytest.raises(WeightError):
            validate_weighted_graph(graph)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "3"], ids=repr)
    def test_validate_rejects_non_finite_and_non_numeric_weights(self, bad):
        graph = _unweighted_triangle()
        graph[0][1]["weight"] = bad
        graph[1][2]["weight"] = 2.0
        graph[0][2]["weight"] = 3.0
        expected = f"edge (0, 1) has weight {bad!r}; every weight must be a finite real number > 0"
        with pytest.raises(WeightError) as excinfo:
            validate_weighted_graph(graph, require_unique_weights=False)
        assert str(excinfo.value) == expected

    def test_validate_rejects_duplicate_weights_when_required(self):
        graph = _unweighted_triangle()
        nx.set_edge_attributes(graph, 1.0, "weight")
        with pytest.raises(WeightError):
            validate_weighted_graph(graph, require_unique_weights=True)
        validate_weighted_graph(graph, require_unique_weights=False)

    def test_validate_rejects_self_loop(self):
        graph = random_connected_graph(12, seed=2)
        graph.add_edge(5, 5, weight=1e-3)
        with pytest.raises(GraphError, match=r"edge \(5, 5\) is a self-loop"):
            validate_weighted_graph(graph, require_unique_weights=False)

    def test_validate_rejects_directed(self):
        graph = nx.DiGraph()
        graph.add_edge(0, 1, weight=1.0)
        with pytest.raises(GraphError):
            validate_weighted_graph(graph)

    def test_graph_summary_fields(self):
        graph = path_graph(8, seed=0, random_weights=False)
        summary = graph_summary(graph)
        assert summary.n == 8
        assert summary.m == 7
        assert summary.hop_diameter == 7
        assert summary.min_weight == 1.0
        assert summary.max_weight == 7.0
        assert summary.total_weight == pytest.approx(28.0)
        assert not summary.is_low_diameter

    def test_graph_summary_low_diameter_flag(self):
        assert graph_summary(random_connected_graph(50, seed=2)).is_low_diameter
