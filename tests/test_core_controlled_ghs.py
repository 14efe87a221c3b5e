"""Tests for the Controlled-GHS base-forest construction (Theorem 4.3)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.bounds import controlled_ghs_message_bound, controlled_ghs_time_bound
from repro.baselines import kruskal_mst
from repro.core.controlled_ghs import build_base_forest
from repro.graphs import (
    complete_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.simulator.network import SyncNetwork
from repro.verify.forest_checks import (
    assert_alpha_beta_forest,
    assert_fragments_are_mst_subtrees,
    assert_valid_mst_forest,
)


def _build(graph, k):
    network = SyncNetwork(graph)
    result = build_base_forest(network, k)
    return network, result


GRAPH_CASES = [
    ("random", lambda: random_connected_graph(60, seed=21)),
    ("path", lambda: path_graph(40, seed=22)),
    ("grid", lambda: grid_graph(6, 7, seed=23)),
    ("star", lambda: star_graph(30, seed=24)),
    ("complete", lambda: complete_graph(14, seed=25)),
]


class TestForestGuarantees:
    @pytest.mark.parametrize("name,builder", GRAPH_CASES)
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_alpha_beta_guarantee(self, name, builder, k):
        graph = builder()
        _, result = _build(graph, k)
        assert result.k == k
        assert_alpha_beta_forest(graph, result.forest, k)

    @pytest.mark.parametrize("name,builder", GRAPH_CASES)
    def test_fragments_are_subtrees_of_the_unique_mst(self, name, builder):
        graph = builder()
        _, result = _build(graph, 6)
        assert_fragments_are_mst_subtrees(graph, result.forest)

    def test_k_equals_one_returns_singletons_for_free(self, small_random_graph):
        network, result = _build(small_random_graph, 1)
        assert result.forest.count == small_random_graph.number_of_nodes()
        assert network.total_cost().rounds == 0
        assert network.total_cost().messages == 0

    def test_large_k_collapses_to_few_fragments(self, small_path_graph):
        _, result = _build(small_path_graph, small_path_graph.number_of_nodes())
        # With k >= n the construction keeps merging until very few
        # fragments remain (possibly one, i.e. the whole MST).
        assert result.forest.count <= 4
        assert_valid_mst_forest(small_path_graph, result.forest)

    def test_fragment_count_shrinks_monotonically(self, medium_random_graph):
        _, result = _build(medium_random_graph, 8)
        counts = [phase.fragments_before for phase in result.phases]
        counts.append(result.phases[-1].fragments_after)
        assert all(later <= earlier for earlier, later in zip(counts, counts[1:]))
        # Lemma 4.2: the fragment count at least halves while all
        # fragments are small (phase 0 starts from singletons).
        assert result.phases[0].fragments_after <= math.ceil(counts[0] / 2)


class TestCostGuarantees:
    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_theorem_4_3_bounds(self, medium_random_graph, k):
        network, result = _build(medium_random_graph, k)
        n = medium_random_graph.number_of_nodes()
        m = medium_random_graph.number_of_edges()
        assert result.cost.rounds <= controlled_ghs_time_bound(n, k)
        assert result.cost.messages <= controlled_ghs_message_bound(n, m, k)

    def test_phase_count_is_log_k(self, medium_random_graph):
        _, result = _build(medium_random_graph, 8)
        assert len(result.phases) <= math.ceil(math.log2(8))

    def test_phase_telemetry_sums_to_total(self, small_random_graph):
        _, result = _build(small_random_graph, 8)
        assert sum(phase.rounds for phase in result.phases) == result.cost.rounds
        assert sum(phase.messages for phase in result.phases) == result.cost.messages

    def test_mst_edges_match_tree_edges(self, small_grid_graph):
        _, result = _build(small_grid_graph, 4)
        tree_edges = result.forest.tree_edges()
        assert tree_edges <= kruskal_mst(small_grid_graph)
        assert len(tree_edges) == small_grid_graph.number_of_nodes() - result.forest.count


class TestBandwidthVariant:
    def test_higher_bandwidth_preserves_structure(self, small_random_graph):
        network = SyncNetwork(small_random_graph, bandwidth=4)
        result = build_base_forest(network, 6)
        assert_alpha_beta_forest(small_random_graph, result.forest, 6)
