"""Tests for the complete algorithm (Theorems 3.1 and 3.2) and its building blocks."""

from __future__ import annotations

import pytest

from repro.config import RunConfig
from repro.core.boruvka_merge import merge_fragment_graph
from repro.core.elkin_mst import compute_mst
from repro.core.mwoe import candidate_edge, minimum_candidate
from repro.core.parameters import choose_base_forest_parameter, controlled_ghs_phase_count
from repro.exceptions import ConfigurationError, FragmentError
from repro.graphs import (
    complete_graph,
    grid_graph,
    lollipop_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)
from repro.verify.complexity_checks import assert_elkin_bounds
from repro.verify.mst_checks import verify_mst_result


GRAPH_CASES = [
    ("random-sparse", lambda: random_connected_graph(70, seed=31)),
    ("random-dense", lambda: random_connected_graph(40, edge_probability=0.3, seed=32)),
    ("path", lambda: path_graph(45, seed=33)),
    ("grid", lambda: grid_graph(7, 7, seed=34)),
    ("star", lambda: star_graph(35, seed=35)),
    ("complete", lambda: complete_graph(15, seed=36)),
    ("tree", lambda: random_tree(50, seed=37)),
    ("lollipop", lambda: lollipop_graph(8, 25, seed=38)),
]


class TestCorrectness:
    @pytest.mark.parametrize("name,builder", GRAPH_CASES)
    def test_computes_the_unique_mst(self, name, builder):
        graph = builder()
        result = compute_mst(graph)
        verify_mst_result(graph, result)
        assert result.algorithm == "elkin"
        assert result.edge_count == graph.number_of_nodes() - 1

    @pytest.mark.parametrize("bandwidth", [1, 2, 4, 8])
    def test_correct_under_all_bandwidths(self, small_random_graph, bandwidth):
        result = compute_mst(small_random_graph, RunConfig(bandwidth=bandwidth))
        verify_mst_result(small_random_graph, result)
        assert result.bandwidth == bandwidth

    def test_single_vertex_graph(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_node(0)
        result = compute_mst(graph)
        assert result.edges == set()
        assert result.rounds == 0

    def test_two_vertex_graph(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge(0, 1, weight=3.5)
        result = compute_mst(graph)
        assert result.edges == {(0, 1)}
        assert result.total_weight == pytest.approx(3.5)

    def test_explicit_root_choice(self, small_grid_graph):
        result = compute_mst(small_grid_graph, root=10)
        verify_mst_result(small_grid_graph, result)
        assert result.details["bfs_root"] == 10

    def test_forced_base_forest_parameter(self, small_random_graph):
        result = compute_mst(small_random_graph, RunConfig(base_forest_k=3))
        verify_mst_result(small_random_graph, result)
        assert result.details["k"] == 3

    def test_deterministic_across_runs(self, small_random_graph):
        first = compute_mst(small_random_graph)
        second = compute_mst(small_random_graph)
        assert first.edges == second.edges
        assert first.rounds == second.rounds
        assert first.messages == second.messages

    def test_rejects_duplicate_weights(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1.0)
        graph.add_edge(1, 2, weight=1.0)
        from repro.exceptions import WeightError

        with pytest.raises(WeightError):
            compute_mst(graph)


class TestComplexityAndTelemetry:
    @pytest.mark.parametrize("name,builder", GRAPH_CASES)
    def test_theorem_bounds_hold(self, name, builder):
        graph = builder()
        result = compute_mst(graph)
        assert_elkin_bounds(result)

    def test_strict_bounds_config_runs_the_check(self, small_random_graph):
        result = compute_mst(small_random_graph, RunConfig(strict_bounds=True))
        assert result.edge_count == small_random_graph.number_of_nodes() - 1

    def test_fragment_count_halves_every_boruvka_phase(self, medium_random_graph):
        result = compute_mst(medium_random_graph)
        for phase in result.phases:
            assert phase.fragments_after <= (phase.fragments_before + 1) // 2

    def test_boruvka_phase_count_is_logarithmic(self, medium_random_graph):
        result = compute_mst(medium_random_graph)
        base_fragments = result.details["base_fragment_count"]
        assert result.details["boruvka_phase_count"] <= max(1, base_fragments).bit_length()

    def test_stage_costs_sum_to_total(self, small_random_graph):
        result = compute_mst(small_random_graph)
        stage_rounds = sum(cost["rounds"] for cost in result.details["stage_costs"].values())
        stage_messages = sum(cost["messages"] for cost in result.details["stage_costs"].values())
        assert stage_rounds == result.rounds
        assert stage_messages == result.messages

    def test_telemetry_can_be_disabled(self, small_random_graph):
        result = compute_mst(small_random_graph, RunConfig(collect_telemetry=False))
        assert result.phases == []

    def test_base_forest_statistics_recorded(self, small_path_graph):
        result = compute_mst(small_path_graph)
        assert result.details["base_fragment_count"] >= 1
        assert result.details["base_max_diameter"] >= 0
        assert result.details["k"] >= 1

    def test_bandwidth_reduces_rounds_on_low_diameter_graphs(self):
        graph = random_connected_graph(120, seed=41)
        slow = compute_mst(graph, RunConfig(bandwidth=1))
        fast = compute_mst(graph, RunConfig(bandwidth=8))
        assert fast.rounds <= slow.rounds
        assert fast.edges == slow.edges


class TestParameterChoice:
    def test_low_diameter_regime_uses_sqrt(self):
        assert choose_base_forest_parameter(100, diameter_estimate=5) == 10

    def test_high_diameter_regime_uses_diameter(self):
        assert choose_base_forest_parameter(100, diameter_estimate=60) == 60

    def test_bandwidth_shrinks_the_sqrt_term(self):
        assert choose_base_forest_parameter(100, diameter_estimate=2, bandwidth=4) == 5

    def test_lower_bound_of_one(self):
        assert choose_base_forest_parameter(1, diameter_estimate=0) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            choose_base_forest_parameter(0, 1)
        with pytest.raises(ConfigurationError):
            choose_base_forest_parameter(10, -1)
        with pytest.raises(ConfigurationError):
            choose_base_forest_parameter(10, 1, bandwidth=0)

    def test_phase_count(self):
        assert controlled_ghs_phase_count(1) == 0
        assert controlled_ghs_phase_count(2) == 1
        assert controlled_ghs_phase_count(8) == 3
        assert controlled_ghs_phase_count(9) == 4
        with pytest.raises(ConfigurationError):
            controlled_ghs_phase_count(0)


class TestMWOEHelpers:
    def test_minimum_candidate_handles_none(self):
        a = (1.0, 0, 1, 5)
        assert minimum_candidate(None, a) == a
        assert minimum_candidate(a, None) == a
        assert minimum_candidate(None, None) is None

    def test_minimum_candidate_orders_by_weight(self):
        light = (1.0, 9, 8, 5)
        heavy = (2.0, 0, 1, 5)
        assert minimum_candidate(light, heavy) == light

    def test_candidate_edge_is_canonical(self):
        assert candidate_edge((1.0, 7, 3, 5)) == (3, 7)


class TestFragmentGraphMerge:
    def test_simple_merge(self):
        mwoe = {1: (1.0, 10, 20, 2), 2: (1.0, 20, 10, 1), 3: (2.0, 30, 11, 1)}
        merge = merge_fragment_graph(mwoe, {1, 2, 3})
        assert merge.mst_edges_added == {(10, 20), (11, 30)}
        assert set(merge.new_fragment_of.values()) == {1}

    def test_partial_merge_keeps_untouched_fragments(self):
        mwoe = {1: (1.0, 10, 20, 2)}
        merge = merge_fragment_graph(mwoe, {1, 2, 3})
        assert merge.new_fragment_of[3] == 3
        assert len(set(merge.new_fragment_of.values())) == 2

    def test_rejects_unknown_fragments(self):
        with pytest.raises(FragmentError):
            merge_fragment_graph({9: (1.0, 0, 1, 2)}, {1, 2})
        with pytest.raises(FragmentError):
            merge_fragment_graph({1: (1.0, 0, 1, 9)}, {1, 2})

    def test_rejects_self_loop(self):
        with pytest.raises(FragmentError):
            merge_fragment_graph({1: (1.0, 0, 1, 1)}, {1, 2})
