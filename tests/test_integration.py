"""Integration tests: whole-pipeline scenarios across several modules.

These tests exercise the same paths as the benchmark experiments (E1-E10)
on small instances, so a regression that would invalidate the
reproduction is caught by ``pytest`` long before the benchmarks run.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.bounds import elkin_message_bound_formula, elkin_time_bound_formula
from repro.analysis.experiments import run_single
from repro.api import Runner, Scenario
from repro.baselines import gkp_mst, prs_style_mst
from repro.config import RunConfig
from repro.core.controlled_ghs import build_base_forest
from repro.core.elkin_mst import compute_mst
from repro.graphs import (
    graph_summary,
    grid_graph,
    lollipop_graph,
    path_graph,
    random_connected_graph,
)
from repro.simulator.network import SyncNetwork
from repro.verify.complexity_checks import assert_controlled_ghs_bounds
from repro.verify.forest_checks import assert_alpha_beta_forest
from repro.verify.mst_checks import verify_mst_result


class TestExperimentE1E2ControlledGHS:
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_forest_and_cost_guarantees_together(self, k):
        graph = random_connected_graph(90, seed=71)
        network = SyncNetwork(graph)
        result = build_base_forest(network, k)
        assert_alpha_beta_forest(graph, result.forest, k)
        assert_controlled_ghs_bounds(
            result, graph.number_of_nodes(), graph.number_of_edges()
        )


class TestExperimentE3E4LowDiameter:
    def test_rounds_and_messages_scale_within_bounds(self):
        for n in (40, 80, 120):
            graph = random_connected_graph(n, seed=100 + n)
            summary = graph_summary(graph)
            result = compute_mst(graph)
            verify_mst_result(graph, result)
            assert result.rounds <= elkin_time_bound_formula(n, summary.hop_diameter)
            assert result.messages <= elkin_message_bound_formula(n, summary.m)


class TestExperimentE5LargeDiameter:
    def test_path_and_grid_use_the_k_equals_d_regime(self):
        path = path_graph(90, seed=73)
        result = compute_mst(path)
        verify_mst_result(path, result)
        # BFS depth estimate >= sqrt(n), so the algorithm must have picked k >= sqrt(n).
        assert result.details["k"] >= math.isqrt(90)

        grid = grid_graph(4, 25, seed=74)
        result = compute_mst(grid)
        verify_mst_result(grid, result)


class TestExperimentE6Bandwidth:
    def test_bandwidth_round_bounds_and_overall_gain(self):
        graph = random_connected_graph(100, seed=75)
        summary = graph_summary(graph)
        scenarios = [
            Scenario(graph=graph, config=RunConfig(bandwidth=b), label="e6")
            for b in (1, 2, 4, 8)
        ]
        rows = [outcome.row for outcome in Runner().run_many(scenarios)]
        for row in rows:
            # Theorem 3.2: O((D + sqrt(n/b)) log n) rounds for every b.
            bound = elkin_time_bound_formula(
                summary.n, summary.hop_diameter, bandwidth=int(row["bandwidth"])
            )
            assert row["rounds"] <= bound
        # The largest bandwidth must not be slower than the standard model
        # (individual adjacent steps need not be monotone because the
        # parameter k changes discretely with b).
        assert rows[-1]["rounds"] <= rows[0]["rounds"]
        messages = [row["messages"] for row in rows]
        # Message complexity obeys the same O(m log n + n log n log* n)
        # bound for every b (Theorem 3.2); measured values move a little
        # because the base-forest parameter k changes discretely with b.
        assert max(messages) <= 1.6 * min(messages)
        for row in rows:
            assert row["messages"] <= elkin_message_bound_formula(summary.n, summary.m)


class TestExperimentE7E8E9Baselines:
    def test_three_way_comparison_on_one_instance(self):
        graph = random_connected_graph(60, seed=76)
        scenarios = [
            Scenario(graph=graph, algorithm=name, label="e7") for name in ("elkin", "ghs", "gkp")
        ]
        rows = [outcome.row for outcome in Runner().run_many(scenarios)]
        weights = {row["weight"] for row in rows}
        assert len(weights) == 1

    def test_prs_versus_elkin_second_phase_messages_on_high_diameter(self):
        graph = lollipop_graph(10, 120, seed=77)
        elkin = compute_mst(graph)
        prs = prs_style_mst(graph)
        verify_mst_result(graph, elkin)
        verify_mst_result(graph, prs)
        # The paper's argument is about the second phase: a sqrt(n) base
        # forest costs Theta(D sqrt(n)) messages there, k = D costs O(n).
        prs_stage = prs.details["stage_costs"]["boruvka"]["messages"]
        elkin_stage = elkin.details["stage_costs"]["boruvka"]["messages"]
        assert prs_stage > elkin_stage

    def test_gkp_pipeline_messages_grow_faster_than_elkin(self):
        small_n, large_n = 60, 200
        ratios = {}
        for n in (small_n, large_n):
            graph = random_connected_graph(n, extra_edges=n, seed=78)
            gkp = gkp_mst(graph)
            elkin = compute_mst(graph)
            ratios[n] = gkp.messages / elkin.messages
        # GKP's ~ n^{3/2} pipeline term grows faster than Elkin's ~ m log n.
        assert ratios[large_n] > 0.8 * ratios[small_n]


class TestExperimentE10PhaseDecomposition:
    def test_per_phase_telemetry_matches_equation_1(self):
        graph = random_connected_graph(120, seed=79)
        result = compute_mst(graph)
        k = result.details["k"]
        depth = result.details["bfs_depth"]
        n = graph.number_of_nodes()
        for phase in result.phases:
            assert phase.fragments_after <= (phase.fragments_before + 1) // 2
            # Equation (1): each phase costs O(D + k + n/k) rounds.
            assert phase.rounds <= 40 * (depth + k + n / k) + 40

    def test_run_single_is_consistent_with_direct_calls(self):
        graph = random_connected_graph(50, seed=80)
        via_runner = run_single(graph, algorithm="elkin")
        direct = compute_mst(graph, RunConfig())
        assert via_runner.edges == direct.edges
        assert via_runner.rounds == direct.rounds
