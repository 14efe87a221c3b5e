"""Tests for the verification layer and the analysis utilities."""

from __future__ import annotations

import dataclasses
import multiprocessing

import networkx as nx
import pytest

from repro import RunConfig
from repro.algorithms import algorithm_info, available_algorithms
from repro.analysis.bounds import (
    controlled_ghs_message_bound,
    controlled_ghs_time_bound,
    elkin_bounds,
    elkin_message_bound_formula,
    elkin_time_bound_formula,
    gkp_message_bound,
    log2_ceil,
    log_star,
)
from repro.analysis.experiments import run_single
from repro.analysis.fitting import fit_power_law
from repro.analysis.tables import format_table
from repro.api import Runner, Scenario
from repro.baselines.kruskal import kruskal_mst
from repro.campaign import Campaign, execute_campaign, graph_spec_for
from repro.core.elkin_mst import compute_mst
from repro.core.fragments import MSTForest
from repro.exceptions import ConfigurationError, ReproError, VerificationError
from repro.graphs import GraphSpec, make_graph, random_connected_graph
from repro.verify.complexity_checks import assert_elkin_bounds
from repro.verify.forest_checks import assert_alpha_beta_forest, assert_forest_coarsens
from repro.verify.mst_checks import MSTOracle, reference_mst, verify_mst_result
from repro.verify.planted_checks import planted_mst_edges


class TestMSTChecks:
    def test_reference_mst_matches_kruskal(self, small_random_graph):
        edges = reference_mst(small_random_graph)
        assert len(edges) == small_random_graph.number_of_nodes() - 1

    def test_verify_mst_result_detects_wrong_edge_count(self, small_random_graph):
        result = compute_mst(small_random_graph)
        short = dataclasses.replace(result, edges=set(sorted(result.edges)[:-1]))
        with pytest.raises(VerificationError, match="MST mismatch"):
            verify_mst_result(small_random_graph, short)

    def test_verify_mst_result_detects_foreign_edge(self, small_path_graph):
        result = compute_mst(small_path_graph)
        edges = set(result.edges)
        edges.discard((0, 1))
        edges.add((0, 29))  # not a graph edge on a path
        foreign = dataclasses.replace(result, edges=edges)
        with pytest.raises(VerificationError, match="MST mismatch"):
            verify_mst_result(small_path_graph, foreign)

    def test_verify_mst_result_detects_swapped_edge(self, small_random_graph):
        result = compute_mst(small_random_graph)
        non_tree = [
            edge
            for edge in (tuple(sorted(e)) for e in small_random_graph.edges())
            if edge not in result.edges
        ]
        wrong = set(result.edges)
        wrong.discard(min(wrong))
        wrong.add(non_tree[0])
        swapped = dataclasses.replace(result, edges=wrong)
        with pytest.raises(VerificationError, match="MST mismatch"):
            verify_mst_result(small_random_graph, swapped)

    def test_verify_mst_result_detects_wrong_weight(self, small_random_graph):
        result = compute_mst(small_random_graph)
        broken = dataclasses.replace(result, total_weight=result.total_weight + 10.0)
        with pytest.raises(VerificationError, match="weight"):
            verify_mst_result(small_random_graph, broken)

    def test_verify_mst_result_accepts_correct_run(self, small_random_graph):
        verify_mst_result(small_random_graph, compute_mst(small_random_graph))


def _swapped_planted_graph():
    """A planted graph whose recorded tree is another spanning tree.

    One non-tree edge replaces a planted edge on the cycle it closes, so
    the recorded tree stays well-formed (n - 1 graph edges, spanning)
    but is no longer the MST.
    """
    graph = make_graph("planted_fragments", n=32, seed=3)
    planted = planted_mst_edges(graph)
    u, v = next(
        edge for edge in sorted(tuple(sorted(e)) for e in graph.edges()) if edge not in planted
    )
    cycle = nx.shortest_path(nx.Graph(sorted(planted)), u, v)
    planted.discard(tuple(sorted(cycle[:2])))
    planted.add((u, v))
    graph.graph["planted_mst"] = [list(edge) for edge in sorted(planted)]
    return graph


class TestOneVerifier:
    """Every path verifies through MSTOracle, planted tree included."""

    def test_swapped_planted_tree_fails_every_verifier(self):
        graph = _swapped_planted_graph()
        result = run_single(graph, "elkin", verify=False)
        for check in (
            lambda: MSTOracle(graph),
            lambda: verify_mst_result(graph, result),
            lambda: run_single(graph, "elkin"),
        ):
            with pytest.raises(VerificationError, match="internal oracle disagreement"):
                check()

    @pytest.mark.parametrize(
        "mode",
        [{"batch": True}, {"batch": False}, {"jobs": 2}],
        ids=["batched", "per-cell", "jobs-2"],
    )
    def test_corrupted_reference_fails_the_sweep(self, monkeypatch, mode):
        if "jobs" in mode and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("scheduler workers inherit the patched reference through fork")
        monkeypatch.setattr(
            "repro.verify.mst_checks.kruskal_mst", lambda graph: set(sorted(kruskal_mst(graph))[1:])
        )
        campaign = Campaign.from_grid(
            "corrupt-reference",
            [graph_spec_for("random_connected", 16)],
            algorithms=("elkin", "kruskal"),
            seeds=(0, 1),
        )
        with pytest.raises(VerificationError, match="internal oracle disagreement"):
            execute_campaign(campaign, **mode)


class TestForestChecks:
    def test_alpha_beta_rejects_too_many_fragments(self, small_random_graph):
        forest = MSTForest.singletons(small_random_graph.nodes())
        with pytest.raises(VerificationError, match="fragments"):
            assert_alpha_beta_forest(small_random_graph, forest, k=40)

    def test_alpha_beta_accepts_singletons_for_k_one(self, small_random_graph):
        forest = MSTForest.singletons(small_random_graph.nodes())
        assert_alpha_beta_forest(small_random_graph, forest, k=1)

    def test_rejects_non_mst_fragment_edges(self, small_random_graph):
        correct = reference_mst(small_random_graph)
        non_tree = next(
            edge
            for edge in (tuple(sorted(e)) for e in small_random_graph.edges())
            if edge not in correct
        )
        from repro.core.fragments import Fragment

        fragments = {
            vertex: Fragment.singleton(vertex)
            for vertex in small_random_graph.nodes()
            if vertex not in non_tree
        }
        merged = Fragment.from_edges(non_tree[0], [non_tree])
        fragments[merged.fragment_id] = merged
        forest = MSTForest(fragments=fragments)
        with pytest.raises(VerificationError, match="non-MST"):
            assert_alpha_beta_forest(small_random_graph, forest, k=2)

    def test_coarsening_check(self):
        fine = MSTForest.singletons(range(4))
        coarse = fine.merge_groups([([0, 1], [(0, 1)], 0)])
        assert_forest_coarsens(coarse, fine)
        with pytest.raises(VerificationError):
            assert_forest_coarsens(fine, coarse)


class TestComplexityChecks:
    def test_bounds_accept_real_runs(self, small_random_graph, small_path_graph):
        for graph in (small_random_graph, small_path_graph):
            assert_elkin_bounds(compute_mst(graph))

    def test_bounds_reject_inflated_costs(self, small_random_graph):
        result = compute_mst(small_random_graph)
        from repro.types import CostReport

        inflated = dataclasses.replace(
            result, cost=CostReport(rounds=result.rounds * 1000, messages=result.messages)
        )
        with pytest.raises(VerificationError, match="round count"):
            assert_elkin_bounds(inflated)
        inflated = dataclasses.replace(
            result, cost=CostReport(rounds=result.rounds, messages=result.messages * 1000)
        )
        with pytest.raises(VerificationError, match="message count"):
            assert_elkin_bounds(inflated)

    def test_bound_helpers_return_positive_values(self, small_random_graph):
        result = compute_mst(small_random_graph)
        round_bound, message_bound = elkin_bounds(
            result.n, result.m, result.bandwidth, bfs_depth=result.details["bfs_depth"]
        )
        assert round_bound > 0
        assert message_bound > 0

    def test_strict_mode_rejects_a_run_over_its_rows_round_bound(self):
        graph = random_connected_graph(30, seed=1)
        [outcome] = Runner().run_many([Scenario(graph=graph)])
        row, result = outcome.row, outcome.result
        assert (row["D"], result.details["bfs_depth"], row["round_bound"]) == (4, 3, 649)
        inflated = dataclasses.replace(
            result, cost=dataclasses.replace(result.cost, rounds=650)
        )
        # 650 rounds is over the row's bound, so its round_ratio would
        # exceed 1; strict mode must refuse the run too, whether it
        # evaluates the bound on the BFS depth or on D.
        with pytest.raises(VerificationError, match="round count 650"):
            assert_elkin_bounds(inflated)
        with pytest.raises(VerificationError, match="round count 650"):
            assert_elkin_bounds(inflated, diameter=row["D"])

    @pytest.mark.parametrize("preset", ["zoo", "zoo-faulty"])
    def test_strict_mode_applies_exactly_the_rows_bounds(self, preset, monkeypatch):
        from repro.campaign.presets import preset_campaign
        from repro.verify import complexity_checks

        report = execute_campaign(preset_campaign(preset))
        applied = []

        def recording(*args, **kwargs):
            applied.append(elkin_bounds(*args, **kwargs))
            return applied[-1]

        monkeypatch.setattr(complexity_checks, "elkin_bounds", recording)
        audited = 0
        for spec, row in zip(report.campaign.specs, report.rows):
            if row["algorithm"] != "elkin" or row.get("status") == "non-terminated":
                continue
            result = report.store.get_result(spec.run_key())
            assert_elkin_bounds(result, diameter=row["D"], condition=spec.condition)
            round_bound, message_bound = applied.pop()
            # Before rounding: the bounds strict mode applied are the
            # row's formula on D under the cell's condition ...
            assert (round_bound, message_bound) == elkin_bounds(
                row["n"], row["m"], row["bandwidth"], diameter=row["D"],
                condition=spec.condition,
            )
            # ... and they round to exactly the recorded columns.
            assert round(round_bound) == row["round_bound"]
            assert round(result.rounds / round_bound, 3) == row["round_ratio"]
            assert round(message_bound) == row["message_bound"]
            assert round(result.messages / message_bound, 3) == row["message_ratio"]
            audited += 1
        assert audited > 0 and not applied


class TestBoundFormulas:
    def test_log_helpers(self):
        assert log2_ceil(1) == 1
        assert log2_ceil(8) == 3
        assert log2_ceil(9) == 4
        assert log_star(2) == 1
        # Convention: iterations of log2 until the value drops to <= 2.
        assert log_star(16) == 2
        assert log_star(65536) == 3

    def test_bounds_are_monotone_in_n(self):
        assert elkin_time_bound_formula(400, 10) > elkin_time_bound_formula(100, 10)
        assert elkin_message_bound_formula(400, 1200) > elkin_message_bound_formula(100, 300)
        assert controlled_ghs_time_bound(100, 16) > controlled_ghs_time_bound(100, 4)
        assert controlled_ghs_message_bound(100, 500, 16) > controlled_ghs_message_bound(100, 500, 4)
        assert gkp_message_bound(400, 1200) > gkp_message_bound(100, 300)

    def test_bandwidth_reduces_the_time_bound(self):
        assert elkin_time_bound_formula(400, 5, bandwidth=16) < elkin_time_bound_formula(400, 5)


class TestFitting:
    def test_fit_recovers_known_exponent(self):
        xs = [10, 20, 40, 80, 160]
        ys = [3 * x**1.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(1.5, abs=0.01)
        assert fit.scale == pytest.approx(3.0, rel=0.05)

    def test_fit_rejects_bad_input(self):
        with pytest.raises(ReproError):
            fit_power_law([1, 2], [1])
        with pytest.raises(ReproError):
            fit_power_law([1], [1])
        with pytest.raises(ReproError):
            fit_power_law([1, -2], [1, 2])

    def test_least_squares_rejects_vertical_and_matches_lstsq(self):
        # Every x equal: there is no slope to fit.
        with pytest.raises(ReproError, match="two distinct x values"):
            fit_power_law([2, 2, 2], [1, 2, 3])
        np = pytest.importorskip("numpy")
        xs, ys = [10, 20, 40, 80, 160], [31.0, 90.0, 240.0, 800.0, 2100.0]
        fit = fit_power_law(xs, ys)
        # The closed form is the least-squares solution numpy computes.
        log_x, log_y = np.log(xs), np.log(ys)
        design = np.vstack([log_x, np.ones_like(log_x)]).T
        (slope, intercept), residuals, _, _ = np.linalg.lstsq(design, log_y, rcond=None)
        assert fit.exponent == pytest.approx(slope, rel=1e-9)
        assert fit.scale == pytest.approx(np.exp(intercept), rel=1e-9)
        assert fit.residual == pytest.approx(residuals[0] / len(xs), rel=1e-9)


class TestTables:
    def test_format_table_alignment_and_missing_values(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]
        assert "-" in lines[3]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_float_rendering(self):
        text = format_table([{"value": 12345.678}, {"value": 0.5}])
        assert "1.23e+04" in text
        assert "0.5" in text


def _rows(scenarios):
    return [outcome.row for outcome in Runner().run_many(scenarios)]


class TestExperimentRunners:
    def test_available_algorithms(self):
        distributed = {
            name for name in available_algorithms() if algorithm_info(name).is_distributed
        }
        assert distributed == {"elkin", "ghs", "gkp", "prs"}
        # The sequential references are registered too (via the adapter).
        assert {"kruskal", "prim", "boruvka_seq"} <= set(available_algorithms())

    def test_run_single_unknown_algorithm(self, small_random_graph):
        with pytest.raises(ConfigurationError):
            run_single(small_random_graph, algorithm="bogus")

    def test_sweep_graphs_produces_bound_ratios(self):
        specs = [GraphSpec("random_connected", {"n": 30, "seed": 1})]
        rows = _rows([Scenario(graph=spec, algorithm="elkin") for spec in specs])
        assert len(rows) == 1
        assert rows[0]["round_ratio"] <= 1.0
        assert rows[0]["message_ratio"] <= 1.0

    def test_compare_algorithms_rows(self, small_random_graph):
        rows = _rows(
            [
                Scenario(graph=small_random_graph, algorithm=name, label="t")
                for name in ("elkin", "ghs")
            ]
        )
        assert [row["algorithm"] for row in rows] == ["elkin", "ghs"]
        assert rows[0]["weight"] == rows[1]["weight"]

    def test_sweep_bandwidth_rows(self):
        graph = random_connected_graph(40, seed=2)
        rows = _rows(
            [
                Scenario(graph=graph, config=RunConfig(bandwidth=b), label="bw")
                for b in (1, 4)
            ]
        )
        assert [row["bandwidth"] for row in rows] == [1, 4]
        assert rows[1]["rounds"] <= rows[0]["rounds"]
