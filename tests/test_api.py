"""Tests for the scenario-first facade (:mod:`repro.api`).

Covers scenario normalization and validation, the content-hash
identity, the Runner execution paths (run / run_many / stream, resume,
parallel equality), the lifecycle-hook protocol, the registry's
capability metadata, and the headline acceptance guarantee: the facade
and the legacy ``run_single`` produce byte-identical result JSON for
every registered algorithm on every engine.
"""

from __future__ import annotations

import gc
import io
import json
import warnings

import networkx as nx
import pytest

from repro import GraphSpec, RunConfig
from repro.algorithms import algorithm_info, available_algorithms
from repro.analysis.experiments import run_single
from repro.api import (
    ProgressReporter,
    Runner,
    Scenario,
    TelemetryCollector,
)
from repro.campaign.store import RunStore
from repro.exceptions import ConfigurationError, DisconnectedGraphError
from repro.graphs.generators import random_connected_graph
from repro.simulator.engine import available_engines


def _result_json(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


class TestScenarioNormalization:
    def test_graph_spec_source_passes_through(self):
        spec = GraphSpec("random_connected", {"n": 20, "seed": 1})
        scenario = Scenario(graph=spec)
        assert scenario.graph is spec
        assert scenario.config == RunConfig()

    def test_prebuilt_graph_becomes_edge_list_spec(self):
        graph = random_connected_graph(12, seed=2)
        scenario = Scenario(graph=graph)
        assert scenario.graph.family == "edge_list"
        rebuilt = scenario.build_graph()
        assert rebuilt.number_of_nodes() == 12
        assert {tuple(sorted(e)) for e in rebuilt.edges()} == {
            tuple(sorted(e)) for e in graph.edges()
        }

    def test_edge_list_source(self):
        scenario = Scenario(graph=[(0, 1, 1.5), (1, 2, 2.5)])
        assert scenario.graph.family == "edge_list"
        assert scenario.build_graph().number_of_edges() == 2

    def test_label_not_part_of_identity(self):
        spec = GraphSpec("path", {"n": 10, "seed": 0})
        assert Scenario(graph=spec).key() == Scenario(graph=spec, label="pretty").key()

    def test_key_matches_campaign_run_key(self):
        scenario = Scenario(
            graph=GraphSpec("path", {"n": 10, "seed": 0}),
            algorithm="ghs",
            config=RunConfig(bandwidth=2, engine="fast", seed=4),
        )
        assert scenario.key() == scenario.to_run_spec().run_key()

    def test_json_round_trip(self):
        scenario = Scenario(
            graph=GraphSpec("grid", {"rows": 3, "cols": 3, "seed": 0}),
            algorithm="gkp",
            config=RunConfig(bandwidth=4, engine="fast"),
            verify=False,
        )
        clone = Scenario.from_json_dict(json.loads(json.dumps(scenario.to_json_dict())))
        assert clone.key() == scenario.key()
        assert clone.verify is False

    def test_with_config_changes_identity(self):
        base = Scenario(graph=GraphSpec("path", {"n": 10, "seed": 0}))
        widened = base.with_config(bandwidth=4)
        assert widened.config.bandwidth == 4
        assert widened.key() != base.key()

    def test_config_is_copied_so_later_mutation_cannot_change_the_key(self):
        config = RunConfig()
        scenario = Scenario(graph=GraphSpec("path", {"n": 10, "seed": 0}), config=config)
        key = scenario.key()
        config.bandwidth = 8
        config.engine = "bogus"
        assert scenario.key() == key
        assert scenario.config.bandwidth == 1

    def test_truthy_verify_values_are_coerced_to_bool(self):
        scenario = Scenario(graph=GraphSpec("path", {"n": 8, "seed": 0}), verify=1)
        assert scenario.verify is True
        outcome = Runner().run(scenario)
        assert outcome.row["n"] == 8


class TestScenarioValidation:
    def test_rejects_disconnected_graph(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1.0)
        graph.add_edge(2, 3, weight=2.0)
        with pytest.raises(DisconnectedGraphError, match="2 components"):
            Scenario(graph=graph)

    def test_rejects_bandwidth_below_one(self):
        config = RunConfig()
        config.bandwidth = 0  # mutate past construction-time validation
        with pytest.raises(ConfigurationError, match="bandwidth must be >= 1"):
            Scenario(graph=GraphSpec("path", {"n": 5, "seed": 0}), config=config)

    def test_rejects_unknown_algorithm_listing_options(self):
        with pytest.raises(ConfigurationError, match="elkin"):
            Scenario(graph=GraphSpec("path", {"n": 5, "seed": 0}), algorithm="dijkstra")

    def test_rejects_unknown_engine_listing_options(self):
        with pytest.raises(ConfigurationError, match="reference"):
            Scenario(
                graph=GraphSpec("path", {"n": 5, "seed": 0}),
                config=RunConfig(engine="warp"),
            )

    def test_rejects_unknown_family_listing_options(self):
        with pytest.raises(ConfigurationError, match="random_connected"):
            Scenario(graph=GraphSpec("moebius", {"n": 5}))

    def test_rejects_seed_on_prebuilt_graph(self):
        graph = random_connected_graph(8, seed=1)
        with pytest.raises(ConfigurationError, match="seed"):
            Scenario(graph=graph, config=RunConfig(seed=3))

    def test_rejects_empty_edge_list(self):
        with pytest.raises(ConfigurationError, match="empty"):
            Scenario(graph=[])

    def test_rejects_string_graph_source(self):
        with pytest.raises(ConfigurationError, match="GraphSpec"):
            Scenario(graph="random_connected")


class TestRunner:
    def test_run_produces_row_and_result(self):
        outcome = Runner().run(
            Scenario(graph=GraphSpec("random_connected", {"n": 20, "seed": 0}))
        )
        assert outcome.row["algorithm"] == "elkin"
        assert outcome.result.rounds > 0
        assert outcome.reused is False

    def test_resume_answers_from_store(self, tmp_path):
        scenario = Scenario(graph=GraphSpec("random_connected", {"n": 20, "seed": 0}))
        with Runner(store=str(tmp_path / "runs.jsonl")) as runner:
            first = runner.run(scenario)
        with RunStore(tmp_path / "runs.jsonl") as store:
            again = Runner(store=store).run(scenario)
        assert again.reused is True
        assert _result_json(again.result) == _result_json(first.result)

    def test_close_releases_the_store_it_opened_and_no_other(self, tmp_path, monkeypatch):
        scenario = Scenario(graph=GraphSpec("path", {"n": 8, "seed": 0}))
        passed = RunStore(tmp_path / "passed.jsonl")
        closed = []
        monkeypatch.setattr(passed, "close", lambda: closed.append(passed))
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with Runner(store=str(tmp_path / "owned.jsonl")) as runner:
                runner.run(scenario)
            with Runner(store=passed) as runner:
                runner.run(scenario)
            del runner
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert [w for w in leaked if str(tmp_path) in str(w.message)] == []
        assert closed == []
        RunStore.close(passed)

    def test_run_many_mixed_verify_preserves_order(self):
        scenarios = [
            Scenario(graph=GraphSpec("path", {"n": 8, "seed": 0}), verify=True),
            Scenario(graph=GraphSpec("path", {"n": 9, "seed": 0}), verify=False),
            Scenario(graph=GraphSpec("path", {"n": 10, "seed": 0}), verify=True),
        ]
        outcomes = Runner().run_many(scenarios)
        assert [o.row["n"] for o in outcomes] == [8, 9, 10]

    def test_run_many_parallel_matches_serial(self):
        scenarios = [
            Scenario(graph=GraphSpec("random_connected", {"n": 18, "seed": seed}))
            for seed in range(4)
        ]
        serial = Runner().run_many(scenarios)
        parallel = Runner().run_many(scenarios, jobs=2)
        assert [o.row for o in serial] == [o.row for o in parallel]

    def test_run_many_rejects_non_scenarios(self):
        with pytest.raises(ConfigurationError, match="Scenario"):
            Runner().run_many([{"graph": "nope"}])

    def test_stream_yields_lazily_and_shares_store(self):
        scenario = Scenario(graph=GraphSpec("random_connected", {"n": 16, "seed": 1}))
        runner = Runner()
        outcomes = list(runner.stream([scenario, scenario]))
        assert [o.reused for o in outcomes] == [False, True]

    def test_strict_bounds_and_telemetry_thread_through(self):
        scenario = Scenario(
            graph=GraphSpec("random_connected", {"n": 20, "seed": 0}),
            config=RunConfig(collect_telemetry=False),
        )
        outcome = Runner().run(scenario)
        assert outcome.result.phases == []
        # Non-default switches give a distinct identity...
        default = Scenario(graph=GraphSpec("random_connected", {"n": 20, "seed": 0}))
        assert scenario.key() != default.key()
        # ... while the default combination hashes as it always did.
        assert "collect_telemetry" not in default.to_run_spec()._identity()


class TestLifecycleHooks:
    def test_progress_and_telemetry_hooks_fire(self):
        stream = io.StringIO()
        progress = ProgressReporter(stream=stream, phases=True)
        telemetry = TelemetryCollector()
        runner = Runner(hooks=[progress, telemetry])
        runner.run_many(
            [
                Scenario(graph=GraphSpec("random_connected", {"n": 18, "seed": 0})),
                Scenario(
                    graph=GraphSpec("random_connected", {"n": 18, "seed": 0}),
                    algorithm="ghs",
                ),
            ]
        )
        assert progress.started == 2
        assert progress.finished == 2
        text = stream.getvalue()
        assert "run elkin" in text and "run ghs" in text
        assert len(telemetry.run_rows) == 2
        assert any(row["algorithm"] == "ghs" for row in telemetry.phase_rows)
        assert all("fragments_before" in row for row in telemetry.phase_rows)

    def test_resumed_cells_fire_no_events(self):
        scenario = Scenario(graph=GraphSpec("random_connected", {"n": 16, "seed": 2}))
        progress = ProgressReporter(stream=io.StringIO())
        runner = Runner(hooks=[progress])
        runner.run(scenario)
        runner.run(scenario)  # resumed
        assert progress.started == 1

    def test_partial_observers_are_legal(self):
        class OnlyResult:
            def __init__(self):
                self.seen = []

            def on_result(self, spec, result, row):
                self.seen.append(result.algorithm)

        observer = OnlyResult()
        Runner(hooks=[observer]).run(
            Scenario(graph=GraphSpec("path", {"n": 8, "seed": 0}))
        )
        assert observer.seen == ["elkin"]


class TestRegistryCapabilities:
    def test_sequential_baselines_registered(self):
        for name in ("kruskal", "prim", "boruvka_seq"):
            info = algorithm_info(name)
            assert info.is_distributed is False
            assert info.supports_bandwidth is False
            assert info.family == "sequential-baseline"

    def test_sequential_rows_report_zero_costs(self):
        graph = random_connected_graph(15, seed=4)
        scenarios = [
            Scenario(graph=graph, algorithm=name) for name in ("elkin", "kruskal", "prim")
        ]
        rows = [outcome.row for outcome in Runner().run_many(scenarios)]
        by_algorithm = {row["algorithm"]: row for row in rows}
        assert by_algorithm["kruskal"]["rounds"] == 0
        assert by_algorithm["kruskal"]["messages"] == 0
        assert by_algorithm["prim"]["rounds"] == 0
        assert by_algorithm["elkin"]["rounds"] > 0
        # All three agree on the tree weight, so the baselines verify too.
        weights = {row["weight"] for row in rows}
        assert len(weights) == 1


class TestFacadeEquivalence:
    """Acceptance: facade and legacy runner agree byte for byte."""

    @pytest.mark.parametrize("engine", sorted(available_engines()))
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_byte_identical_result_json(self, algorithm, engine):
        graph = random_connected_graph(16, seed=9)
        legacy = run_single(graph, algorithm=algorithm, bandwidth=2, engine=engine)
        outcome = Runner().run(
            Scenario(
                graph=graph,
                algorithm=algorithm,
                config=RunConfig(bandwidth=2, engine=engine),
            )
        )
        assert _result_json(outcome.result) == _result_json(legacy)

    def test_seeded_generator_scenario_matches_run_single(self):
        spec = GraphSpec("random_connected", {"n": 20})
        scenario = Scenario(graph=spec, config=RunConfig(seed=6))
        outcome = Runner().run(scenario)
        legacy = run_single(scenario.build_graph(), seed=6)
        assert _result_json(outcome.result) == _result_json(legacy)
        assert outcome.result.details["seed"] == 6

    def test_seed_recorded_when_threaded_via_config(self):
        graph = random_connected_graph(14, seed=5)
        from repro.algorithms import run_algorithm

        result = run_algorithm(graph, "elkin", RunConfig(seed=5))
        assert result.details["seed"] == 5
