"""Tests for the campaign orchestration layer.

Covers the declarative layer (grid expansion, spec serialization and
content hashing), the execution layer (serial-versus-parallel row
equality), the persistence layer (JSONL round-trip, resume semantics,
the graph-description cache) and the satellite guarantees: result
round-tripping and config threading through ``run_single``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import run_single
from repro.campaign import (
    available_presets,
    Campaign,
    execute_campaign,
    preset_campaign,
    RunSpec,
    RunStore,
)
from repro.campaign.spec import graph_spec_for, inline_graph_spec
from repro.core.results import MSTRunResult
from repro.exceptions import ConfigurationError
from repro.graphs import GraphSpec, random_connected_graph


def _tiny_grid(cells_16: bool = True) -> Campaign:
    """A small deterministic grid; 16 cells when ``cells_16``."""
    graphs = [
        graph_spec_for("random_connected", 20),
        graph_spec_for("grid", 16),
    ]
    return Campaign.from_grid(
        "tiny",
        graphs,
        algorithms=("elkin", "ghs") if cells_16 else ("elkin",),
        bandwidths=(1, 2) if cells_16 else (1,),
        seeds=(0, 1) if cells_16 else (0,),
    )


def _execute_into(path, campaign, **kwargs):
    """``execute_campaign`` into the JSONL store at ``path``, then close it."""
    with RunStore(path) as store:
        return execute_campaign(campaign, store=store, **kwargs)


class TestRunSpec:
    def test_json_round_trip(self):
        spec = RunSpec(
            graph=GraphSpec("random_connected", {"n": 30}),
            algorithm="ghs",
            bandwidth=4,
            engine="fast",
            seed=7,
            base_forest_k=3,
            label="roundtrip",
        )
        clone = RunSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert clone == spec
        assert clone.run_key() == spec.run_key()

    def test_seed_axis_overrides_graph_seed(self):
        spec = RunSpec(graph=GraphSpec("path", {"n": 10, "seed": 0}), seed=5)
        assert spec.effective_graph_spec().params["seed"] == 5
        # ... and distinct seeds give distinct cells.
        other = RunSpec(graph=GraphSpec("path", {"n": 10, "seed": 0}), seed=6)
        assert other.run_key() != spec.run_key()

    def test_seed_axis_rejected_for_edge_list_graphs(self):
        graph = random_connected_graph(10, seed=1)
        with pytest.raises(ConfigurationError, match="seed axis"):
            RunSpec(graph=inline_graph_spec(graph), seed=3)

    def test_determinism_classification(self):
        assert RunSpec(graph=GraphSpec("path", {"n": 10, "seed": 0})).is_deterministic()
        assert RunSpec(graph=GraphSpec("path", {"n": 10}), seed=2).is_deterministic()
        assert RunSpec(
            graph=inline_graph_spec(random_connected_graph(8, seed=1))
        ).is_deterministic()
        # No pinned seed anywhere: weights (and structure) are random.
        assert not RunSpec(graph=GraphSpec("path", {"n": 10})).is_deterministic()

    def test_label_is_not_part_of_the_identity(self):
        base = RunSpec(graph=GraphSpec("path", {"n": 10}))
        relabeled = RunSpec(graph=GraphSpec("path", {"n": 10}), label="pretty")
        assert base.run_key() == relabeled.run_key()

    def test_graph_key_ignores_algorithm(self):
        a = RunSpec(graph=GraphSpec("path", {"n": 10}), algorithm="elkin")
        b = RunSpec(graph=GraphSpec("path", {"n": 10}), algorithm="ghs")
        assert a.graph_key() == b.graph_key()
        assert a.run_key() != b.run_key()

    def test_inline_spec_keeps_non_zero_indexed_labels(self):
        """Regression: 1-indexed graphs must not grow a spurious node 0."""
        import networkx as nx

        from repro.api import Runner, Scenario

        graph = nx.Graph()
        graph.add_edge(1, 2, weight=1.0)
        graph.add_edge(2, 3, weight=2.0)
        rebuilt = inline_graph_spec(graph).build()
        assert sorted(rebuilt.nodes()) == [1, 2, 3]
        outcome = Runner().run(Scenario(graph=graph, label="shifted"))
        assert outcome.row["n"] == 3

    def test_inline_spec_round_trips_the_graph(self):
        graph = random_connected_graph(18, seed=3)
        spec = inline_graph_spec(graph)
        rebuilt = spec.build()
        assert rebuilt.number_of_nodes() == graph.number_of_nodes()
        normalize = lambda edges: {tuple(sorted(edge)) for edge in edges}
        assert normalize(rebuilt.edges()) == normalize(graph.edges())
        for u, v, data in graph.edges(data=True):
            assert rebuilt[u][v]["weight"] == data["weight"]


class TestCampaignGrid:
    def test_cross_product_size_and_determinism(self):
        campaign = _tiny_grid()
        assert len(campaign) == 2 * 2 * 2 * 2
        again = _tiny_grid()
        assert campaign.run_keys() == again.run_keys()
        # All cells are distinct.
        assert len(set(campaign.run_keys())) == len(campaign)

    def test_expansion_order_is_graph_major(self):
        campaign = _tiny_grid()
        families = [spec.graph.family for spec in campaign.specs]
        assert families == ["random_connected"] * 8 + ["grid"] * 8

    def test_labels_must_match_graphs(self):
        with pytest.raises(ConfigurationError):
            Campaign.from_grid(
                "bad", [graph_spec_for("path", 8)], labels=["a", "b"]
            )

    def test_with_engine_retargets_every_cell(self):
        campaign = _tiny_grid().with_engine("fast")
        assert all(spec.engine == "fast" for spec in campaign.specs)

    def test_distinct_graph_keys_per_seed(self):
        campaign = _tiny_grid()
        # 2 graphs x 2 seeds = 4 distinct instances.
        assert len({spec.graph_key() for spec in campaign.specs}) == 4

    def test_graph_spec_for_unknown_family(self):
        with pytest.raises(ConfigurationError):
            graph_spec_for("dodecahedron", 8)

    def test_graph_spec_for_shapes_non_n_families(self):
        assert graph_spec_for("grid", 16).params == {"rows": 4, "cols": 4}
        lollipop = graph_spec_for("lollipop", 40)
        assert lollipop.params["clique_size"] >= 3


class TestPresets:
    def test_all_presets_materialize(self):
        for name in available_presets():
            campaign = preset_campaign(name)
            assert len(campaign) > 0
            assert len(set(campaign.run_keys())) == len(campaign)

    def test_smoke_preset_is_a_16_cell_grid(self):
        assert len(preset_campaign("smoke")) == 16

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            preset_campaign("e99")

    def test_engine_retarget(self):
        campaign = preset_campaign("smoke", engine="fast")
        assert all(spec.engine == "fast" for spec in campaign.specs)


class TestExecutorEquivalence:
    def test_parallel_rows_identical_to_serial(self):
        """Acceptance: --jobs 4 over a >= 16-cell grid == serial, row for row."""
        campaign = _tiny_grid()
        assert len(campaign) >= 16
        serial = execute_campaign(campaign, jobs=1)
        parallel = execute_campaign(campaign, jobs=4)
        assert serial.rows == parallel.rows
        assert serial.executed == parallel.executed == len(campaign)

    def test_rows_are_in_campaign_order(self):
        campaign = _tiny_grid()
        report = execute_campaign(campaign, jobs=2)
        expected = [
            (spec.display_label(), spec.algorithm, spec.bandwidth, spec.seed)
            for spec in campaign.specs
        ]
        observed = [
            (row["graph"], row["algorithm"], row["bandwidth"], row["seed"])
            for row in report.rows
        ]
        assert observed == expected

    def test_rows_record_provenance_columns(self):
        campaign = _tiny_grid(cells_16=False)
        report = execute_campaign(campaign, jobs=1)
        for row in report.rows:
            assert row["engine"] == "reference"
            assert row["seed"] == 0

    def test_elkin_rows_carry_bound_ratios(self):
        campaign = Campaign.from_grid(
            "bounds", [graph_spec_for("random_connected", 24)], seeds=(0,)
        )
        (row,) = execute_campaign(campaign).rows
        assert row["round_ratio"] <= 1.0
        assert row["message_ratio"] <= 1.0

    def test_invalid_jobs(self):
        with pytest.raises(ConfigurationError):
            execute_campaign(_tiny_grid(cells_16=False), jobs=0)


class TestRunStore:
    def test_resume_executes_zero_new_simulations(self, tmp_path):
        """Acceptance: re-running the same campaign with resume is a no-op."""
        path = tmp_path / "store.jsonl"
        campaign = _tiny_grid()
        first = _execute_into(path, campaign, jobs=4)
        assert first.executed == len(campaign) and first.reused == 0

        resumed = _execute_into(path, campaign, jobs=4)
        assert resumed.executed == 0
        assert resumed.reused == len(campaign)
        assert resumed.described == 0  # graph descriptions cached too
        assert resumed.rows == first.rows
        # The file did not grow: nothing was appended on resume.
        lines_after = path.read_text().count("\n")
        assert lines_after == len(campaign) + first.described

    def test_resume_reverifies_cells_stored_without_verification(self, tmp_path):
        """A --no-verify store must not satisfy a verifying resume."""
        path = tmp_path / "store.jsonl"
        campaign = _tiny_grid(cells_16=False)
        _execute_into(path, campaign, verify=False)
        verified = _execute_into(path, campaign, verify=True)
        assert verified.executed == len(campaign) and verified.reused == 0
        # ... and once verified, a verifying resume reuses everything.
        again = _execute_into(path, campaign, verify=True)
        assert again.executed == 0

    def test_stored_rows_are_isolated_from_caller_mutation(self, tmp_path):
        path = tmp_path / "store.jsonl"
        campaign = _tiny_grid(cells_16=False)
        report = _execute_into(path, campaign)
        report.rows[0]["presentation-only"] = 1.0
        key = campaign.specs[0].run_key()
        assert "presentation-only" not in report.store.get_row(key)

    def test_resume_false_reexecutes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        campaign = _tiny_grid(cells_16=False)
        _execute_into(path, campaign)
        fresh = _execute_into(path, campaign, resume=False)
        assert fresh.executed == len(campaign)

    def test_partial_resume(self, tmp_path):
        path = tmp_path / "store.jsonl"
        campaign = _tiny_grid()
        half = Campaign("half", campaign.specs[:8])
        _execute_into(path, half)
        report = _execute_into(path, campaign)
        assert report.reused == 8
        assert report.executed == len(campaign) - 8

    def test_store_round_trip_of_rows_results_and_provenance(self, tmp_path):
        path = tmp_path / "store.jsonl"
        campaign = _tiny_grid(cells_16=False)
        report = _execute_into(path, campaign)

        reloaded = RunStore(path)
        assert len(reloaded) == len(campaign)
        for spec, row in zip(campaign.specs, report.rows):
            key = spec.run_key()
            assert reloaded.has_run(key)
            assert reloaded.get_row(key) == row
            assert reloaded.get_spec(key) == spec
            result = reloaded.get_result(key)
            assert result.algorithm == spec.algorithm
            assert result.rounds == row["rounds"]
            assert result.messages == row["messages"]
            provenance = reloaded.get_provenance(key)
            # jobs=1 executions batch by default and stamp that fact.
            assert provenance["executor"] == "batched"
            assert provenance["verified"] is True
            assert provenance["package_version"]

    def test_graph_description_cache_shared_across_campaigns(self, tmp_path):
        path = tmp_path / "store.jsonl"
        graphs = [graph_spec_for("random_connected", 20)]
        first = Campaign.from_grid("a", graphs, algorithms=("elkin",), seeds=(0,))
        second = Campaign.from_grid("b", graphs, algorithms=("ghs",), seeds=(0,))
        one = _execute_into(path, first)
        two = _execute_into(path, second)
        assert one.described == 1
        assert two.described == 0  # hop-diameter reused from the store

    def test_nondeterministic_cells_never_share_descriptions(self, tmp_path):
        """Seedless random specs describe the exact graph they simulate."""
        path = tmp_path / "store.jsonl"
        campaign = Campaign.from_grid(
            "seedless", [GraphSpec("random_connected", {"n": 20})], seeds=(None,)
        )
        report = _execute_into(path, campaign)
        assert report.described == 0
        assert RunStore(path).graph_keys() == []  # nothing cached
        (row,) = report.rows
        assert row["m"] > 0 and "D" in row  # described in-worker all the same
        key = campaign.specs[0].run_key()
        assert report.store.get_provenance(key)["deterministic"] is False

    def test_description_cache_upgrades_to_include_diameter(self, tmp_path):
        """Regression: a D-less cached description must not poison later sweeps."""
        path = tmp_path / "store.jsonl"
        graphs = [graph_spec_for("random_connected", 20)]
        first = Campaign.from_grid("a", graphs, algorithms=("elkin",), seeds=(0,))
        _execute_into(path, first, compute_diameter=False)
        second = Campaign.from_grid("b", graphs, algorithms=("ghs",), seeds=(0,))
        report = _execute_into(path, second, compute_diameter=True)
        assert report.described == 1  # recomputed with the hop-diameter
        assert "D" in report.rows[0]

    def test_corrupt_store_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            RunStore(path)

    def test_in_memory_store_writes_nothing(self, tmp_path):
        campaign = _tiny_grid(cells_16=False)
        execute_campaign(campaign, store=RunStore(None))
        assert list(tmp_path.iterdir()) == []


class TestResultRoundTrip:
    def test_result_json_round_trip(self, small_random_graph):
        result = run_single(small_random_graph, seed=11)
        clone = MSTRunResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert clone.algorithm == result.algorithm
        assert clone.edges == result.edges
        assert clone.total_weight == result.total_weight
        assert clone.cost.rounds == result.cost.rounds
        assert clone.cost.messages == result.cost.messages
        assert clone.cost.words == result.cost.words
        assert clone.n == result.n and clone.m == result.m
        assert clone.bandwidth == result.bandwidth
        assert len(clone.phases) == len(result.phases)
        for ours, theirs in zip(clone.phases, result.phases):
            assert ours.phase == theirs.phase
            assert ours.rounds == theirs.rounds
            assert ours.messages == theirs.messages
        assert clone.details["k"] == result.details["k"]
        assert clone.details["seed"] == 11


class TestRunSingleThreading:
    """Satellite: seed / collect_telemetry / strict_bounds reach RunConfig."""

    def test_seed_recorded_in_details(self, small_random_graph):
        result = run_single(small_random_graph, seed=42)
        assert result.details["seed"] == 42

    def test_telemetry_can_be_disabled(self, small_random_graph):
        assert run_single(small_random_graph).phases
        assert run_single(small_random_graph, collect_telemetry=False).phases == []

    def test_strict_bounds_passes_on_a_conforming_run(self, small_random_graph):
        result = run_single(small_random_graph, strict_bounds=True)
        assert result.spans(small_random_graph)

    def test_unknown_algorithm_still_rejected(self, small_random_graph):
        with pytest.raises(ConfigurationError):
            run_single(small_random_graph, algorithm="bogus")
