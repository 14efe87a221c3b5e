"""Tests for the workload zoo (:mod:`repro.workloads`).

Covers: registration of every zoo family through the generator
registry, the structural contract every generator honours (connected,
0-indexed, distinct positive weights, deterministic under a pinned
seed), the planted-MST ground truth, the shape rules that let new
families ride the CLI ``--sizes`` axis, and the ``zoo`` campaign preset
itself (>= 100 deterministic fast-engine cells spanning every family).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import repro
from repro import workloads
from repro.baselines import kruskal_mst
from repro.campaign import preset_campaign
from repro.campaign.spec import graph_spec_for
from repro.exceptions import GraphError
from repro.graphs.generators import (
    available_families,
    FAMILIES,
    make_graph,
    register_family,
    SHAPE_RULES,
)
from repro.graphs.weights import weights_are_unique
from repro.verify.planted_checks import planted_mst_edges

ZOO_FAMILIES = workloads.zoo_family_names()


class TestRegistration:
    def test_every_zoo_family_is_registered(self):
        assert set(ZOO_FAMILIES) <= set(FAMILIES)

    def test_a_submodule_import_sees_every_family(self):
        # Importing any submodule runs repro/__init__ first, and that
        # imports repro.workloads, so no lookup needs a lazy import.
        script = (
            "import json\n"
            "from repro.graphs.generators import available_families\n"
            "print(json.dumps(available_families()))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        families = json.loads(completed.stdout)
        assert len(families) == 26
        assert families == sorted(ZOO_FAMILIES)

    def test_available_families_covers_the_zoo_and_hides_edge_list(self):
        families = available_families()
        assert families == sorted(ZOO_FAMILIES)
        assert "edge_list" not in families
        assert "edge_list" in available_families(include_edge_list=True)

    def test_catalogue_covers_every_family(self):
        assert sorted(workloads.ZOO_INFO) == sorted(ZOO_FAMILIES)
        for info in workloads.ZOO_INFO.values():
            assert info.regime in (
                "low-diameter",
                "high-diameter",
                "intermediate",
                "weight-stress",
            )
            assert info.round_regime

    def test_register_family_validates_inputs(self):
        with pytest.raises(GraphError):
            register_family("", make_graph)
        with pytest.raises(GraphError):
            register_family("bad", "not-callable")  # type: ignore[arg-type]

    def test_register_family_installs_generator_and_shape(self):
        def couple(n, seed=None, random_weights=True):
            return make_graph("path", n=2, seed=seed, random_weights=random_weights)

        register_family("test_couple", couple, shape_from_n=lambda n: {"n": 2})
        try:
            assert make_graph("test_couple", n=2).number_of_nodes() == 2
            assert graph_spec_for("test_couple", 50).params == {"n": 2}
        finally:
            FAMILIES.pop("test_couple", None)
            SHAPE_RULES.pop("test_couple", None)


class TestGeneratorContract:
    @pytest.mark.parametrize("family", ZOO_FAMILIES)
    def test_coverage_instances_are_valid_inputs(self, family):
        graph = workloads.coverage_spec(family, seed=0).build()
        assert nx.is_connected(graph)
        assert sorted(graph.nodes()) == list(range(graph.number_of_nodes()))
        assert weights_are_unique(graph)
        assert all(data["weight"] > 0 for _, _, data in graph.edges(data=True))

    @pytest.mark.parametrize("family", ZOO_FAMILIES)
    def test_pinned_seed_is_deterministic(self, family):
        def edge_profile():
            graph = workloads.coverage_spec(family, seed=7).build()
            return sorted(
                (u, v, data["weight"]) for u, v, data in graph.edges(data=True)
            )

        assert edge_profile() == edge_profile()

    @pytest.mark.parametrize("family,params", workloads._STRESS_SPECS)
    def test_stress_instances_are_valid_inputs(self, family, params):
        graph = make_graph(family, **dict(params, seed=0))
        assert nx.is_connected(graph)
        assert weights_are_unique(graph)

    def test_shape_rules_cover_the_non_n_families(self):
        for family in ("torus_3d", "hypercube", "complete_bipartite", "balanced_tree"):
            spec = graph_spec_for(family, 27)
            graph = spec.build()
            assert graph.number_of_nodes() >= 4

    def test_generator_argument_validation(self):
        with pytest.raises(GraphError):
            workloads.torus_3d_graph(2, 3, 3)
        with pytest.raises(GraphError):
            workloads.hypercube_graph(0)
        with pytest.raises(GraphError):
            workloads.small_world_graph(3)
        with pytest.raises(GraphError):
            workloads.small_world_graph(20, rewire=1.5)
        with pytest.raises(GraphError):
            workloads.expander_graph(10, degree=2)
        with pytest.raises(GraphError):
            workloads.expander_graph(9, degree=3)  # odd n * degree
        with pytest.raises(GraphError):
            workloads.complete_bipartite_graph(0, 4)
        with pytest.raises(GraphError):
            workloads.balanced_tree_graph(branching=1)
        with pytest.raises(GraphError):
            workloads.planted_fragments_graph(2)
        with pytest.raises(GraphError):
            workloads.planted_fragments_graph(12, fragments=30)
        with pytest.raises(GraphError):
            workloads.adversarial_permutation_graph(3)
        with pytest.raises(GraphError):
            workloads.duplicate_weight_stress_graph(12, levels=0)

    def test_hypercube_shape(self):
        graph = workloads.hypercube_graph(4)
        assert graph.number_of_nodes() == 16
        assert all(degree == 4 for _, degree in graph.degree())
        assert nx.diameter(graph) == 4

    def test_expander_is_regular_and_low_diameter(self):
        graph = workloads.expander_graph(32, degree=6, seed=1)
        assert all(degree == 6 for _, degree in graph.degree())
        assert nx.diameter(graph) <= 4


class TestPlantedGroundTruth:
    @pytest.mark.parametrize("family", workloads.PLANTED_FAMILIES)
    @pytest.mark.parametrize("seed", (0, 1, 5))
    def test_planted_tree_is_the_unique_mst(self, family, seed):
        graph = workloads.coverage_spec(family, seed=seed).build()
        planted = planted_mst_edges(graph)
        assert planted is not None
        assert kruskal_mst(graph) == planted

    def test_planted_fragments_records_the_partition(self):
        graph = workloads.planted_fragments_graph(24, fragments=4, seed=0)
        clusters = graph.graph["planted_fragments"]
        assert len(clusters) == 4
        assert sorted(v for members in clusters for v in members) == list(range(24))

    def test_adversarial_backbone_weights_decrease(self):
        graph = workloads.adversarial_permutation_graph(12, seed=0)
        backbone = [graph[i][i + 1]["weight"] for i in range(11)]
        assert backbone == sorted(backbone, reverse=True)
        chords = [
            data["weight"]
            for u, v, data in graph.edges(data=True)
            if abs(u - v) != 1
        ]
        assert chords and min(chords) > max(backbone)


class TestZooPreset:
    def test_zoo_preset_size_and_coverage(self):
        campaign = preset_campaign("zoo")
        assert len(campaign) >= 100
        families = {spec.graph.family for spec in campaign.specs}
        assert families == set(ZOO_FAMILIES)
        algorithms = {spec.algorithm for spec in campaign.specs}
        assert "elkin" in algorithms
        assert {"kruskal", "prim", "prim_dense", "boruvka_seq"} <= algorithms
        assert all(spec.engine == "fast" for spec in campaign.specs)

    def test_zoo_cells_are_deterministic_and_unique(self):
        campaign = preset_campaign("zoo")
        assert all(spec.is_deterministic() for spec in campaign.specs)
        keys = campaign.run_keys()
        assert len(set(keys)) == len(keys)
