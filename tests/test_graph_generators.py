"""Tests for the graph generators."""

from __future__ import annotations

import itertools
import math
import random

import networkx as nx
import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    barbell_graph,
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    edge_list_graph,
    GraphSpec,
    grid_graph,
    hop_diameter,
    lollipop_graph,
    make_graph,
    path_graph,
    preferential_attachment_graph,
    random_connected_graph,
    random_geometric_connected_graph,
    random_regular_connected_graph,
    random_tree,
    star_graph,
    torus_graph,
    weights_are_unique,
    wheel_graph,
)
from repro.graphs.generators import _finalize, _geometric_edges


ALL_GENERATOR_CALLS = [
    lambda: path_graph(17, seed=1),
    lambda: cycle_graph(18, seed=1),
    lambda: star_graph(15, seed=1),
    lambda: complete_graph(9, seed=1),
    lambda: grid_graph(4, 5, seed=1),
    lambda: torus_graph(4, 4, seed=1),
    lambda: random_tree(20, seed=1),
    lambda: random_connected_graph(25, seed=1),
    lambda: random_regular_connected_graph(16, degree=4, seed=1),
    lambda: random_geometric_connected_graph(25, seed=1),
    lambda: lollipop_graph(6, 10, seed=1),
    lambda: barbell_graph(5, 6, seed=1),
    lambda: preferential_attachment_graph(24, seed=1),
    lambda: caterpillar_graph(21, seed=1),
    lambda: wheel_graph(14, seed=1),
]


@pytest.mark.parametrize("build", ALL_GENERATOR_CALLS)
def test_every_family_is_connected_with_unique_weights(build):
    graph = build()
    assert nx.is_connected(graph)
    assert weights_are_unique(graph)
    assert sorted(graph.nodes()) == list(range(graph.number_of_nodes()))


class TestHubPathGraph:
    def test_low_diameter_but_path_like_mst(self):
        from repro.graphs import hub_path_graph
        from repro.baselines import kruskal_mst

        graph = hub_path_graph(30)
        assert nx.is_connected(graph)
        assert weights_are_unique(graph)
        assert hop_diameter(graph) == 2
        mst = kruskal_mst(graph)
        tree = nx.Graph(list(mst))
        # The MST contains the full path, so its diameter is Theta(n).
        assert nx.diameter(tree) >= graph.number_of_nodes() - 3

    def test_rejects_tiny_n(self):
        from repro.graphs import hub_path_graph

        with pytest.raises(GraphError):
            hub_path_graph(2)


class TestSpecificShapes:
    def test_path_sizes_and_diameter(self):
        graph = path_graph(12, seed=0)
        assert graph.number_of_nodes() == 12
        assert graph.number_of_edges() == 11
        assert hop_diameter(graph) == 11

    def test_cycle_diameter(self):
        assert hop_diameter(cycle_graph(10, seed=0)) == 5

    def test_star_diameter(self):
        assert hop_diameter(star_graph(20, seed=0)) == 2

    def test_complete_graph_diameter_and_edges(self):
        graph = complete_graph(8, seed=0)
        assert graph.number_of_edges() == 28
        assert hop_diameter(graph) == 1

    def test_grid_diameter(self):
        assert hop_diameter(grid_graph(3, 7, seed=0)) == 8

    def test_random_tree_is_a_tree(self):
        graph = random_tree(30, seed=2)
        assert graph.number_of_edges() == 29

    def test_lollipop_has_long_tail(self):
        graph = lollipop_graph(5, 20, seed=0)
        assert hop_diameter(graph) >= 20

    def test_random_connected_extra_edges(self):
        graph = random_connected_graph(30, extra_edges=10, seed=4)
        assert graph.number_of_edges() == 29 + 10

    def test_random_connected_edge_probability_one_is_complete(self):
        graph = random_connected_graph(10, edge_probability=1.0, seed=4)
        assert graph.number_of_edges() == 45

    def test_deterministic_weights_option(self):
        graph = path_graph(6, random_weights=False)
        weights = sorted(data["weight"] for _, _, data in graph.edges(data=True))
        assert weights == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_same_seed_same_graph(self):
        first = random_connected_graph(30, seed=42)
        second = random_connected_graph(30, seed=42)
        assert set(first.edges()) == set(second.edges())


class TestValidationErrors:
    def test_path_requires_positive_n(self):
        with pytest.raises(GraphError):
            path_graph(0)

    def test_cycle_requires_three_vertices(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_grid_rejects_zero_dimension(self):
        with pytest.raises(GraphError):
            grid_graph(0, 5)

    def test_regular_graph_rejects_odd_product(self):
        with pytest.raises(GraphError):
            random_regular_connected_graph(7, degree=3)

    def test_regular_graph_rejects_degree_too_large(self):
        with pytest.raises(GraphError):
            random_regular_connected_graph(5, degree=5)

    def test_lollipop_rejects_tiny_clique(self):
        with pytest.raises(GraphError):
            lollipop_graph(1, 5)

    def test_edge_probability_out_of_range(self):
        with pytest.raises(GraphError):
            random_connected_graph(10, edge_probability=1.5)


def _networkx_geometric_graph(n, radius, seed):
    """The geometric family as built on ``nx.random_geometric_graph``."""
    rng = random.Random(seed)
    current = radius if radius is not None else 1.5 * math.sqrt(math.log(n) / n)
    for _ in range(20):
        candidate = nx.random_geometric_graph(n, current, seed=rng.randrange(2**31))
        if nx.is_connected(candidate):
            candidate = nx.Graph(candidate.edges())
            candidate.add_nodes_from(range(n))
            return _finalize(candidate, seed, True)
        current *= 1.3
    raise AssertionError("no connected candidate")


GEOMETRIC_PANEL = [
    (n, radius, seed)
    for n in (2, 3, 16, 27, 120)
    for radius in (0.02, 0.1, 1 / 3, 0.75, 2.0)
    for seed in (0, 1, 2)
]


class TestGeometricGraph:
    @pytest.mark.parametrize("n,radius,seed", GEOMETRIC_PANEL)
    def test_candidate_edges_match_networkx_in_order(self, n, radius, seed):
        reference = nx.random_geometric_graph(n, radius, seed=seed)
        edges = _geometric_edges(n, radius, seed)
        assert list(reference.nodes()) == list(range(n))
        assert edges == list(reference.edges())

    @pytest.mark.parametrize("n,radius,seed", GEOMETRIC_PANEL)
    def test_candidate_edges_match_an_exhaustive_check(self, n, radius, seed):
        rng = random.Random(seed)
        points = [(rng.random(), rng.random()) for _ in range(n)]
        expected = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if abs(points[u][0] - points[v][0]) ** 2 + abs(points[u][1] - points[v][1]) ** 2
            <= radius**2
        ]
        assert _geometric_edges(n, radius, seed) == expected

    @pytest.mark.parametrize("radius", (2.5, 1e200, math.inf))
    def test_a_radius_beyond_the_square_joins_every_pair(self, radius):
        assert _geometric_edges(12, radius, 0) == list(itertools.combinations(range(12), 2))
        assert random_geometric_connected_graph(12, radius=radius, seed=0).number_of_edges() == 66

    @pytest.mark.parametrize("n", (2, 16, 27, 60))
    @pytest.mark.parametrize("radius", (None, 0.25))
    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_graph_matches_the_networkx_built_family(self, n, radius, seed):
        ours = random_geometric_connected_graph(n, radius=radius, seed=seed)
        theirs = _networkx_geometric_graph(n, radius, seed)
        assert list(ours.nodes()) == list(theirs.nodes())
        assert list(ours.edges(data="weight")) == list(theirs.edges(data="weight"))

    @pytest.mark.parametrize("radius", (0, -0.5, math.nan))
    def test_non_positive_radius_is_rejected_up_front(self, radius):
        with pytest.raises(GraphError, match="radius"):
            random_geometric_connected_graph(10, radius=radius, seed=0)


class TestNewFamilies:
    def test_preferential_attachment_edge_count(self):
        graph = preferential_attachment_graph(30, attachments=2, seed=5)
        # BA with m = 2: (n - m) arrivals each add m edges.
        assert graph.number_of_edges() == (30 - 2) * 2
        assert hop_diameter(graph) <= 8

    def test_preferential_attachment_rejects_bad_attachments(self):
        with pytest.raises(GraphError):
            preferential_attachment_graph(10, attachments=0)
        with pytest.raises(GraphError):
            preferential_attachment_graph(10, attachments=10)

    def test_caterpillar_is_a_tree_with_spine_diameter(self):
        graph = caterpillar_graph(20, spine=10, seed=2)
        assert graph.number_of_nodes() == 20
        assert graph.number_of_edges() == 19  # a tree
        # Legs hang off the spine: diameter ~ spine (+ leg hops).
        assert 9 <= hop_diameter(graph) <= 12

    def test_caterpillar_default_spine(self):
        graph = caterpillar_graph(15, seed=2)
        assert graph.number_of_nodes() == 15

    def test_caterpillar_rejects_bad_spine(self):
        with pytest.raises(GraphError):
            caterpillar_graph(10, spine=11)

    def test_wheel_shape(self):
        graph = wheel_graph(12, seed=3)
        assert graph.number_of_nodes() == 12
        assert graph.number_of_edges() == 2 * 11
        assert hop_diameter(graph) == 2

    def test_wheel_rejects_tiny(self):
        with pytest.raises(GraphError):
            wheel_graph(3)

    def test_edge_list_builds_verbatim_weights(self):
        graph = edge_list_graph([(0, 1, 2.5), (1, 2, 1.5), (0, 2, 9.0)])
        assert graph.number_of_nodes() == 3
        assert graph[0][1]["weight"] == 2.5

    def test_edge_list_rejects_disconnected(self):
        with pytest.raises(GraphError):
            edge_list_graph([(0, 1, 1.0)], nodes=[0, 1, 2, 3])

    def test_edge_list_keeps_node_labels_verbatim(self):
        graph = edge_list_graph([(1, 2, 1.0), (2, 3, 2.0)])
        assert sorted(graph.nodes()) == [1, 2, 3]

    def test_new_families_registered(self):
        for family in ("preferential_attachment", "caterpillar", "wheel", "edge_list"):
            assert family in __import__("repro.graphs.generators", fromlist=["FAMILIES"]).FAMILIES


class TestGraphSpec:
    def test_make_graph_dispatch(self):
        graph = make_graph("path", n=9, seed=0)
        assert graph.number_of_nodes() == 9

    def test_make_graph_unknown_family(self):
        with pytest.raises(GraphError, match="unknown graph family"):
            make_graph("dodecahedron", n=8)

    def test_spec_build_and_label(self):
        spec = GraphSpec(family="grid", params={"rows": 3, "cols": 4, "seed": 1})
        graph = spec.build()
        assert graph.number_of_nodes() == 12
        assert "grid" in spec.label() and "rows=3" in spec.label()
