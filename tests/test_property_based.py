"""Property-based tests (hypothesis) on the core invariants.

Strategy: generate small random weighted connected graphs (or abstract
forests) and assert the library-wide invariants that the paper's
correctness rests on -- agreement with the sequential MST, validity of
the Cole-Vishkin colouring and the maximal matching, the laminar-family
property of the interval labelling, and the (alpha, beta) guarantees of
Controlled-GHS.

The differential workload-zoo suite (:class:`TestZooDifferential`) runs
the paper's algorithm against every sequential reference on seeded
instances of *every registered graph family*, asserting identical edge
sets, equal MST weight, verified spanning-forest invariants and (for
planted families) agreement with the planted ground truth.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, HealthCheck, settings
from hypothesis import strategies as st

from repro import workloads
from repro.analysis.experiments import run_single
from repro.baselines import kruskal_mst
from repro.config import RunConfig
from repro.core.cole_vishkin import cole_vishkin_coloring, validate_coloring
from repro.core.controlled_ghs import build_base_forest
from repro.core.elkin_mst import compute_mst
from repro.core.maximal_matching import maximal_matching_from_coloring
from repro.graphs.generators import available_families
from repro.graphs.weights import assign_unique_weights
from repro.simulator.network import SyncNetwork
from repro.simulator.primitives.bfs import build_bfs_tree
from repro.simulator.primitives.intervals import assign_intervals
from repro.simulator.primitives.pipeline import pipelined_upcast
from repro.verify import MSTOracle
from repro.verify.forest_checks import assert_alpha_beta_forest
from repro.verify.planted_checks import assert_matches_planted_mst, planted_mst_edges

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def connected_weighted_graphs(draw, max_vertices=26):
    """A connected graph on 2..max_vertices vertices with distinct weights."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    # Random spanning tree by attaching each vertex to an earlier one.
    for vertex in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=vertex - 1))
        graph.add_edge(vertex, parent)
    extra = draw(st.integers(min_value=0, max_value=min(3 * n, n * (n - 1) // 2 - (n - 1))))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    assign_unique_weights(graph)
    # Permute weights so the MST is not simply the attachment tree.
    shift = draw(st.integers(min_value=0, max_value=5))
    for index, (u, v) in enumerate(sorted((min(a, b), max(a, b)) for a, b in graph.edges())):
        graph[u][v]["weight"] = float(1 + ((index * 7 + shift) % (3 * graph.number_of_edges() + 1)))
    assign_unique_weights(graph) if len(
        {d["weight"] for _, _, d in graph.edges(data=True)}
    ) != graph.number_of_edges() else None
    return graph


@st.composite
def rooted_forests(draw, max_nodes=40):
    """A random rooted forest over integer node identities."""
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    parent = {}
    for node in range(size):
        if node == 0 or draw(st.booleans()):
            parent[node] = None
        else:
            parent[node] = draw(st.integers(min_value=0, max_value=node - 1))
    return parent


class TestMSTProperties:
    @SLOW
    @given(graph=connected_weighted_graphs())
    def test_elkin_agrees_with_kruskal(self, graph):
        result = compute_mst(graph)
        assert result.edges == kruskal_mst(graph)

    @SLOW
    @given(graph=connected_weighted_graphs(max_vertices=20), bandwidth=st.sampled_from([1, 2, 4]))
    def test_elkin_is_bandwidth_invariant_in_output(self, graph, bandwidth):
        result = compute_mst(graph, RunConfig(bandwidth=bandwidth))
        assert result.edges == kruskal_mst(graph)

    @SLOW
    @given(graph=connected_weighted_graphs(max_vertices=20), k=st.integers(min_value=1, max_value=8))
    def test_controlled_ghs_alpha_beta_property(self, graph, k):
        network = SyncNetwork(graph)
        result = build_base_forest(network, k)
        assert_alpha_beta_forest(graph, result.forest, k)


class TestColoringAndMatchingProperties:
    @settings(max_examples=40, deadline=None)
    @given(parent=rooted_forests())
    def test_cole_vishkin_always_proper_and_three_colored(self, parent):
        result = cole_vishkin_coloring(parent)
        validate_coloring(parent, result.colors)
        assert set(result.colors.values()) <= {0, 1, 2}

    @settings(max_examples=40, deadline=None)
    @given(parent=rooted_forests())
    def test_matching_valid_and_maximal(self, parent):
        coloring = cole_vishkin_coloring(parent)
        matching = maximal_matching_from_coloring(parent, coloring.colors)
        matched = set()
        for edge in matching:
            assert len(edge) == 2
            assert not (edge & matched)
            matched |= edge
        for node, parent_node in parent.items():
            if parent_node is not None:
                assert node in matched or parent_node in matched


#: Every sequential reference the zoo instances are checked against.
SEQUENTIAL_REFERENCES = ("kruskal", "prim", "prim_dense", "boruvka_seq")


class TestZooDifferential:
    """Differential suite: elkin vs. every sequential reference, per family.

    For each registered workload family, seeded random instances are run
    by the paper's algorithm (with full oracle verification) and by all
    four sequential references; the suite asserts identical edge sets,
    equal MST weight, the spanning-forest invariant and -- on planted
    families -- agreement with the planted ground truth.
    """

    @pytest.mark.parametrize("family", available_families())
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_family_differential(self, family, seed):
        graph = workloads.coverage_spec(family, seed=seed).build()
        # verify=True runs the full oracle stack (networkx + Kruskal +
        # Prim + planted checks) on the distributed result.
        elkin = run_single(graph, "elkin", engine="fast", verify=True, seed=seed)
        oracle = MSTOracle(graph)
        oracle.verify(elkin)
        assert elkin.edge_count == graph.number_of_nodes() - 1
        for reference in SEQUENTIAL_REFERENCES:
            result = run_single(graph, reference, verify=True, seed=seed)
            assert result.edges == elkin.edges, (
                f"{reference} disagrees with elkin on {family} (seed {seed})"
            )
            assert result.total_weight == pytest.approx(elkin.total_weight)
            oracle.verify(result)
            assert result.rounds == 0 and result.messages == 0

    @pytest.mark.parametrize("family", workloads.PLANTED_FAMILIES)
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_planted_families_expose_and_match_ground_truth(self, family, seed):
        graph = workloads.coverage_spec(family, seed=seed).build()
        planted = planted_mst_edges(graph)
        assert planted is not None and len(planted) == graph.number_of_nodes() - 1
        # The planted tree must be the unique MST, independently.
        assert kruskal_mst(graph) == planted
        result = run_single(graph, "elkin", engine="fast", verify=True, seed=seed)
        assert_matches_planted_mst(graph, result)
        assert result.details["planted_mst"] == [list(edge) for edge in sorted(planted)]

    @pytest.mark.parametrize(
        "family", ("unit_weight_stress", "duplicate_weight_stress")
    )
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_weight_stress_families_keep_weights_distinct(self, family, seed):
        graph = workloads.coverage_spec(family, seed=seed).build()
        weights = [data["weight"] for _, _, data in graph.edges(data=True)]
        assert len(set(weights)) == len(weights)
        assert all(weight > 0 for weight in weights)


class TestPrimitiveProperties:
    @SLOW
    @given(graph=connected_weighted_graphs(max_vertices=22))
    def test_intervals_are_laminar_and_routing_works(self, graph):
        network = SyncNetwork(graph)
        tree = build_bfs_tree(network, root=0)
        routing = assign_intervals(network, tree.forest)
        for vertex, parent in tree.forest.parent.items():
            if parent is not None:
                assert routing.contains(parent, vertex)
        # Routing from the root reaches an arbitrary vertex.
        target = max(tree.forest.vertices)
        current = tree.root
        while current != target:
            current = routing.next_hop(current, target)
        assert current == target

    @SLOW
    @given(graph=connected_weighted_graphs(max_vertices=22), data=st.data())
    def test_pipelined_upcast_returns_minimum_per_key(self, graph, data):
        network = SyncNetwork(graph)
        tree = build_bfs_tree(network, root=0)
        items = {}
        expected = {}
        for vertex in tree.forest.vertices:
            count = data.draw(st.integers(min_value=0, max_value=2))
            for _ in range(count):
                key = data.draw(st.integers(min_value=0, max_value=5))
                value = (float(data.draw(st.integers(min_value=1, max_value=100))), vertex)
                current = items.setdefault(vertex, {}).get(key)
                if current is None or value < current:
                    items[vertex][key] = value
                best = expected.get(key)
                if (
                    key not in items[vertex]
                    or items[vertex][key] == value
                ) and (best is None or value < best):
                    expected[key] = value
        result = pipelined_upcast(network, tree.forest, items)
        # Recompute the expectation directly from what was actually stored.
        recomputed = {}
        for vertex_items in items.values():
            for key, value in vertex_items.items():
                if key not in recomputed or value < recomputed[key]:
                    recomputed[key] = value
        assert result[tree.root] == recomputed
