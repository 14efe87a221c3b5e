"""Tests for interval labelling and the pipelined upcast / downcast."""

from __future__ import annotations

import pytest

from repro.exceptions import ProtocolError
from repro.graphs import grid_graph, path_graph, random_connected_graph
from repro.simulator.network import SyncNetwork
from repro.simulator.primitives.bfs import build_bfs_tree
from repro.simulator.primitives.intervals import assign_intervals
from repro.simulator.primitives.pipeline import pipelined_downcast, pipelined_upcast


def _bfs_tree(graph, bandwidth=1):
    network = SyncNetwork(graph, bandwidth=bandwidth)
    tree = build_bfs_tree(network, root=0)
    return network, tree


class TestIntervalAssignment:
    def test_intervals_form_a_laminar_family(self):
        graph = random_connected_graph(40, seed=7)
        network, tree = _bfs_tree(graph)
        routing = assign_intervals(network, tree.forest)
        intervals = routing.intervals
        assert intervals[tree.root] == (1, graph.number_of_nodes())
        for vertex, parent in tree.forest.parent.items():
            lo, hi = intervals[vertex]
            assert lo <= hi
            if parent is not None:
                # Nested in the parent's interval and disjoint from siblings.
                assert routing.contains(parent, vertex)
                for sibling in tree.forest.children[parent]:
                    if sibling == vertex:
                        continue
                    slo, shi = intervals[sibling]
                    assert hi < slo or shi < lo

    def test_interval_length_equals_subtree_size(self):
        graph = grid_graph(4, 5, seed=2)
        network, tree = _bfs_tree(graph)
        routing = assign_intervals(network, tree.forest)
        sizes = {v: 1 for v in tree.forest.vertices}
        # Children before parents: deepest vertices first.
        for vertex in sorted(tree.forest.vertices, key=lambda v: -tree.forest.depth[v]):
            parent = tree.forest.parent[vertex]
            if parent is not None:
                sizes[parent] += sizes[vertex]
        for vertex, (lo, hi) in routing.intervals.items():
            assert hi - lo + 1 == sizes[vertex]

    def test_next_hop_routes_towards_the_target(self):
        graph = random_connected_graph(35, seed=8)
        network, tree = _bfs_tree(graph)
        routing = assign_intervals(network, tree.forest)
        for target in tree.forest.vertices:
            current = tree.root
            hops = 0
            while current != target:
                current = routing.next_hop(current, target)
                hops += 1
                assert hops <= tree.depth + 1
            assert current == target

    def test_next_hop_rejects_self_and_foreign_targets(self):
        graph = path_graph(6, seed=1)
        network, tree = _bfs_tree(graph)
        routing = assign_intervals(network, tree.forest)
        with pytest.raises(ProtocolError):
            routing.next_hop(3, 3)
        with pytest.raises(ProtocolError):
            routing.next_hop(4, 0)  # 0 is not in the subtree of 4 on a path rooted at 0

    def test_cost_is_linear(self):
        graph = random_connected_graph(50, seed=9)
        network, tree = _bfs_tree(graph)
        before = network.checkpoint()
        assign_intervals(network, tree.forest)
        cost = network.cost_since(before)
        assert cost.messages <= 2 * graph.number_of_nodes()
        assert cost.rounds <= 2 * (tree.depth + 2)


class TestPipelinedUpcast:
    def test_minimum_per_key_reaches_the_root(self):
        graph = random_connected_graph(45, seed=10)
        network, tree = _bfs_tree(graph)
        items = {}
        expected = {}
        for index, vertex in enumerate(sorted(tree.forest.vertices)):
            key = index % 7
            value = (float((index * 37) % 101), vertex)
            items[vertex] = {key: value}
            if key not in expected or value < expected[key]:
                expected[key] = value
        result = pipelined_upcast(network, tree.forest, items)
        assert result[tree.root] == expected

    def test_pipelining_round_bound(self):
        graph = path_graph(30, seed=4)
        network, tree = _bfs_tree(graph)
        keys = list(range(12))
        items = {29: {key: (float(key), 29) for key in keys}}
        before = network.checkpoint()
        pipelined_upcast(network, tree.forest, items)
        cost = network.cost_since(before)
        # Depth is 29; 12 items must not cost 12 * depth rounds.
        assert cost.rounds <= tree.depth + len(keys) + 5

    def test_larger_bandwidth_reduces_rounds(self):
        graph = path_graph(25, seed=4)
        items = {24: {key: (float(key), 24) for key in range(16)}}
        costs = {}
        for bandwidth in (1, 4):
            network, tree = _bfs_tree(graph, bandwidth=bandwidth)
            before = network.checkpoint()
            pipelined_upcast(network, tree.forest, items)
            costs[bandwidth] = network.cost_since(before).rounds
        assert costs[4] < costs[1]

    def test_empty_items_still_terminate(self):
        graph = grid_graph(3, 3, seed=1)
        network, tree = _bfs_tree(graph)
        result = pipelined_upcast(network, tree.forest, {})
        assert result[tree.root] == {}

    def test_tree_edges_must_be_graph_edges(self):
        graph = path_graph(4, seed=1)
        network, _ = _bfs_tree(graph)
        from repro.simulator.primitives.trees import RootedForest

        bad_tree = RootedForest(parent={0: None, 2: 0})
        with pytest.raises(ProtocolError):
            pipelined_upcast(network, bad_tree, {})


class TestPipelinedDowncast:
    def test_every_target_receives_its_payloads(self):
        graph = random_connected_graph(40, seed=12)
        network, tree = _bfs_tree(graph)
        routing = assign_intervals(network, tree.forest)
        targets = sorted(tree.forest.vertices)[::3]
        payloads = [(target, f"msg-{target}") for target in targets]
        delivered = pipelined_downcast(network, tree.forest, payloads, routing=routing)
        assert set(delivered) == set(targets)
        for target in targets:
            assert delivered[target] == [f"msg-{target}"]

    def test_multiple_payloads_to_one_target(self):
        graph = path_graph(8, seed=1)
        network, tree = _bfs_tree(graph)
        routing = assign_intervals(network, tree.forest)
        delivered = pipelined_downcast(
            network, tree.forest, [(5, "a"), (5, "b"), (3, "c")], routing=routing
        )
        assert sorted(delivered[5]) == ["a", "b"]
        assert delivered[3] == ["c"]

    def test_root_as_target_costs_no_messages(self):
        graph = path_graph(5, seed=1)
        network, tree = _bfs_tree(graph)
        routing = assign_intervals(network, tree.forest)
        before = network.checkpoint()
        delivered = pipelined_downcast(network, tree.forest, [(0, "self")], routing=routing)
        assert delivered == {0: ["self"]}
        assert network.cost_since(before).messages == 0

    def test_pipelining_round_bound(self):
        graph = path_graph(25, seed=2)
        network, tree = _bfs_tree(graph)
        routing = assign_intervals(network, tree.forest)
        payloads = [(24, index) for index in range(10)]
        before = network.checkpoint()
        pipelined_downcast(network, tree.forest, payloads, routing=routing)
        cost = network.cost_since(before)
        assert cost.rounds <= tree.depth + len(payloads) + 5

    def test_unknown_target_raises(self):
        graph = path_graph(4, seed=1)
        network, tree = _bfs_tree(graph)
        routing = assign_intervals(network, tree.forest)
        with pytest.raises(ProtocolError):
            pipelined_downcast(network, tree.forest, [(99, "x")], routing=routing)
