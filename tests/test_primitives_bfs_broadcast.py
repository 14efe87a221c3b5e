"""Tests for BFS, broadcast, convergecast, neighbour exchange and direct sends."""

from __future__ import annotations

import operator

import networkx as nx
import pytest

from repro.exceptions import ProtocolError
from repro.graphs import grid_graph, path_graph, random_connected_graph, star_graph
from repro.simulator.message import Message
from repro.simulator.network import SyncNetwork
from repro.simulator.primitives.bfs import build_bfs_tree
from repro.simulator.primitives.broadcast import _ForestBroadcastProtocol, forest_broadcast
from repro.simulator.primitives.convergecast import (
    _ForestConvergecastProtocol,
    forest_convergecast,
)
from repro.simulator.primitives.direct import send_over_edges
from repro.simulator.primitives.neighbor_exchange import neighbor_exchange
from repro.simulator.primitives.trees import RootedForest
from repro.simulator.protocol import ProtocolApi


class TestBFS:
    @pytest.mark.parametrize(
        "graph_builder",
        [
            lambda: path_graph(20, seed=1),
            lambda: grid_graph(5, 5, seed=1),
            lambda: star_graph(15, seed=1),
            lambda: random_connected_graph(40, seed=1),
        ],
    )
    def test_distances_match_networkx(self, graph_builder):
        graph = graph_builder()
        network = SyncNetwork(graph)
        tree = build_bfs_tree(network, root=0)
        expected = nx.single_source_shortest_path_length(graph, 0)
        assert tree.distance == expected
        assert tree.depth == max(expected.values())
        # Parent pointers are consistent with the distances.
        for vertex, parent in tree.forest.parent.items():
            if parent is not None:
                assert tree.distance[vertex] == tree.distance[parent] + 1
                assert graph.has_edge(vertex, parent)

    def test_cost_bounds(self):
        graph = random_connected_graph(50, seed=3)
        network = SyncNetwork(graph)
        tree = build_bfs_tree(network)
        assert network.round <= tree.depth + 2
        assert network.metrics.messages <= 2 * graph.number_of_edges()

    def test_default_root_is_minimum_identity(self):
        network = SyncNetwork(path_graph(5, seed=0))
        assert build_bfs_tree(network).root == 0

    def test_unknown_root_raises(self):
        network = SyncNetwork(path_graph(5, seed=0))
        with pytest.raises(ProtocolError):
            build_bfs_tree(network, root=99)


class TestForestBroadcast:
    def test_values_reach_every_tree_vertex(self):
        network = SyncNetwork(path_graph(10, seed=1))
        # Two trees: 0..4 rooted at 0, 5..9 rooted at 9.
        parent = {0: None, 1: 0, 2: 1, 3: 2, 4: 3, 9: None, 8: 9, 7: 8, 6: 7, 5: 6}
        forest = RootedForest(parent=parent)
        values = forest_broadcast(network, forest, {0: "left", 9: "right"})
        assert all(values[v] == "left" for v in range(5))
        assert all(values[v] == "right" for v in range(5, 10))
        assert network.metrics.messages == 8
        assert network.round <= forest.height + 1

    def test_missing_root_value_raises(self):
        network = SyncNetwork(path_graph(3, seed=1))
        forest = RootedForest(parent={0: None, 1: 0, 2: 1})
        with pytest.raises(ProtocolError):
            forest_broadcast(network, forest, {})

    def test_tree_edge_must_be_graph_edge(self):
        network = SyncNetwork(path_graph(4, seed=1))
        forest = RootedForest(parent={0: None, 2: 0})
        with pytest.raises(ProtocolError):
            forest_broadcast(network, forest, {0: 1})

    def test_two_values_in_one_inbox_raise(self):
        # A forest gives every vertex one parent, so only a hand-built
        # inbox reaches this check.
        network = SyncNetwork(path_graph(3, seed=1))
        forest = RootedForest(parent={0: None, 1: 0, 2: 1})
        protocol = _ForestBroadcastProtocol(network, forest, {0: "x"})
        api = ProtocolApi(network, protocol.name, set(protocol.participants))
        inbox = [Message(0, 1, "bcast:value", ("x",)), Message(2, 1, "bcast:value", ("y",))]
        with pytest.raises(ProtocolError, match="vertex 1 received 2 broadcast values"):
            protocol.on_round(1, network.node(1), api, inbox)


class TestForestConvergecast:
    def test_sum_aggregation_per_tree(self):
        network = SyncNetwork(path_graph(8, seed=1))
        parent = {0: None, 1: 0, 2: 1, 3: 2, 7: None, 6: 7, 5: 6, 4: 5}
        forest = RootedForest(parent=parent)
        result = forest_convergecast(
            network, forest, {v: 1 for v in range(8)}, operator.add
        )
        assert result.root_values == {0: 4, 7: 4}
        # per-vertex values are subtree sizes.
        assert result.per_vertex[2] == 2
        assert result.child_values[0] == {1: 3}
        assert network.metrics.messages == 6

    def test_min_aggregation(self):
        network = SyncNetwork(star_graph(6, seed=1))
        parent = {0: None, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
        forest = RootedForest(parent=parent)
        values = {0: 9.0, 1: 5.0, 2: 3.0, 3: 8.0, 4: 1.0, 5: 7.0}
        result = forest_convergecast(network, forest, values, min)
        assert result.root_values[0] == 1.0

    def test_missing_value_raises(self):
        network = SyncNetwork(path_graph(3, seed=1))
        forest = RootedForest(parent={0: None, 1: 0, 2: 1})
        with pytest.raises(
            ProtocolError,
            match="forest_convergecast: 1 vertices have no input value, e.g. 2",
        ):
            forest_convergecast(network, forest, {0: 1, 1: 1}, operator.add)

    def test_a_second_aggregate_from_one_child_raises(self):
        # Only a hand-built inbox repeats a child: each child sends once.
        network = SyncNetwork(path_graph(3, seed=1))
        forest = RootedForest(parent={0: None, 1: 0, 2: 1})
        protocol = _ForestConvergecastProtocol(
            network, forest, dict.fromkeys(forest.vertices, 1), operator.add
        )
        api = ProtocolApi(network, protocol.name, set(protocol.participants))
        inbox = [Message(2, 1, "cvgc:aggregate", (1,)), Message(2, 1, "cvgc:aggregate", (1,))]
        with pytest.raises(ProtocolError, match="vertex 1 received two aggregates from child 2"):
            protocol.on_round(1, network.node(1), api, inbox)

    def test_singleton_forest_costs_nothing(self):
        network = SyncNetwork(path_graph(3, seed=1))
        forest = RootedForest(parent={0: None, 1: None, 2: None})
        result = forest_convergecast(network, forest, {0: 1, 1: 2, 2: 3}, operator.add)
        assert result.root_values == {0: 1, 1: 2, 2: 3}
        assert network.metrics.messages == 0


class TestNeighborExchange:
    def test_every_neighbor_pair_exchanges_values(self):
        graph = random_connected_graph(20, seed=5)
        network = SyncNetwork(graph)
        values = {v: v * 10 for v in network.vertices()}
        received = neighbor_exchange(network, values)
        for u, v in graph.edges():
            assert received[u][v] == v * 10
            assert received[v][u] == u * 10
        assert network.metrics.messages == 2 * graph.number_of_edges()
        assert network.round == 1

    def test_missing_value_raises(self, network):
        with pytest.raises(ProtocolError):
            neighbor_exchange(network, {0: 1})


class TestSendOverEdges:
    def test_batch_delivery_in_one_round(self):
        network = SyncNetwork(path_graph(5, seed=1))
        received = send_over_edges(network, [(0, 1, "a"), (2, 1, "b"), (3, 4, "c")])
        assert sorted(received[1]) == [(0, "a"), (2, "b")]
        assert received[4] == [(3, "c")]
        assert network.round == 1
        assert network.metrics.messages == 3

    def test_empty_batch_costs_nothing(self, network):
        assert send_over_edges(network, []) == {}
        assert network.round == 0

    def test_non_edge_raises(self):
        network = SyncNetwork(path_graph(4, seed=1))
        with pytest.raises(ProtocolError, match=r"edge message over non-edge \(0, 3\)"):
            send_over_edges(network, [(0, 1, "ok"), (0, 3, "x")])

    def test_bandwidth_violation_raises(self):
        network = SyncNetwork(path_graph(3, seed=1), bandwidth=1)
        with pytest.raises(
            ProtocolError,
            match=r"2 messages over directed edge \(0, 1\) exceed bandwidth 1",
        ):
            send_over_edges(network, [(0, 1, "a"), (0, 1, "b")])
