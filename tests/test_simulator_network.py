"""Tests for the SyncNetwork kernel and the metrics accounting."""

from __future__ import annotations

import pytest

from repro.exceptions import BandwidthExceededError, SimulationError
from repro.graphs import path_graph
from repro.simulator.message import Message
from repro.simulator.metrics import Metrics
from repro.simulator.network import SyncNetwork


class TestMessage:
    def test_requires_at_least_one_word(self):
        with pytest.raises(ValueError):
            Message(sender=0, receiver=1, kind="x", words=0)


class TestMetrics:
    def test_counters_accumulate(self):
        metrics = Metrics()
        metrics.record_round()
        metrics.record_message("a", 1)
        metrics.record_message("b", 3)
        assert metrics.rounds == 1
        assert metrics.messages == 2
        assert metrics.words == 4
        assert metrics.messages_by_kind["a"] == 1

    def test_checkpoint_and_since(self):
        metrics = Metrics()
        metrics.record_round()
        snapshot = metrics.checkpoint()
        metrics.record_round()
        metrics.record_message("x", 2)
        delta = metrics.since(snapshot)
        assert delta.rounds == 1
        assert delta.messages == 1
        assert delta.words == 2


class TestSyncNetwork:
    def test_basic_properties(self, small_random_graph):
        network = SyncNetwork(small_random_graph)
        assert network.n == 40
        assert network.m == small_random_graph.number_of_edges()
        assert network.round == 0
        assert list(network.vertices()) == sorted(small_random_graph.nodes())

    def test_node_state_knows_neighbors_and_weights(self, small_random_graph):
        network = SyncNetwork(small_random_graph)
        vertex = next(iter(network.vertices()))
        state = network.node(vertex)
        assert set(state.neighbors) == set(small_random_graph.neighbors(vertex))
        for neighbor in state.neighbors:
            assert state.edge_weights[neighbor] == small_random_graph[vertex][neighbor]["weight"]

    def test_unknown_vertex_raises(self, network):
        with pytest.raises(SimulationError):
            network.node(10_000)

    def test_send_and_deliver_one_round(self):
        network = SyncNetwork(path_graph(3, seed=0))
        network.send(0, 1, "ping", payload=("hello",))
        assert network.pending_count() == 1
        inboxes = network.deliver_round()
        assert network.round == 1
        assert network.pending_count() == 0
        assert [message.payload[0] for message in inboxes[1]] == ["hello"]
        assert network.metrics.messages == 1

    def test_send_over_non_edge_raises(self):
        network = SyncNetwork(path_graph(4, seed=0))
        with pytest.raises(SimulationError):
            network.send(0, 3, "ping")

    def test_bandwidth_is_enforced_per_directed_edge(self):
        network = SyncNetwork(path_graph(3, seed=0), bandwidth=2)
        network.send(0, 1, "a")
        network.send(0, 1, "b")
        with pytest.raises(BandwidthExceededError):
            network.send(0, 1, "c")
        # The reverse direction and other edges still have capacity.
        network.send(1, 0, "d")
        network.send(1, 2, "e")

    def test_bandwidth_resets_each_round(self):
        network = SyncNetwork(path_graph(3, seed=0), bandwidth=1)
        network.send(0, 1, "a")
        network.deliver_round()
        network.send(0, 1, "b")
        assert network.pending_count() == 1

    def test_rejects_invalid_bandwidth(self, small_random_graph):
        with pytest.raises(SimulationError):
            SyncNetwork(small_random_graph, bandwidth=0)

    def test_sorted_edges_are_sorted_by_weight(self, network):
        edges = network.sorted_edges()
        weights = [weight for weight, _, _ in edges]
        assert weights == sorted(weights)

    def test_cost_checkpoints(self):
        network = SyncNetwork(path_graph(4, seed=0))
        snapshot = network.checkpoint()
        network.send(0, 1, "a")
        network.deliver_round()
        delta = network.cost_since(snapshot)
        assert delta.rounds == 1 and delta.messages == 1
        assert network.total_cost().messages == 1

    def test_words_counted_at_delivery(self):
        network = SyncNetwork(path_graph(3, seed=0), bandwidth=4)
        network.send(0, 1, "a", words=3)
        assert network.metrics.words == 0
        network.deliver_round()
        assert network.metrics.words == 3
