"""Kernel edge cases, parametrized over every simulation engine.

These pin down the corners of the :class:`~repro.simulator.engine.Engine`
contract that the algorithm-level equivalence suite does not exercise:
multi-word messages exactly at / over the bandwidth cap, the per-edge
budget after partial use (probed by sending: the next send either fits
or raises), sends over non-edges, and the engine registry itself.
"""

from __future__ import annotations

import pytest

from repro.conditions.proxy import ConditionedEngine
from repro.conditions.spec import CONDITION_PRESETS
from repro.exceptions import BandwidthExceededError, ConfigurationError, SimulationError
from repro.graphs import path_graph, random_connected_graph
from repro.simulator.engine import available_engines, create_engine, DEFAULT_ENGINE, Engine
from repro.simulator.fast_network import FastNetwork
from repro.simulator.network import SyncNetwork

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

ENGINES = ["reference", "fast"] + (["array"] if HAVE_NUMPY else [])


def make(engine, graph, bandwidth=1):
    return create_engine(graph, bandwidth=bandwidth, engine=engine)


class TestRegistry:
    def test_both_builtin_engines_are_registered(self):
        assert {"reference", "fast"} <= set(available_engines())

    def test_default_engine_is_reference(self):
        assert DEFAULT_ENGINE == "reference"

    def test_create_engine_returns_the_right_kernel(self, small_random_graph):
        assert isinstance(make("reference", small_random_graph), SyncNetwork)
        assert isinstance(make("fast", small_random_graph), FastNetwork)

    def test_unknown_engine_raises_with_available_names(self, small_random_graph):
        with pytest.raises(ConfigurationError, match="fast"):
            create_engine(small_random_graph, engine="warp")

    def test_engines_subclass_the_contract(self):
        assert issubclass(SyncNetwork, Engine)
        assert issubclass(FastNetwork, Engine)


@pytest.mark.parametrize("engine", ENGINES)
class TestKernelContract:
    def test_basic_queries_match_reference(self, engine):
        graph = random_connected_graph(24, seed=8)
        network = make(engine, graph)
        assert network.n == 24
        assert network.m == graph.number_of_edges()
        assert network.round == 0
        assert list(network.vertices()) == sorted(graph.nodes())
        vertex = next(iter(network.vertices()))
        state = network.node(vertex)
        assert set(state.neighbors) == set(graph.neighbors(vertex))
        for neighbor in state.neighbors:
            assert state.edge_weights[neighbor] == graph[vertex][neighbor]["weight"]

    def test_unknown_vertex_raises(self, engine):
        network = make(engine, path_graph(4, seed=0))
        with pytest.raises(SimulationError):
            network.node(10_000)

    def test_send_over_non_edge_raises(self, engine):
        network = make(engine, path_graph(4, seed=0))
        with pytest.raises(SimulationError):
            network.send(0, 3, "ping")
        with pytest.raises(SimulationError):
            network.send(10_000, 0, "ping")

    def test_has_edge_matches_reference(self, engine):
        graph = random_connected_graph(10, seed=8)
        network = make(engine, graph)
        wrapped = ConditionedEngine(network, CONDITION_PRESETS["lossy"])
        reference = SyncNetwork(graph)
        vertices = sorted(graph.nodes()) + [10_000]
        for u in vertices:
            for v in vertices:
                expected = reference.has_edge(u, v)
                assert network.has_edge(u, v) is expected
                assert wrapped.has_edge(u, v) is expected

    def test_rejects_invalid_bandwidth(self, engine):
        with pytest.raises(SimulationError):
            make(engine, path_graph(3, seed=0), bandwidth=0)

    def test_rejects_zero_word_message(self, engine):
        network = make(engine, path_graph(3, seed=0), bandwidth=4)
        with pytest.raises(ValueError):
            network.send(0, 1, "empty", words=0)

    def test_multi_word_message_exactly_at_cap(self, engine):
        network = make(engine, path_graph(3, seed=0), bandwidth=3)
        network.send(0, 1, "bulk", payload=(1, 2, 3), words=3)
        with pytest.raises(BandwidthExceededError):
            network.send(0, 1, "more", words=1)
        inboxes = network.deliver_round()
        assert [m.words for m in inboxes[1]] == [3]
        assert network.metrics.words == 3

    def test_multi_word_message_over_cap_raises(self, engine):
        network = make(engine, path_graph(3, seed=0), bandwidth=3)
        with pytest.raises(BandwidthExceededError):
            network.send(0, 1, "bulk", words=4)
        # a failed send must not consume capacity or queue anything
        assert network.pending_count() == 0
        network.send(0, 1, "bulk", words=3)
        assert network.pending_count() == 1

    def test_cumulative_words_over_cap_raise(self, engine):
        network = make(engine, path_graph(3, seed=0), bandwidth=3)
        network.send(0, 1, "a", words=2)
        with pytest.raises(BandwidthExceededError):
            network.send(0, 1, "b", words=2)
        network.send(0, 1, "c", words=1)  # exactly fills the cap
        with pytest.raises(BandwidthExceededError):
            network.send(0, 1, "d", words=1)

    def test_remaining_capacity_after_partial_use(self, engine):
        network = make(engine, path_graph(3, seed=0), bandwidth=4)
        network.send(0, 1, "a", words=3)
        with pytest.raises(BandwidthExceededError):
            network.send(0, 1, "b", words=2)
        # the reverse direction and other edges keep their whole budget
        network.send(1, 0, "c", words=4)
        network.send(1, 2, "d", words=4)
        network.send(0, 1, "e", words=1)  # the one word left
        network.deliver_round()
        # the budget is per round: a new round fits a full-cap message
        network.send(0, 1, "f", words=4)
        assert network.pending_count() == 1

    def test_bandwidth_is_per_directed_edge(self, engine):
        network = make(engine, path_graph(3, seed=0), bandwidth=2)
        network.send(0, 1, "a")
        network.send(0, 1, "b")
        with pytest.raises(BandwidthExceededError):
            network.send(0, 1, "c")
        network.send(1, 0, "d")
        network.send(1, 2, "e")

    def test_delivery_order_and_message_interface(self, engine):
        network = make(engine, path_graph(4, seed=0), bandwidth=2)
        network.send(2, 1, "x", payload=("first",))
        network.send(0, 1, "y", payload=("second",))
        network.send(2, 3, "z")
        inboxes = network.deliver_round()
        # receivers appear in first-message order; inboxes keep send order
        assert list(inboxes) == [1, 3]
        assert [(m.sender, m.kind, m.payload[0]) for m in inboxes[1]] == [
            (2, "x", "first"),
            (0, "y", "second"),
        ]
        message = inboxes[1][0]
        assert message.receiver == 1
        assert message.words == 1
        assert message.sent_in_round == 0

    def test_words_counted_at_delivery(self, engine):
        network = make(engine, path_graph(3, seed=0), bandwidth=4)
        network.send(0, 1, "a", words=3)
        assert network.metrics.words == 0
        network.deliver_round()
        assert network.metrics.words == 3
        assert network.metrics.messages_by_kind["a"] == 1

    def test_checkpoint_and_cost_since(self, engine):
        network = make(engine, path_graph(4, seed=0))
        snapshot = network.checkpoint()
        network.send(0, 1, "a")
        network.deliver_round()
        delta = network.cost_since(snapshot)
        assert delta.rounds == 1 and delta.messages == 1
        assert network.total_cost().messages == 1

    def test_sorted_edges_are_sorted_by_weight(self, engine):
        network = make(engine, random_connected_graph(20, seed=5))
        weights = [weight for weight, _, _ in network.sorted_edges()]
        assert weights == sorted(weights)
