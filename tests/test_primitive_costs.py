"""Exact cost identities of the one-step primitives, on drawn instances.

Every engine runs the same primitive code, so a primitive that sends
one extra message per vertex passes every engine-equivalence test; the
golden rows catch it only until someone re-pins them.  This module
states each primitive's cost as an identity and checks it on drawn small
graphs, forests with about a fifth of their tree edges cut, and
bandwidths b in {1, 2, 3}, on both pure-Python engines:

* ``forest_broadcast`` and ``forest_convergecast`` take exactly
  ``height(F)`` rounds (the largest depth) and ``|F| - #roots``
  messages;
* ``neighbor_exchange`` takes 1 round and ``2m`` messages (0 rounds on
  a single vertex);
* ``send_over_edges`` takes 1 round and one message per listed pair,
  and 0 rounds for an empty list;
* each run's per-kind histogram holds that primitive's kind only.
"""

from __future__ import annotations

import operator

import networkx as nx
import pytest
from hypothesis import given, HealthCheck, settings
from hypothesis import strategies as st

from repro.simulator.engine import create_engine
from repro.simulator.primitives.broadcast import forest_broadcast
from repro.simulator.primitives.convergecast import forest_convergecast
from repro.simulator.primitives.direct import send_over_edges
from repro.simulator.primitives.neighbor_exchange import neighbor_exchange
from repro.simulator.primitives.trees import RootedForest

ENGINES = ("reference", "fast")

CHEAP = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw, max_vertices=16):
    """A connected weighted graph, a spanning forest of it and a bandwidth.

    The forest is a random spanning tree with each tree edge cut with
    probability 1/5; vertex labels are a random permutation, so parents
    are not always the smaller label.
    """
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    label = draw(st.permutations(range(n)))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    parent = {label[0]: None}
    for index in range(1, n):
        attach = label[draw(st.integers(min_value=0, max_value=index - 1))]
        graph.add_edge(label[index], attach)
        cut = draw(st.integers(min_value=0, max_value=4)) == 0
        parent[label[index]] = None if cut else attach
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    for index, (u, v) in enumerate(sorted(graph.edges())):
        graph[u][v]["weight"] = float(index + 1)
    bandwidth = draw(st.sampled_from([1, 2, 3]))
    return graph, RootedForest(parent=parent), bandwidth


def _run(graph, bandwidth, engine, primitive):
    """Run ``primitive`` on a fresh engine; its result, rounds, messages and kinds."""
    network = create_engine(graph, bandwidth=bandwidth, engine=engine)
    result = primitive(network)
    metrics = network.metrics
    return result, metrics.rounds, metrics.messages, dict(metrics.messages_by_kind)


def _kinds(kind, count):
    return {kind: count} if count else {}


@pytest.mark.parametrize("engine", ENGINES)
class TestForestPrimitives:
    @CHEAP
    @given(instance=instances())
    def test_broadcast_takes_height_rounds_and_one_message_per_tree_edge(
        self, engine, instance
    ):
        graph, forest, bandwidth = instance
        values = {root: ("root", root) for root in forest.roots}
        result, rounds, messages, kinds = _run(
            graph, bandwidth, engine, lambda net: forest_broadcast(net, forest, values)
        )
        tree_edges = len(forest.vertices) - len(forest.roots)
        assert rounds == forest.height
        assert messages == tree_edges
        assert kinds == _kinds("bcast:value", tree_edges)
        root_of = {}
        for vertex in sorted(forest.vertices, key=forest.depth.__getitem__):
            parent = forest.parent[vertex]
            root_of[vertex] = vertex if parent is None else root_of[parent]
        assert result == {vertex: values[root_of[vertex]] for vertex in forest.vertices}

    @CHEAP
    @given(instance=instances())
    def test_convergecast_takes_height_rounds_and_one_message_per_tree_edge(
        self, engine, instance
    ):
        graph, forest, bandwidth = instance
        result, rounds, messages, kinds = _run(
            graph,
            bandwidth,
            engine,
            lambda net: forest_convergecast(
                net, forest, dict.fromkeys(forest.vertices, 1), operator.add
            ),
        )
        tree_edges = len(forest.vertices) - len(forest.roots)
        assert rounds == forest.height
        assert messages == tree_edges
        assert kinds == _kinds("cvgc:aggregate", tree_edges)
        # Each root learns the size of its tree.
        assert sum(result.root_values.values()) == len(forest.vertices)


@pytest.mark.parametrize("engine", ENGINES)
class TestOneRoundPrimitives:
    @CHEAP
    @given(instance=instances())
    def test_neighbor_exchange_takes_one_round_and_two_messages_per_edge(
        self, engine, instance
    ):
        graph, _, bandwidth = instance
        result, rounds, messages, kinds = _run(
            graph, bandwidth, engine, lambda net: neighbor_exchange(net, {v: v for v in graph})
        )
        m = graph.number_of_edges()
        # A single vertex has no neighbours and takes no round.
        assert (rounds, messages) == ((1, 2 * m) if m else (0, 0))
        assert kinds == _kinds("nbrx:value", 2 * m)
        assert result == {v: {u: u for u in graph[v]} for v in graph}

    @CHEAP
    @given(instance=instances(), data=st.data())
    def test_send_over_edges_takes_one_round_and_one_message_per_pair(
        self, engine, instance, data
    ):
        graph, _, bandwidth = instance
        directed = sorted((u, v) for a, b in graph.edges() for u, v in ((a, b), (b, a)))
        # Each directed edge carries up to b messages, the bandwidth's limit.
        copies = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=bandwidth),
                min_size=len(directed),
                max_size=len(directed),
            )
        )
        pairs = [
            (u, v, (u, v, copy))
            for (u, v), count in zip(directed, copies)
            for copy in range(count)
        ]
        pairs = data.draw(st.permutations(pairs))
        result, rounds, messages, kinds = _run(
            graph, bandwidth, engine, lambda net: send_over_edges(net, pairs)
        )
        assert (rounds, messages) == ((1, len(pairs)) if pairs else (0, 0))
        assert kinds == _kinds("edgemsg:direct", len(pairs))
        assert sorted(
            (sender, receiver, payload)
            for receiver, arrivals in result.items()
            for sender, payload in arrivals
        ) == sorted(pairs)
