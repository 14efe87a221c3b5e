"""Tests for the protocol driver and the RootedForest structure."""

from __future__ import annotations

import operator

import networkx as nx
import pytest

from repro.baselines.pipeline_mst import pipeline_mst_upcast
from repro.conditions.proxy import ConditionedEngine
from repro.conditions.spec import CONDITION_PRESETS
from repro.exceptions import ConvergenceError, ProtocolError, SimulationError
from repro.graphs import grid_graph, path_graph, random_connected_graph
from repro.simulator.engine import create_engine
from repro.simulator.network import SyncNetwork
from repro.simulator.primitives.bfs import build_bfs_tree
from repro.simulator.primitives.broadcast import forest_broadcast
from repro.simulator.primitives.convergecast import forest_convergecast
from repro.simulator.primitives.direct import _EdgeMessagesProtocol, send_over_edges
from repro.simulator.primitives.intervals import assign_intervals
from repro.simulator.primitives.neighbor_exchange import neighbor_exchange
from repro.simulator.primitives.pipeline import pipelined_downcast, pipelined_upcast
from repro.simulator.primitives.trees import RootedForest
from repro.simulator.protocol import NodeProtocol, ProtocolApi, run_protocol


class _RelayProtocol(NodeProtocol):
    """Vertex 0 sends a token along a path; every vertex finishes on receipt."""

    name = "relay"

    def __init__(self, network):
        super().__init__(network.vertices())
        self.received_at = {}

    def on_start(self, vertex, node, api):
        if vertex == 0:
            api.send(0, 1, "token", payload=(0,))
            self.received_at[0] = 0
            api.finish(0)

    def on_round(self, vertex, node, api, inbox):
        for message in inbox:
            self.received_at[vertex] = message.payload[0] + 1
            successor = vertex + 1
            if successor in node.edge_weights:
                api.send(vertex, successor, "token", payload=(self.received_at[vertex],))
        if vertex in self.received_at:
            api.finish(vertex)

    def result(self, network):
        return dict(self.received_at)


class _NeverFinishesProtocol(NodeProtocol):
    name = "stuck"

    def on_start(self, vertex, node, api):
        pass

    def on_round(self, vertex, node, api, inbox):
        pass

    def result(self, network):
        return None


class _WaitingRelayProtocol(NodeProtocol):
    """Vertex 0 sends a token along a path; every other vertex waits for it."""

    name = "waiting-relay"

    def __init__(self, network):
        super().__init__(network.vertices())
        self.calls = []

    def on_start(self, vertex, node, api):
        if vertex == 0:
            api.send(0, 1, "token")
            api.finish(0)
        else:
            api.wait(vertex)

    def on_round(self, vertex, node, api, inbox):
        self.calls.append((vertex, len(inbox)))
        if vertex + 1 in node.edge_weights:
            api.send(vertex, vertex + 1, "token")
        api.finish(vertex)

    def result(self, network):
        return list(self.calls)


class _InitiatedRelayProtocol(_WaitingRelayProtocol):
    """The waiting relay over chosen participants, started at chosen initiators."""

    name = "initiated-relay"

    def __init__(self, participants, initiators):
        NodeProtocol.__init__(self, participants)
        self.calls = []
        self.started = []
        self._initiators = initiators

    def initiators(self):
        return self._initiators

    def on_start(self, vertex, node, api):
        self.started.append(vertex)
        super().on_start(vertex, node, api)


class _AlwaysWaitingProtocol(NodeProtocol):
    """Every vertex waits for mail that never comes."""

    name = "always-waiting"

    def on_start(self, vertex, node, api):
        api.wait(vertex)

    def on_round(self, vertex, node, api, inbox):
        raise AssertionError(f"waiting vertex {vertex} was called without mail")

    def result(self, network):
        return None


class _UnfinishAfterWaitProtocol(NodeProtocol):
    """Every vertex waits, then takes the wait back with unfinish."""

    name = "unfinish-after-wait"

    def __init__(self, participants):
        super().__init__(participants)
        self.calls = []

    def on_start(self, vertex, node, api):
        api.wait(vertex)
        api.unfinish(vertex)

    def on_round(self, vertex, node, api, inbox):
        self.calls.append((vertex, len(inbox)))
        api.finish(vertex)

    def result(self, network):
        return list(self.calls)


class _StrangerFinishProtocol(NodeProtocol):
    """Vertex 0 finishes itself and vertex 5; vertex 1 waits for mail."""

    name = "stranger-finish"

    def on_start(self, vertex, node, api):
        if vertex == 0:
            api.finish(0)
            api.finish(5)
        else:
            api.wait(vertex)

    def on_round(self, vertex, node, api, inbox):
        raise AssertionError(f"vertex {vertex} was called without mail")

    def result(self, network):
        return "returned"


class _StrangerUnfinishProtocol(NodeProtocol):
    """Vertex 0 unfinishes vertex 6 and waits for the token vertex 1 sends."""

    name = "stranger-unfinish"

    def __init__(self, participants):
        super().__init__(participants)
        self.calls = []

    def on_start(self, vertex, node, api):
        if vertex == 0:
            api.unfinish(6)
            api.wait(0)
        else:
            api.send(1, 0, "token")
            api.finish(1)

    def on_round(self, vertex, node, api, inbox):
        self.calls.append(vertex)
        api.finish(vertex)

    def result(self, network):
        return list(self.calls)


class TestProtocolDriver:
    def test_relay_reaches_every_vertex_and_counts_rounds(self):
        network = SyncNetwork(path_graph(6, seed=0))
        protocol = _RelayProtocol(network)
        hops = run_protocol(network, protocol)
        assert hops == {vertex: vertex for vertex in range(6)}
        # One round per hop along the path.
        assert network.round == 5
        assert network.metrics.messages == 5

    def test_non_terminating_protocol_raises_convergence_error(self):
        network = SyncNetwork(path_graph(3, seed=0))
        with pytest.raises(ConvergenceError):
            run_protocol(network, _NeverFinishesProtocol(network.vertices()), max_rounds=10)

    def test_protocol_requires_participants(self):
        with pytest.raises(ProtocolError):
            _NeverFinishesProtocol([])

    def test_sequential_composition_accumulates_costs(self):
        network = SyncNetwork(path_graph(5, seed=0))
        for _ in range(2):
            run_protocol(network, _RelayProtocol(network))
        assert network.round == 8
        assert network.metrics.messages == 8

    def test_waiting_vertex_is_never_called_with_an_empty_inbox(self):
        network = SyncNetwork(path_graph(6, seed=0))
        calls = run_protocol(network, _WaitingRelayProtocol(network))
        assert calls == [(vertex, 1) for vertex in range(1, 6)]
        assert network.round == 5
        assert network.metrics.messages == 5

    def test_waiting_protocol_without_mail_runs_to_the_round_limit(self):
        network = SyncNetwork(path_graph(3, seed=0))
        with pytest.raises(ConvergenceError) as caught:
            run_protocol(network, _AlwaysWaitingProtocol(network.vertices()), max_rounds=10)
        # No fast-forward: the clock ran every one of the quiet rounds.
        assert network.round == 10
        assert caught.value.finished_participants == 0

    def test_unfinish_wakes_a_waiting_vertex(self):
        network = SyncNetwork(path_graph(3, seed=0))
        calls = run_protocol(network, _UnfinishAfterWaitProtocol(network.vertices()))
        assert calls == [(0, 0), (1, 0), (2, 0)]
        assert network.round == 1

    def test_only_the_initiators_start(self):
        network = SyncNetwork(path_graph(6, seed=0))
        protocol = _InitiatedRelayProtocol(range(6), initiators=(0,))
        calls = run_protocol(network, protocol)
        assert protocol.started == [0]
        # Same run as when every vertex starts and all but 0 wait.
        assert calls == [(vertex, 1) for vertex in range(1, 6)]
        assert (network.round, network.metrics.messages) == (5, 5)

    def test_unknown_waiting_participant_raises_before_round_one(self):
        network = SyncNetwork(path_graph(3, seed=0))
        protocol = _InitiatedRelayProtocol([0, 1, 2, 99], initiators=(0,))
        with pytest.raises(SimulationError, match="unknown vertex 99"):
            run_protocol(network, protocol)
        assert protocol.started == []
        assert (network.round, network.metrics.messages) == (0, 0)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_finishing_a_non_participant_raises(self, engine):
        # Two finished vertices reach the participant count, but vertex 1
        # never finished: the run must not end early with a result.
        network = create_engine(path_graph(8, seed=0), engine=engine)
        with pytest.raises(
            ProtocolError,
            match="protocol 'stranger-finish': vertex 5 finished, but it is not a participant",
        ):
            run_protocol(network, _StrangerFinishProtocol([0, 1]))
        assert network.round == 0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_unfinishing_a_non_participant_raises(self, engine):
        # The driver would otherwise call on_round at vertex 6 every round.
        network = create_engine(path_graph(8, seed=0), engine=engine)
        protocol = _StrangerUnfinishProtocol([0, 1])
        with pytest.raises(
            ProtocolError,
            match="protocol 'stranger-unfinish': unfinish of vertex 6, which is not a participant",
        ):
            run_protocol(network, protocol)
        assert protocol.calls == []
        assert (network.round, network.metrics.messages) == (0, 0)

    def test_initiator_outside_the_participants_raises_before_round_one(self):
        network = SyncNetwork(path_graph(6, seed=0))
        protocol = _InitiatedRelayProtocol([0, 1, 2], initiators=(0, 4))
        with pytest.raises(ProtocolError, match="initiator 4 is not a participant"):
            run_protocol(network, protocol)
        assert protocol.started == []
        assert (network.round, network.metrics.messages) == (0, 0)


#: Families for the waiting differential: high diameter, a grid, low diameter.
WAITING_FAMILIES = {
    "path": lambda: path_graph(12, seed=2),
    "grid": lambda: grid_graph(3, 4, seed=3),
    "random": lambda: random_connected_graph(20, seed=4),
}


def _protocol_runs(graph):
    """One call per in-tree protocol, each on the engine it is given."""
    setup = SyncNetwork(graph)
    tree = build_bfs_tree(setup, root=0).forest
    routing = assign_intervals(setup, tree)
    vertices = tree.vertices
    # Up to three keys per vertex, so the upcast's bandwidth budget binds.
    items = {v: {key: ((v * 7 + key) % 13, v) for key in range(v % 3 + 1)} for v in vertices}
    fragment = {v: v % 4 for v in vertices}
    candidates = {}
    for u, v in sorted(tuple(sorted(edge)) for edge in graph.edges()):
        if fragment[u] != fragment[v]:
            candidate = (graph[u][v]["weight"], u, v, fragment[u], fragment[v])
            candidates.setdefault(u, []).append(candidate)
    return {
        "bfs": lambda net: build_bfs_tree(net, root=0),
        "bcast": lambda net: forest_broadcast(net, tree, {0: "root"}),
        "cvgc": lambda net: forest_convergecast(
            net, tree, dict.fromkeys(vertices, 1), operator.add
        ),
        "ival": lambda net: assign_intervals(net, tree),
        "upcast": lambda net: pipelined_upcast(net, tree, items),
        "downcast": lambda net: pipelined_downcast(
            net, tree, [(v, v) for v in vertices[::2]], routing=routing
        ),
        "gkp-pipeline": lambda net: pipeline_mst_upcast(
            net, tree, candidates, set(fragment.values())
        ),
        "nbrx": lambda net: neighbor_exchange(net, {v: v % 5 for v in vertices}),
        # Both directions of every third tree edge: some vertices send,
        # some receive, some do both and most take no part.
        "edgemsg": lambda net: send_over_edges(
            net,
            [
                message
                for child, parent in tree.edges()[::3]
                for message in ((child, parent, child), (parent, child, parent))
            ],
        ),
    }


def _in_tree_protocols():
    """Every NodeProtocol subclass the package defines."""
    found, pending = [], [NodeProtocol]
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            if subclass.__module__.startswith("repro."):
                found.append(subclass)
    return found


def _start_every_participant(monkeypatch):
    """The reference schedule: every participant starts and none waits.

    ``on_start`` runs at every participant, ``wait()`` is a no-op (so
    every unfinished vertex is called every round), and edge messages
    make every vertex a participant.  Returns the names of the
    protocols whose narrowed initiators were widened.
    """
    monkeypatch.setattr(ProtocolApi, "wait", lambda self, vertex: None)
    widened = []
    for cls in _in_tree_protocols():
        if "initiators" in vars(cls):
            monkeypatch.setattr(cls, "initiators", NodeProtocol.initiators)
            widened.append(cls.name)
    edge_messages_init = _EdgeMessagesProtocol.__init__

    def every_vertex_participates(self, network, messages):
        edge_messages_init(self, network, messages)
        self.participants = tuple(network.vertices())

    monkeypatch.setattr(_EdgeMessagesProtocol, "__init__", every_vertex_participates)
    return sorted(widened)


def _observe(run, graph, engine, condition):
    """One protocol run on a fresh engine: its outcome and everything it charged."""
    network = create_engine(graph, engine=engine)
    if condition is not None:
        network = ConditionedEngine(network, CONDITION_PRESETS[condition], run_seed=0)
    try:
        outcome = run(network)
    except SimulationError as error:
        outcome = type(error).__name__
    metrics = network.metrics
    return outcome, metrics.rounds, metrics.messages, list(metrics.messages_by_kind.items())


@pytest.mark.parametrize("condition", [None, "lossy", "crash-stop"])
@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("family", sorted(WAITING_FAMILIES))
def test_waiting_changes_no_result_or_cost(family, engine, condition, monkeypatch):
    # The shipped schedule starts only the initiators and skips waiting
    # vertices; the reference starts every participant and calls every
    # unfinished vertex every round.  Results, rounds, messages and the
    # per-kind histogram (in key order) must not tell the two apart, and
    # neither may the exception a faulty network ends a run with.
    graph = WAITING_FAMILIES[family]()
    runs = _protocol_runs(graph)
    shipped = {name: _observe(run, graph, engine, condition) for name, run in runs.items()}
    widened = _start_every_participant(monkeypatch)
    assert widened == ["bcast", "bfs", "cvgc", "gkp-pipeline", "ival", "upcast"]
    unskipped = {name: _observe(run, graph, engine, condition) for name, run in runs.items()}
    assert shipped == unskipped
    if condition is None:
        assert not [name for name, observed in shipped.items() if isinstance(observed[0], str)]


class TestRootedForest:
    def test_basic_structure(self):
        forest = RootedForest(parent={0: None, 1: 0, 2: 0, 3: 1, 4: None, 5: 4})
        assert forest.roots == (0, 4)
        assert forest.children[0] == (1, 2)
        assert forest.depth[3] == 2
        assert forest.height == 2
        assert len(forest.vertices) == 6
        assert forest.is_root(4) and not forest.is_root(5)

    def test_edges_are_child_parent_pairs(self):
        forest = RootedForest(parent={0: None, 1: 0})
        assert forest.edges() == [(1, 0)]

    def test_rejects_cycles(self):
        with pytest.raises(ProtocolError):
            RootedForest(parent={0: 1, 1: 0})

    def test_rejects_self_parent(self):
        with pytest.raises(ProtocolError):
            RootedForest(parent={0: 0})

    def test_rejects_unknown_parent(self):
        with pytest.raises(ProtocolError):
            RootedForest(parent={0: None, 1: 7})

    def test_rejects_empty_forest(self):
        with pytest.raises(ProtocolError):
            RootedForest(parent={})

    def test_vertices_and_leaves_are_sorted(self):
        forest = RootedForest(parent={5: None, 3: 5, 1: 5, 4: 3, 9: None})
        assert forest.vertices == (1, 3, 4, 5, 9)
        assert forest.leaves == (1, 4, 9)

    def test_tree_edges_are_checked_once_per_graph(self):
        forest = RootedForest(parent={0: None, 1: 0, 2: 1})
        path = SyncNetwork(path_graph(3, seed=0))
        checked = []
        has_edge = path.has_edge
        path.has_edge = lambda u, v: checked.append((u, v)) or has_edge(u, v)
        for _ in range(3):
            forest_broadcast(path, forest, {0: "x"})
        assert sorted(checked) == [(1, 0), (2, 1)]
        star = nx.Graph()
        star.add_edge(0, 1, weight=1.0)
        star.add_edge(0, 2, weight=2.0)
        with pytest.raises(ProtocolError, match=r"forest_broadcast: tree edge \(2, 1\)"):
            forest_broadcast(SyncNetwork(star), forest, {0: "x"})
