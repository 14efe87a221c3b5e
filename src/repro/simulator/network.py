"""The synchronous CONGEST(b log n) network kernel.

:class:`SyncNetwork` owns the communication graph, the global round
clock, the message queues, and the :class:`~repro.simulator.metrics.Metrics`
counters.  All communication in the library flows through
:meth:`SyncNetwork.send` / :meth:`SyncNetwork.deliver_round`, which is
what makes the reported round and message counts trustworthy.

Model conventions (see DESIGN.md, Section 6):

* A message sent in round ``r`` is delivered at the beginning of round
  ``r + 1``; delivering a batch of queued messages advances the clock by
  exactly one round.
* Over each directed edge, at most ``bandwidth`` machine words may be
  sent per round.  Protocols that need to move more data must spread it
  over several rounds; violating the cap raises
  :class:`~repro.exceptions.BandwidthExceededError` (it is a bug in the
  protocol, never silently absorbed).
* Local computation is free, as in the paper.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

import networkx as nx

from ..exceptions import BandwidthExceededError, SimulationError
from ..graphs.properties import validate_weighted_graph
from ..types import VertexId
from .engine import Engine, register_engine
from .message import Message
from .metrics import Metrics
from .node import NodeState


class SyncNetwork(Engine):
    """Synchronous message-passing network over a weighted graph.

    This is the *reference* engine (``engine="reference"``): its code is
    written to mirror the model definition line by line.  The batched
    :class:`~repro.simulator.fast_network.FastNetwork` implements the
    same :class:`~repro.simulator.engine.Engine` contract for speed.

    Args:
        graph: connected undirected :class:`networkx.Graph` whose edges
            carry a ``weight`` attribute.
        bandwidth: the ``b`` of CONGEST(b log n); maximum number of words
            per directed edge per round.
        validate: run input validation (disable only in tight loops where
            the caller has already validated the graph).
    """

    def __init__(self, graph: nx.Graph, bandwidth: int = 1, validate: bool = True) -> None:
        if bandwidth < 1:
            raise SimulationError(f"bandwidth must be >= 1, got {bandwidth}")
        if validate:
            validate_weighted_graph(graph, require_unique_weights=False)
        self.graph = graph
        self.bandwidth = bandwidth
        self.metrics = Metrics()
        # The graph is immutable for the lifetime of the engine, so the
        # sizes every bound and rounds-hint computation keeps asking for
        # are cached once (networkx recounts adjacency on each query).
        self._n = graph.number_of_nodes()
        self._m = graph.number_of_edges()
        self._nodes: Dict[VertexId, NodeState] = {}
        for vertex in sorted(graph.nodes()):
            neighbors = tuple(sorted(graph.neighbors(vertex)))
            weights = {u: graph[vertex][u]["weight"] for u in neighbors}
            self._nodes[vertex] = NodeState(
                vertex=vertex, neighbors=neighbors, edge_weights=weights
            )
        self._pending: List[Message] = []
        self._words_this_round: Dict[Tuple[VertexId, VertexId], int] = defaultdict(int)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of vertices (cached; the graph never changes mid-run)."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges (cached; the graph never changes mid-run)."""
        return self._m

    def vertices(self) -> Iterable[VertexId]:
        """Iterate over vertex identities in sorted order."""
        return self._nodes.keys()

    def node(self, vertex: VertexId) -> NodeState:
        """Return the :class:`NodeState` of ``vertex``."""
        try:
            return self._nodes[vertex]
        except KeyError as exc:
            raise SimulationError(f"unknown vertex {vertex}") from exc

    # ------------------------------------------------------------------ #
    # communication
    # ------------------------------------------------------------------ #

    def send(
        self,
        sender: VertexId,
        receiver: VertexId,
        kind: str,
        payload: Tuple[Any, ...] = (),
        words: int = 1,
    ) -> None:
        """Queue a message for delivery at the start of the next round.

        Enforces that the edge exists and that the cumulative number of
        words sent over the directed edge ``sender -> receiver`` in the
        current round stays within the bandwidth.
        """
        if not self.graph.has_edge(sender, receiver):
            raise SimulationError(
                f"cannot send {kind!r}: ({sender}, {receiver}) is not an edge of the graph"
            )
        used = self._words_this_round[(sender, receiver)]
        if used + words > self.bandwidth:
            raise BandwidthExceededError(
                f"edge {sender}->{receiver}: {used} word(s) already sent this round, "
                f"adding {words} exceeds bandwidth {self.bandwidth} (message kind {kind!r})"
            )
        self._words_this_round[(sender, receiver)] += words
        self._pending.append(
            Message(
                sender=sender,
                receiver=receiver,
                kind=kind,
                payload=payload,
                words=words,
                sent_in_round=self.round,
            )
        )

    def pending_count(self) -> int:
        """Number of messages queued for delivery in the next round."""
        return len(self._pending)

    def deliver_round(self) -> Dict[VertexId, List[Message]]:
        """Advance the clock by one round and deliver all queued messages.

        Returns a mapping from receiver vertex to the list of messages it
        receives at the start of the new round (receivers with an empty
        inbox are omitted).  Message and word counters are charged at
        delivery time, i.e. when the transmission actually occupies the
        edge.
        """
        self.metrics.record_round()
        inboxes: Dict[VertexId, List[Message]] = defaultdict(list)
        for message in self._pending:
            self.metrics.record_message(message.kind, message.words)
            inboxes[message.receiver].append(message)
        self._pending = []
        self._words_this_round = defaultdict(int)
        return dict(inboxes)


register_engine("reference", SyncNetwork)
