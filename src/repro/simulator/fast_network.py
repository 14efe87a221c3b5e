"""The batched fast kernel (``engine="fast"``).

:class:`FastNetwork` implements the exact same CONGEST(b log n) model as
the reference :class:`~repro.simulator.network.SyncNetwork` -- same
round semantics, same bandwidth enforcement, same cost accounting -- but
restructures the hot path for throughput:

* vertex identities are mapped to dense integer indices once, at
  construction; each directed edge ``u -> v`` owns one flat CSR-style
  slot at ``v``'s position in ``u``'s adjacency run, and a single
  precomputed table resolves ``(u, v)`` to (slot, receiver bucket,
  receiver index) in one lookup;
* in-flight messages are plain tuples (:class:`FastMessage`, a
  ``NamedTuple``) appended to per-receiver buckets -- no per-message
  dataclass allocation and no global pending list to re-partition at
  delivery time;
* per-edge bandwidth accounting uses one flat counter array whose
  entries pack ``generation * (bandwidth + 1) + words_used``: advancing
  the round bumps the generation, which makes every stored value stale
  (it reads as zero words used) without touching the array -- per-round
  reset by generation stamping instead of reallocating dictionaries;
* metrics are charged in bulk per round: message and word totals as one
  addition each, the per-kind histogram through one C-level
  ``Counter.update`` over the round's messages;
* edge checks (:meth:`FastNetwork.has_edge`) answer from the same
  routing table, not from networkx.

The equivalence suite (``tests/test_engine_equivalence.py``) pins down
that both kernels report identical MST edges, round counts, message
counts and per-kind histograms on every algorithm in the library: the
fast kernel buys wall-clock time only, never different numbers.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterable, List, NamedTuple, Tuple

import networkx as nx

from ..exceptions import BandwidthExceededError, SimulationError
from ..graphs.properties import validate_weighted_graph
from ..types import VertexId
from .engine import Engine, register_engine
from .metrics import Metrics
from .node import NodeState

#: C-level field extractors for bulk accounting at delivery time.
_KIND_OF = itemgetter(2)
_WORDS_OF = itemgetter(4)


class FastMessage(NamedTuple):
    """One message in flight, as a plain tuple.

    Field-compatible with :class:`~repro.simulator.message.Message`
    (``sender`` / ``receiver`` / ``kind`` / ``payload`` / ``words`` /
    ``sent_in_round``), so protocol code written against the reference
    kernel consumes fast-kernel inboxes unchanged.  Being a tuple
    subclass, construction costs one C-level allocation; the word-count
    invariant is checked by :meth:`FastNetwork.send` instead of a
    ``__post_init__`` hook.
    """

    sender: VertexId
    receiver: VertexId
    kind: str
    payload: Tuple[Any, ...] = ()
    words: int = 1
    sent_in_round: int = 0


class FastNetwork(Engine):
    """Batched synchronous message-passing kernel over a weighted graph.

    Drop-in replacement for :class:`~repro.simulator.network.SyncNetwork`
    (same constructor signature, same :class:`~repro.simulator.engine.Engine`
    contract, same error types and messages).

    Args:
        graph: connected undirected :class:`networkx.Graph` whose edges
            carry a ``weight`` attribute.
        bandwidth: the ``b`` of CONGEST(b log n); maximum number of words
            per directed edge per round.
        validate: run input validation (disable only in tight loops where
            the caller has already validated the graph).
    """

    __slots__ = (
        "graph",
        "bandwidth",
        "metrics",
        "_n",
        "_m",
        "_vertex_of",
        "_index",
        "_nodes",
        "_edge_info",
        "_edge_packed",
        "_band_span",
        "_gen_base",
        "_generation",
        "_buckets",
        "_touched",
        "_round_value",
    )

    def __init__(self, graph: nx.Graph, bandwidth: int = 1, validate: bool = True) -> None:
        if bandwidth < 1:
            raise SimulationError(f"bandwidth must be >= 1, got {bandwidth}")
        if validate:
            validate_weighted_graph(graph, require_unique_weights=False)
        self.graph = graph
        self.bandwidth = bandwidth
        self.metrics = Metrics()
        self._n = graph.number_of_nodes()
        self._m = graph.number_of_edges()

        order = sorted(graph.nodes())
        self._vertex_of: List[VertexId] = order
        self._index: Dict[VertexId, int] = {vertex: i for i, vertex in enumerate(order)}
        self._buckets: List[List[FastMessage]] = [[] for _ in order]

        # CSR-style adjacency: each directed edge u -> v owns one flat
        # slot, v's position in u's sorted adjacency run; the slot indexes
        # the bandwidth-accounting array.  One lookup per send resolves (sender, receiver) -> (slot, receiver's
        # bucket object, receiver's dense index).  Buckets are never
        # replaced (delivery copies and clears them in place), so the
        # bucket aliases stay valid for the lifetime of the engine.
        index = self._index
        buckets = self._buckets
        nodes: Dict[VertexId, NodeState] = {}
        edge_info: Dict[Tuple[VertexId, VertexId], Tuple[int, List[FastMessage], int]] = {}
        for vertex in order:
            neighbors = tuple(sorted(graph.neighbors(vertex)))
            weights = {u: graph[vertex][u]["weight"] for u in neighbors}
            nodes[vertex] = NodeState(vertex=vertex, neighbors=neighbors, edge_weights=weights)
            for neighbor in neighbors:
                receiver_index = index[neighbor]
                edge_info[(vertex, neighbor)] = (
                    len(edge_info),
                    buckets[receiver_index],
                    receiver_index,
                )
        self._nodes = nodes
        self._edge_info = edge_info

        # Bandwidth accounting: one flat entry per directed edge packing
        # ``generation * span + words_used``; see the module docstring.
        self._band_span = bandwidth + 1
        self._edge_packed: List[int] = [0] * len(edge_info)
        self._generation = 0
        self._gen_base = 0

        self._touched: List[int] = []
        self._round_value = 0

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

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """True when ``{u, v}`` is an edge of the communication graph."""
        return (u, v) in self._edge_info

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
        # Hot path: one table lookup, generation-packed bandwidth
        # counters, and a raw tuple.__new__ (the generated NamedTuple
        # constructor adds a Python frame per message).
        try:
            slot, bucket, receiver_index = self._edge_info[sender, receiver]
        except (KeyError, TypeError):
            raise SimulationError(
                f"cannot send {kind!r}: ({sender}, {receiver}) is not an edge of the graph"
            ) from None
        if words < 1:
            raise ValueError(f"a message must carry at least one word, got {words}")
        base = self._gen_base
        packed = self._edge_packed
        value = packed[slot]
        used = value - base if value > base else 0
        if used + words > self.bandwidth:
            raise BandwidthExceededError(
                f"edge {sender}->{receiver}: {used} word(s) already sent this round, "
                f"adding {words} exceeds bandwidth {self.bandwidth} (message kind {kind!r})"
            )
        packed[slot] = base + used + words
        if not bucket:
            self._touched.append(receiver_index)
        bucket.append(
            tuple.__new__(
                FastMessage, (sender, receiver, kind, payload, words, self._round_value)
            )
        )

    def pending_count(self) -> int:
        """Number of messages queued for delivery in the next round."""
        buckets = self._buckets
        return sum(len(buckets[i]) for i in self._touched)

    def deliver_round(self) -> Dict[VertexId, List[FastMessage]]:
        """Advance the clock by one round and deliver all queued messages.

        Same contract as the reference kernel: receivers appear in
        first-message order, per-receiver lists preserve send order, and
        counters are charged at delivery time -- here in bulk updates
        per round (C-level counting) rather than one call per message.
        """
        metrics = self.metrics
        metrics.record_round()
        self._round_value = metrics.rounds
        self._generation += 1
        self._gen_base = self._generation * self._band_span

        inboxes: Dict[VertexId, List[FastMessage]] = {}
        buckets = self._buckets
        vertex_of = self._vertex_of
        for receiver_index in self._touched:
            bucket = buckets[receiver_index]
            inboxes[vertex_of[receiver_index]] = bucket[:]
            # Clear in place: the _edge_info bucket aliases must stay
            # attached to these exact list objects.
            bucket.clear()
        self._touched = []

        # Chained in touched order, the inboxes hand the histogram its
        # kinds in the order one update per receiver would, so the
        # Counter's key order does not change.
        delivered = list(chain.from_iterable(inboxes.values()))
        metrics.record_bulk(
            len(delivered), sum(map(_WORDS_OF, delivered)), kinds=map(_KIND_OF, delivered)
        )
        return inboxes


register_engine("fast", FastNetwork)
