"""The batched fast kernel (``engine="fast"``).

:class:`FastNetwork` implements the exact same CONGEST(b log n) model as
the reference :class:`~repro.simulator.network.SyncNetwork` -- same
round semantics, same bandwidth enforcement, same cost accounting -- but
restructures the hot path for throughput:

* each directed edge ``u -> v`` owns one flat CSR-style slot at
  ``v``'s position in ``u``'s adjacency run, and a single precomputed
  table resolves ``(u, v)`` to its slot in one lookup;
* in-flight messages are plain tuples (:class:`FastMessage`, a
  ``NamedTuple``) appended to per-receiver lists of one pending dict,
  which delivery hands out whole -- no per-message dataclass
  allocation, no global pending list to re-partition and no
  per-receiver copy at delivery time;
* per-edge bandwidth accounting uses one flat counter array whose
  entries pack ``generation * (bandwidth + 1) + words_used``: advancing
  the round bumps the generation, which makes every stored value stale
  (it reads as zero words used) without touching the array -- per-round
  reset by generation stamping instead of reallocating dictionaries;
* metrics are charged in one call per delivered round: the clock,
  message and word totals as one addition each, and the per-kind
  histogram through one C-level tally over the round's messages;
* edge checks (:meth:`FastNetwork.has_edge`) answer from the same
  slot table, not from networkx.

The equivalence suite (``tests/test_engine_equivalence.py``) pins down
that both kernels report identical MST edges, round counts, message
counts and per-kind histograms on every algorithm in the library: the
fast kernel buys wall-clock time only, never different numbers.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Tuple

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
#: builds a FastMessage without the generated constructor's Python frame
_new_tuple = tuple.__new__


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


class _NodeTable(dict):
    """Vertex -> :class:`NodeState`; a missing vertex raises :class:`SimulationError`.

    Its bound ``__getitem__`` is the node lookup :meth:`FastNetwork.node_lookup`
    hands the round driver: a C call, with no Python frame per visit.
    """

    __slots__ = ()

    def __missing__(self, vertex: VertexId) -> NodeState:
        raise SimulationError(f"unknown vertex {vertex}")


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
        "_nodes",
        "_slot_of",
        "_edge_packed",
        "_band_span",
        "_gen_base",
        "_pending",
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

        # CSR-style adjacency: each directed edge u -> v owns one flat
        # slot, v's position in u's sorted adjacency run; the slot
        # indexes the bandwidth-accounting array.
        nodes = _NodeTable()
        slot_of: Dict[Tuple[VertexId, VertexId], int] = {}
        for vertex in sorted(graph.nodes()):
            neighbors = tuple(sorted(graph.neighbors(vertex)))
            weights = {u: graph[vertex][u]["weight"] for u in neighbors}
            nodes[vertex] = NodeState(vertex=vertex, neighbors=neighbors, edge_weights=weights)
            for neighbor in neighbors:
                slot_of[(vertex, neighbor)] = len(slot_of)
        self._nodes = nodes
        self._slot_of = slot_of

        # Bandwidth accounting: one flat entry per directed edge packing
        # ``generation * span + words_used``; see the module docstring.
        # ``_gen_base`` is the current generation times the span.
        self._band_span = bandwidth + 1
        self._edge_packed: List[int] = [0] * len(slot_of)
        self._gen_base = 0

        #: receiver -> the messages it gets next round, in send order;
        #: receivers in first-message order
        self._pending: Dict[VertexId, List[FastMessage]] = {}
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
        return self._nodes[vertex]

    def node_lookup(self) -> Callable[[VertexId], NodeState]:
        """The node table's own ``__getitem__``: :meth:`node` without its frame."""
        return self._nodes.__getitem__

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """True when ``{u, v}`` is an edge of the communication graph."""
        return (u, v) in self._slot_of

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
            slot = self._slot_of[sender, receiver]
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
        message = _new_tuple(
            FastMessage, (sender, receiver, kind, payload, words, self._round_value)
        )
        pending = self._pending
        inbox = pending.get(receiver)
        if inbox is None:
            pending[receiver] = [message]
        else:
            inbox.append(message)

    def pending_count(self) -> int:
        """Number of messages queued for delivery in the next round."""
        return sum(map(len, self._pending.values()))

    def deliver_round(self) -> Dict[VertexId, List[FastMessage]]:
        """Advance the clock by one round and deliver all queued messages.

        Same contract as the reference kernel: receivers appear in
        first-message order, per-receiver lists preserve send order, and
        counters are charged at delivery time -- here through one
        :meth:`Metrics.record_delivered_round` call per round (C-level
        counting) rather than one call per message.  The pending dict
        itself is the round's inboxes; an empty round charges only the
        clock.
        """
        metrics = self.metrics
        self._round_value = metrics.rounds + 1
        self._gen_base += self._band_span
        inboxes = self._pending
        if not inboxes:
            metrics.record_round()
            return {}
        self._pending = {}
        if len(inboxes) == 1:
            (delivered,) = inboxes.values()
        else:
            # Chained in first-message order, the inboxes hand the
            # histogram its kinds in the order one update per receiver
            # would, so the Counter's key order does not change.
            delivered = list(chain.from_iterable(inboxes.values()))
        metrics.record_delivered_round(
            len(delivered), sum(map(_WORDS_OF, delivered)), map(_KIND_OF, delivered)
        )
        return inboxes

register_engine("fast", FastNetwork)
