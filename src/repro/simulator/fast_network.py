"""The batched fast kernel (``engine="fast"``).

:class:`FastNetwork` implements the exact same CONGEST(b log n) model as
the reference :class:`~repro.simulator.network.SyncNetwork` -- same
round semantics, same bandwidth enforcement, same cost accounting -- but
restructures the hot path for throughput:

* vertex identities are mapped to dense integer indices once, at
  construction, and adjacency plus edge weights live in flat CSR-style
  arrays (``_indptr`` / ``_nbr_vertex`` / ``_nbr_weight``); each
  directed edge ``u -> v`` owns the flat slot at ``v``'s position in
  ``u``'s adjacency run, and a single precomputed table resolves
  ``(u, v)`` to (slot, receiver bucket, receiver index) in one lookup;
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

:class:`BatchedEngine` extends the same machinery to *many scenarios at
once*: a whole sweep's graphs are packed into one dense index space
(arena-wide CSR adjacency, weights and bandwidth counters built in a
single pass), and per-scenario *lanes* -- real :class:`FastNetwork`
instances over arena slices -- are vended with an O(n) generation reset
between cells instead of being reconstructed.  The batched campaign
executor (``repro.campaign.executor``) steps a zoo-scale sweep through
these lanes; ``tests/test_batched.py`` pins byte-identity with
standalone execution.
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

    def describe(self) -> str:
        """Human-readable one-line description (used in error messages and logs)."""
        return (
            f"{self.kind}: {self.sender} -> {self.receiver} "
            f"({self.words} word(s), round {self.sent_in_round})"
        )


def _node_states(graph: nx.Graph, order: List[VertexId]) -> Dict[VertexId, NodeState]:
    """Sorted-neighbor :class:`NodeState` table for ``order``.

    Shared by :class:`FastNetwork` and :class:`BatchedEngine` so the
    neighbor ordering and weight extraction -- the parts that must never
    diverge between standalone and arena-lane construction -- exist in
    exactly one place.
    """
    nodes: Dict[VertexId, NodeState] = {}
    for vertex in order:
        neighbors = tuple(sorted(graph.neighbors(vertex)))
        weights = {u: graph[vertex][u]["weight"] for u in neighbors}
        nodes[vertex] = NodeState(
            vertex=vertex, neighbors=neighbors, edge_weights=weights
        )
    return nodes


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
        "_indptr",
        "_nbr_vertex",
        "_nbr_weight",
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
        self._nodes: Dict[VertexId, NodeState] = _node_states(graph, order)
        self._buckets: List[List[FastMessage]] = [[] for _ in order]

        # CSR-style adjacency: vertex i's neighbours occupy the flat range
        # [_indptr[i], _indptr[i+1]); that range position is the directed
        # edge's slot in the bandwidth-accounting array.
        indptr: List[int] = [0]
        nbr_vertex: List[VertexId] = []
        nbr_weight: List[float] = []
        for vertex in order:
            node = self._nodes[vertex]
            nbr_vertex.extend(node.neighbors)
            nbr_weight.extend(node.edge_weights[u] for u in node.neighbors)
            indptr.append(indptr[-1] + len(node.neighbors))
        self._indptr = indptr
        self._nbr_vertex = nbr_vertex
        self._nbr_weight = nbr_weight

        # One lookup per send: (sender, receiver) -> (slot, receiver's
        # bucket object, receiver's dense index).  Buckets are never
        # replaced (delivery copies and clears them in place), so the
        # bucket aliases stay valid for the lifetime of the engine.
        index = self._index
        buckets = self._buckets
        edge_info: Dict[Tuple[VertexId, VertexId], Tuple[int, List[FastMessage], int]] = {}
        for i, vertex in enumerate(order):
            base = indptr[i]
            for j, neighbor in enumerate(self._nodes[vertex].neighbors):
                receiver_index = index[neighbor]
                edge_info[(vertex, neighbor)] = (
                    base + j,
                    buckets[receiver_index],
                    receiver_index,
                )
        self._edge_info = edge_info

        # Bandwidth accounting: one flat entry per directed edge packing
        # ``generation * span + words_used``; see the module docstring.
        self._band_span = bandwidth + 1
        self._edge_packed: List[int] = [0] * indptr[-1]
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

    def _slot(self, sender: VertexId, receiver: VertexId) -> int:
        """Flat slot of the directed edge ``sender -> receiver``, or -1."""
        info = self._edge_info.get((sender, receiver))
        return -1 if info is None else info[0]

    def edge_weight(self, u: VertexId, v: VertexId) -> float:
        """Weight of edge ``{u, v}`` (raises if absent)."""
        slot = self._slot(u, v)
        if slot < 0:
            raise SimulationError(f"no edge between {u} and {v}")
        return self._nbr_weight[slot]

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

    def remaining_capacity(self, sender: VertexId, receiver: VertexId) -> int:
        """Words still available this round over the directed edge ``sender -> receiver``."""
        slot = self._slot(sender, receiver)
        if slot < 0:
            return self.bandwidth
        base = self._gen_base
        value = self._edge_packed[slot]
        used = value - base if value > base else 0
        return self.bandwidth - used

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

    def idle_rounds(self, count: int) -> None:
        """Advance the clock by ``count`` silent rounds (no messages)."""
        if count < 0:
            raise SimulationError(f"cannot advance the clock by {count} rounds")
        if self._touched:
            raise SimulationError("cannot declare idle rounds while messages are pending")
        for _ in range(count):
            self.metrics.record_round()
        self._round_value = self.metrics.rounds
        self._generation += count
        self._gen_base = self._generation * self._band_span


register_engine("fast", FastNetwork)


# ---------------------------------------------------------------------- #
# the batched multi-scenario arena
# ---------------------------------------------------------------------- #


class _ArenaPiece(NamedTuple):
    """One scenario graph's share of the arena's dense index space.

    ``slot_base`` is the graph's offset into the arena-wide flat edge
    arrays: directed edge ``j`` of this graph lives at arena slot
    ``slot_base + j``.  ``flat`` precomputes, once per graph, everything
    a lane's per-``(sender, receiver)`` routing table needs except the
    lane-local inbox buckets.
    """

    graph: nx.Graph
    order: List[VertexId]
    index: Dict[VertexId, int]
    nodes: Dict[VertexId, NodeState]
    flat: List[Tuple[VertexId, VertexId, int, int]]
    slot_base: int
    slot_count: int
    edge_count: int


class _ArenaLane(FastNetwork):
    """A :class:`FastNetwork` view over one scenario of a :class:`BatchedEngine`.

    Identical kernel semantics (it *is* a FastNetwork: every method but
    construction is inherited); only the expensive construction work is
    replaced by slicing the arena's shared, immutable structures.  A
    lane is reused across the cells of a batched sweep that simulate the
    same (graph, bandwidth): :meth:`_reset` restores the
    freshly-constructed state in O(n) without rebuilding the adjacency,
    the routing table or the node states.
    """

    __slots__ = ()

    def __init__(
        self, piece: _ArenaPiece, bandwidth: int, counters: List[int], arena: "BatchedEngine"
    ) -> None:
        if bandwidth < 1:
            raise SimulationError(f"bandwidth must be >= 1, got {bandwidth}")
        self.graph = piece.graph
        self.bandwidth = bandwidth
        self.metrics = Metrics()
        self._n = len(piece.order)
        self._m = piece.edge_count
        self._vertex_of = piece.order
        self._index = piece.index
        self._nodes = piece.nodes
        self._indptr = arena._indptr
        # Neighbor *identities* are served by the NodeStates; only the
        # slot-indexed weight array is consulted post-construction (the
        # edge_weight contract), so the arena does not build a
        # neighbor-identity array at all.
        self._nbr_vertex = ()
        self._nbr_weight = arena._nbr_weight
        buckets: List[List[FastMessage]] = [[] for _ in piece.order]
        self._buckets = buckets
        self._edge_info = {
            (sender, receiver): (slot, buckets[receiver_index], receiver_index)
            for sender, receiver, slot, receiver_index in piece.flat
        }
        self._band_span = bandwidth + 1
        self._edge_packed = counters
        self._generation = 0
        self._gen_base = 0
        self._touched = []
        self._round_value = 0

    def _reset(self) -> None:
        """Restore freshly-constructed state (start of a new cell).

        Bandwidth counters are invalidated by bumping the generation
        (every stored value goes stale, exactly as between rounds), the
        per-vertex scratch memories are dropped, and any messages a
        crashed previous run left in flight are discarded.
        """
        self.metrics = Metrics()
        self._round_value = 0
        self._generation += 1
        self._gen_base = self._generation * self._band_span
        if self._touched:
            for receiver_index in self._touched:
                self._buckets[receiver_index].clear()
            self._touched = []
        for node in self._nodes.values():
            node.memory.clear()


class BatchedEngine:
    """Many small scenario graphs packed into one dense index space.

    The arena maps every directed edge of a batch to one dense global
    slot in a single construction pass: slot-indexed edge weights live
    in one arena-wide flat array (serving the ``edge_weight`` contract
    of every lane), and every directed edge owns one slot in a shared
    flat bandwidth-counter array (one array per bandwidth value in use;
    scenarios occupy disjoint slot ranges, and each lane invalidates its
    range by generation stamping, so no per-cell zeroing is needed).
    Neighbor identities are carried by the per-graph
    :class:`~repro.simulator.node.NodeState` tables, shared across the
    lanes of a graph.

    :meth:`lane` vends a :class:`FastNetwork`-compatible engine for one
    scenario: the batched executor steps through a sweep's cells
    re-using these lanes, so per-cell cost shrinks to the simulation
    itself -- graph adjacency, node states, routing tables and counter
    storage are built once per batch instead of once per cell.  Lanes
    are real ``FastNetwork`` instances, so a batched cell reports
    byte-identical rounds, messages and MST edges to a standalone run
    (``tests/test_batched.py`` pins this down).

    Args:
        graphs: the scenario graphs to pack (deduplicated by identity).
        validate: validate each distinct graph once at packing time.
    """

    def __init__(self, graphs: Iterable[nx.Graph], validate: bool = True) -> None:
        self._pieces: Dict[int, _ArenaPiece] = {}
        self._indptr: List[int] = [0]
        self._nbr_weight: List[float] = []
        self._counters: Dict[int, List[int]] = {}
        self._lanes: Dict[Tuple[int, int], _ArenaLane] = {}
        # Array-kernel lane state (allocated lazily on the first
        # array_lane() call; see repro.simulator.array_network):
        # per-bandwidth arena-wide numpy counter arrays and one shared
        # triple of numeric message-column arrays that lanes slice.
        self._array_lanes: Dict[Tuple[int, int], FastNetwork] = {}
        self._array_counters: Dict[int, Any] = {}
        self._array_columns: Any = None
        for graph in graphs:
            self.add_graph(graph, validate=validate)

    # -- packing ---------------------------------------------------------

    def add_graph(self, graph: nx.Graph, validate: bool = True) -> None:
        """Pack one scenario graph into the arena (idempotent by identity)."""
        # repro: allow[DET204] arena keyed by live graph identity, never emitted
        if id(graph) in self._pieces:
            return
        if validate:
            validate_weighted_graph(graph, require_unique_weights=False)
        indptr = self._indptr
        nbr_weight = self._nbr_weight
        slot_base = indptr[-1]
        order = sorted(graph.nodes())
        index = {vertex: i for i, vertex in enumerate(order)}
        nodes = _node_states(graph, order)
        flat: List[Tuple[VertexId, VertexId, int, int]] = []
        for vertex in order:
            node = nodes[vertex]
            base = indptr[-1]
            for j, neighbor in enumerate(node.neighbors):
                flat.append((vertex, neighbor, base + j, index[neighbor]))
            nbr_weight.extend(node.edge_weights[u] for u in node.neighbors)
            indptr.append(base + len(node.neighbors))
        # repro: allow[DET204] arena keyed by live graph identity, never emitted
        self._pieces[id(graph)] = _ArenaPiece(
            graph=graph,
            order=order,
            index=index,
            nodes=nodes,
            flat=flat,
            slot_base=slot_base,
            slot_count=indptr[-1] - slot_base,
            edge_count=graph.number_of_edges(),
        )
        # Already-allocated counter arrays must cover the new slots.
        for counters in self._counters.values():
            counters.extend([0] * (indptr[-1] - len(counters)))

    # -- queries ---------------------------------------------------------

    @property
    def graph_count(self) -> int:
        """Number of distinct scenario graphs packed into the arena."""
        return len(self._pieces)

    @property
    def total_vertices(self) -> int:
        """Vertices across all packed scenarios (the dense index space)."""
        return sum(len(piece.order) for piece in self._pieces.values())

    @property
    def total_slots(self) -> int:
        """Directed-edge slots across all packed scenarios."""
        return self._indptr[-1]

    def has_graph(self, graph: nx.Graph) -> bool:
        """True when ``graph`` (by identity) is packed into the arena."""
        # repro: allow[DET204] arena keyed by live graph identity, never emitted
        return id(graph) in self._pieces

    # -- lanes -----------------------------------------------------------

    def lane(self, graph: nx.Graph, bandwidth: int = 1) -> FastNetwork:
        """A fresh-state :class:`FastNetwork` for one scenario of the batch.

        The lane for a given (graph, bandwidth) is constructed once and
        reset on every subsequent vend; callers must not interleave two
        simulations on the same lane.
        """
        # repro: allow[DET204] arena keyed by live graph identity, never emitted
        piece = self._pieces.get(id(graph))
        if piece is None:
            raise SimulationError(
                "graph is not part of this batch; pack it with add_graph() first"
            )
        # repro: allow[DET204] arena keyed by live graph identity, never emitted
        key = (id(graph), bandwidth)
        lane = self._lanes.get(key)
        if lane is None:
            counters = self._counters.get(bandwidth)
            if counters is None:
                counters = [0] * self.total_slots
                self._counters[bandwidth] = counters
            lane = _ArenaLane(piece, bandwidth, counters, self)
            self._lanes[key] = lane
        lane._reset()
        return lane

    def array_lane(self, graph: nx.Graph, bandwidth: int = 1):
        """A fresh-state array-kernel engine for one scenario of the batch.

        The numpy counterpart of :meth:`lane`: the vended engine is a
        real :class:`~repro.simulator.array_network.ArrayNetwork` whose
        bandwidth counters and numeric message columns are slices of
        arena-wide arrays (disjoint per scenario, shared per batch).
        Requires numpy; raises
        :class:`~repro.exceptions.ConfigurationError` without it.
        """
        # repro: allow[DET204] arena keyed by live graph identity, never emitted
        piece = self._pieces.get(id(graph))
        if piece is None:
            raise SimulationError(
                "graph is not part of this batch; pack it with add_graph() first"
            )
        # repro: allow[DET204] arena keyed by live graph identity, never emitted
        key = (id(graph), bandwidth)
        lane = self._array_lanes.get(key)
        if lane is None:
            from .array_network import make_arena_lane

            lane = make_arena_lane(self, piece, bandwidth)
            self._array_lanes[key] = lane
        lane._reset()
        return lane
