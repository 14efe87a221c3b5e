"""The numpy structure-of-arrays kernel (``engine="array"``).

:class:`ArrayNetwork` implements the exact same CONGEST(b log n) model
as the reference kernel and :class:`~repro.simulator.fast_network.FastNetwork`
-- same round semantics, same bandwidth enforcement, same cost
accounting, byte-identical reported numbers -- but restructures the data
plane around flat arrays instead of per-message Python objects:

* CSR adjacency (``indptr`` / dense neighbour indices) is built once
  per *graph content* and cached in a small LRU keyed by a content hash
  (:func:`csr_layout`), so repeated cells on the same instance -- the
  common sweep case -- skip the rebuild entirely;
* in-flight messages live in preallocated structure-of-arrays columns
  (numpy ``sender`` / ``receiver`` / ``words`` columns plus Python-list
  ``kind`` / ``payload`` columns, advanced by one shared fill counter)
  instead of per-message tuples;
* a whole-neighbourhood broadcast (:meth:`Engine.send_to_neighbors`,
  the dominant operation of flooding-style protocols) is one vectorized
  scatter: a slice fill of the bandwidth counters, a slice copy of the
  CSR receiver run into the message columns, and two C-level list slice
  assignments -- O(1) numpy calls per broadcast instead of O(degree)
  Python ``send`` frames;
* single-target sends are *staged* in plain Python lists (three list
  appends instead of three numpy scalar stores per message) and flushed
  into the numpy columns with one vectorized slice assignment per
  column -- at the next broadcast, to preserve global send order, or at
  delivery; a round consisting only of point sends builds its inboxes
  straight from the staged lists and never touches numpy at all, so
  point-send-heavy protocol rounds pay the fast kernel's cost shape
  rather than numpy's scalar-indexing overhead;
* per-edge bandwidth accounting uses the same generation-stamped
  packing as the fast kernel (``generation * (bandwidth+1) + words``),
  held in one numpy array so a broadcast checks a whole neighbourhood
  with one array reduction;
* round delivery charges metrics as array reductions (one ``sum`` for
  words, one C-level ``Counter.update`` for the per-kind histogram) and
  returns *lazily materialized* inboxes: receivers and per-inbox
  lengths are computed by vectorized grouping, while the per-message
  :class:`~repro.simulator.fast_network.FastMessage` tuples are only
  built if a consumer actually iterates or indexes an inbox.  Protocols
  that read every message pay exactly the fast kernel's materialization
  cost; aggregate consumers (count/len-style synchronizer patterns)
  skip it entirely.

Semantics stay byte-identical because every observable decision point is
shared with the fast kernel: vertices and neighbours are ordered by the
same sorts, a broadcast emits in sorted-neighbour order exactly like the
default per-neighbour loop, a bandwidth violation inside a broadcast
replays the whole broadcast through the sequential loop (committing the
same prefix and raising the same error at the same neighbour), and
delivery preserves global send order per receiver with receivers keyed
in first-message order.  ``tests/test_engine_equivalence.py`` and the
golden-regression fixture pin this down across the full algorithm x
graph matrix.

numpy is an optional dependency (the ``[fast]`` extra).  When it is not
importable this module still imports cleanly: the engine registry simply
does not advertise ``"array"``, and selecting it raises an actionable
:class:`~repro.exceptions.ConfigurationError` instead of an ImportError.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from itertools import repeat
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import networkx as nx

try:  # pragma: no cover - exercised via tests that stub np to None
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from ..exceptions import BandwidthExceededError, ConfigurationError, SimulationError
from ..graphs.properties import validate_weighted_graph
from ..types import VertexId
from .engine import Engine, register_engine, register_unavailable_engine
from .fast_network import FastMessage
from .metrics import Metrics
from .node import NodeState

#: Why the engine is unavailable without numpy (surfaced by the registry).
_NUMPY_MISSING_REASON = (
    "numpy is not installed; install the optional extra: "
    "pip install 'repro-elkin-mst[fast]'"
)

#: Broadcasts below this degree take the plain per-neighbour loop: the
#: fixed cost of a handful of numpy slice operations only amortizes once
#: a neighbourhood has a few entries.
_VECTOR_DEGREE_FLOOR = 4

#: Deliveries at or below this many messages build plain dict-of-list
#: inboxes eagerly (point-send-heavy algorithm rounds), skipping the
#: vectorized grouping whose numpy fixed cost would dominate.
_EAGER_DELIVERY_LIMIT = 32


# ---------------------------------------------------------------------- #
# CSR layout, content-hashed and LRU-cached
# ---------------------------------------------------------------------- #


class _CSRLayout(NamedTuple):
    """Immutable per-graph-content adjacency structures.

    Shared by every :class:`ArrayNetwork` simulating a graph with this
    content; nothing in here may ever be mutated.  The per-vertex
    ``edge_weights`` dicts are handed to
    :class:`~repro.simulator.node.NodeState` by reference -- protocols
    treat node weight tables as read-only.
    """

    n: int
    m: int
    order: List[VertexId]
    index: Dict[VertexId, int]
    neighbors: Dict[VertexId, Tuple[VertexId, ...]]
    edge_weights: Dict[VertexId, Dict[VertexId, float]]
    indptr: List[int]
    nbr_dense: Any  # np.ndarray[int64], one dense receiver index per slot
    edge_info: Dict[Tuple[VertexId, VertexId], Tuple[int, int, int]]
    slot_count: int


_LAYOUT_CACHE: "OrderedDict[Tuple, _CSRLayout]" = OrderedDict()
_LAYOUT_CACHE_MAXSIZE = 32
_layout_stats = {"hits": 0, "misses": 0}


def _graph_signature(graph: nx.Graph) -> Tuple:
    """Order-independent content hash of a weighted graph.

    Two graphs with the same vertex set and the same weighted edge set
    map to the same signature regardless of object identity or
    insertion order, so sweep cells re-drawing the same deterministic
    instance share one cached layout.
    """
    edge_sum = 0
    edge_xor = 0
    for u, v, weight in graph.edges(data="weight"):
        pair = hash((u, v, weight)) ^ hash((v, u, weight))
        edge_sum = (edge_sum + pair) & 0xFFFFFFFFFFFFFFFF
        edge_xor ^= pair
    node_xor = 0
    for vertex in graph.nodes():
        node_xor ^= hash(vertex)
    return (
        graph.number_of_nodes(),
        graph.number_of_edges(),
        edge_sum,
        edge_xor,
        node_xor,
    )


def _build_layout(graph: nx.Graph) -> _CSRLayout:
    order = sorted(graph.nodes())
    index = {vertex: i for i, vertex in enumerate(order)}
    neighbors: Dict[VertexId, Tuple[VertexId, ...]] = {}
    edge_weights: Dict[VertexId, Dict[VertexId, float]] = {}
    indptr: List[int] = [0]
    nbr_dense: List[int] = []
    edge_info: Dict[Tuple[VertexId, VertexId], Tuple[int, int, int]] = {}
    for i, vertex in enumerate(order):
        nbrs = tuple(sorted(graph.neighbors(vertex)))
        neighbors[vertex] = nbrs
        row = graph[vertex]
        table = {u: row[u]["weight"] for u in nbrs}
        edge_weights[vertex] = table
        base = indptr[-1]
        for j, neighbor in enumerate(nbrs):
            receiver_index = index[neighbor]
            edge_info[(vertex, neighbor)] = (base + j, i, receiver_index)
            nbr_dense.append(receiver_index)
        indptr.append(base + len(nbrs))
    return _CSRLayout(
        n=len(order),
        m=graph.number_of_edges(),
        order=order,
        index=index,
        neighbors=neighbors,
        edge_weights=edge_weights,
        indptr=indptr,
        nbr_dense=np.asarray(nbr_dense, dtype=np.int64),
        edge_info=edge_info,
        slot_count=indptr[-1],
    )


def csr_layout(graph: nx.Graph) -> _CSRLayout:
    """The CSR adjacency layout for ``graph``, cached by content hash.

    The cache is a small LRU shared by every :class:`ArrayNetwork`
    construction: repeated cells on the same instance (the common sweep
    case) skip the O(n + m) rebuild.
    """
    if np is None:
        raise ConfigurationError(f"cannot build a CSR layout: {_NUMPY_MISSING_REASON}")
    key = _graph_signature(graph)
    layout = _LAYOUT_CACHE.get(key)
    if layout is not None:
        _layout_stats["hits"] += 1
        _LAYOUT_CACHE.move_to_end(key)
        return layout
    _layout_stats["misses"] += 1
    layout = _build_layout(graph)
    _LAYOUT_CACHE[key] = layout
    while len(_LAYOUT_CACHE) > _LAYOUT_CACHE_MAXSIZE:
        _LAYOUT_CACHE.popitem(last=False)
    return layout


def layout_cache_info() -> Dict[str, int]:
    """Hit/miss/size statistics of the layout LRU (for tests and tuning)."""
    return {
        "hits": _layout_stats["hits"],
        "misses": _layout_stats["misses"],
        "size": len(_LAYOUT_CACHE),
        "maxsize": _LAYOUT_CACHE_MAXSIZE,
    }


def clear_layout_cache() -> None:
    """Drop every cached layout and reset the statistics."""
    _LAYOUT_CACHE.clear()
    _layout_stats["hits"] = 0
    _layout_stats["misses"] = 0


# ---------------------------------------------------------------------- #
# lazily materialized inboxes
# ---------------------------------------------------------------------- #

_ARANGE: Any = None


def _ascending(fill: int) -> Any:
    """A reusable ``arange(fill)`` (grown on demand, never shrunk)."""
    global _ARANGE
    if _ARANGE is None or len(_ARANGE) < fill:
        _ARANGE = np.arange(max(fill, 1024), dtype=np.int64)
    return _ARANGE[:fill]


class _RoundColumns:
    """One large round's message columns, turned into inboxes once.

    The views of the round share it; it holds no reference back to them
    or to the mapping that holds them, so a round's inboxes form no
    reference cycle and are freed as soon as the round's consumer drops
    them, with Python's cyclic collector on or off.
    """

    __slots__ = (
        "_senders",
        "_recv",
        "_kinds",
        "_payloads",
        "_words",
        "_round",
        "_vertex_of",
        "_order",
        "_buckets",
    )

    def __init__(
        self,
        senders: Any,
        recv: Any,
        kinds: List[str],
        payloads: List[Tuple[Any, ...]],
        words: Any,
        round_value: int,
        vertex_of: List[VertexId],
        order: List[int],
    ) -> None:
        self._senders = senders
        self._recv = recv
        self._kinds = kinds
        self._payloads = payloads
        self._words = words
        self._round = round_value
        self._vertex_of = vertex_of
        self._order = order
        self._buckets: Optional[Dict[int, List[FastMessage]]] = None

    def buckets(self) -> Dict[int, List[FastMessage]]:
        """Receiver index -> its messages in send order, built on first call."""
        buckets = self._buckets
        if buckets is not None:
            return buckets
        vertex_of = self._vertex_of
        recv_list = self._recv.tolist()
        sender_vertices = [vertex_of[i] for i in self._senders.tolist()]
        receiver_vertices = [vertex_of[i] for i in recv_list]
        messages = list(
            map(
                FastMessage._make,
                zip(
                    sender_vertices,
                    receiver_vertices,
                    self._kinds,
                    self._payloads,
                    self._words.tolist(),
                    repeat(self._round),
                ),
            )
        )
        buckets = self._buckets = {index: [] for index in self._order}
        for receiver_index, message in zip(recv_list, messages):
            buckets[receiver_index].append(message)
        return buckets


class _InboxView(Sequence):
    """One receiver's inbox, materialized on first per-message access.

    ``len`` and truthiness come straight from the vectorized group
    counts; iterating or indexing triggers the round's one-shot
    materialization of every inbox.  Messages are the same
    :class:`~repro.simulator.fast_network.FastMessage` tuples the fast
    kernel delivers, in the same global send order.
    """

    __slots__ = ("_columns", "_receiver_index", "_count", "_list")

    def __init__(self, columns: _RoundColumns, receiver_index: int, count: int) -> None:
        self._columns = columns
        self._receiver_index = receiver_index
        self._count = count
        self._list: Optional[List[FastMessage]] = None

    def _materialized(self) -> List[FastMessage]:
        messages = self._list
        if messages is None:
            messages = self._list = self._columns.buckets()[self._receiver_index]
        return messages

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self._materialized())

    def __getitem__(self, item):
        return self._materialized()[item]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _InboxView):
            other = other._materialized()
        if isinstance(other, (list, tuple)):
            return self._materialized() == list(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # mutable-equivalent container, like list

    def __repr__(self) -> str:
        return repr(self._materialized())


class _LazyInboxes(dict):
    """The delivery mapping: receiver vertex -> :class:`_InboxView`.

    A real ``dict`` (so ``.get`` / iteration / membership run at native
    speed in the protocol driver) whose keys are inserted in
    first-message order, exactly like the eager kernels.  The message
    columns snapshotted from the engine stay untouched until a consumer
    forces materialization.
    """

    __slots__ = ()

    def __init__(
        self,
        senders: Any,
        recv: Any,
        kinds: List[str],
        payloads: List[Tuple[Any, ...]],
        words: Any,
        round_value: int,
        vertex_of: List[VertexId],
    ) -> None:
        dict.__init__(self)
        n = len(vertex_of)
        fill = len(recv)
        if fill >= (n >> 2):
            # Dense delivery (broadcast storms): O(n + fill) grouping.
            # The reversed fancy assignment leaves, for every receiver,
            # the index of its *first* message (later writes win, and the
            # sequence is reversed), giving first-message key order
            # without sorting all `fill` entries like np.unique would.
            counts = np.bincount(recv, minlength=n)
            present = np.nonzero(counts)[0]
            first = np.empty(n, dtype=np.int64)
            first[recv[::-1]] = _ascending(fill)[::-1]
            positions = np.argsort(first[present], kind="stable")
            order = present[positions].tolist()
            counts_in_order = counts[present[positions]].tolist()
        else:
            unique, first, counts = np.unique(recv, return_index=True, return_counts=True)
            positions = np.argsort(first, kind="stable")
            order = unique[positions].tolist()
            counts_in_order = counts[positions].tolist()
        columns = _RoundColumns(
            senders, recv, kinds, payloads, words, round_value, vertex_of, order
        )
        setitem = dict.__setitem__
        for receiver_index, count in zip(order, counts_in_order):
            setitem(self, vertex_of[receiver_index], _InboxView(columns, receiver_index, count))


# ---------------------------------------------------------------------- #
# the kernel
# ---------------------------------------------------------------------- #


class ArrayNetwork(Engine):
    """numpy structure-of-arrays synchronous message-passing kernel.

    Drop-in replacement for the other kernels (same constructor
    signature, same :class:`~repro.simulator.engine.Engine` contract,
    same error types and messages).  Point sends cost about the same as
    the fast kernel; whole-neighbourhood broadcasts and delivery
    accounting are vectorized (see the module docstring).

    Args:
        graph: connected undirected :class:`networkx.Graph` whose edges
            carry a ``weight`` attribute.
        bandwidth: the ``b`` of CONGEST(b log n); maximum number of
            words per directed edge per round.
        validate: run input validation (disable only in tight loops
            where the caller has already validated the graph).

    Raises:
        ConfigurationError: when numpy is not installed.
    """

    __slots__ = (
        "graph",
        "bandwidth",
        "metrics",
        "_layout",
        "_n",
        "_m",
        "_vertex_of",
        "_index",
        "_nodes",
        "_indptr",
        "_nbr_dense",
        "_edge_info",
        "_band",
        "_band_span",
        "_generation",
        "_gen_base",
        "_out_gen",
        "_col_sender",
        "_col_receiver",
        "_col_words",
        "_col_kind",
        "_col_payload",
        "_pt_sender",
        "_pt_receiver",
        "_pt_words",
        "_pt_kind",
        "_pt_payload",
        "_cap",
        "_fill",
        "_round_value",
        "_round_kind",
    )

    def __init__(self, graph: nx.Graph, bandwidth: int = 1, validate: bool = True) -> None:
        if np is None:
            raise ConfigurationError(
                f"the 'array' engine needs numpy: {_NUMPY_MISSING_REASON}"
            )
        if bandwidth < 1:
            raise SimulationError(f"bandwidth must be >= 1, got {bandwidth}")
        if validate:
            validate_weighted_graph(graph, require_unique_weights=False)
        layout = csr_layout(graph)
        self.graph = graph
        self.bandwidth = bandwidth
        self.metrics = Metrics()
        self._layout = layout
        self._n = layout.n
        self._m = layout.m
        self._vertex_of = layout.order
        self._index = layout.index
        self._nodes = {
            vertex: NodeState(
                vertex=vertex,
                neighbors=layout.neighbors[vertex],
                edge_weights=layout.edge_weights[vertex],
            )
            for vertex in layout.order
        }
        self._indptr = layout.indptr
        self._nbr_dense = layout.nbr_dense
        self._edge_info = layout.edge_info
        self._band = np.zeros(layout.slot_count, dtype=np.int64)
        self._band_span = bandwidth + 1
        self._generation = 0
        self._gen_base = 0
        # Last generation in which each vertex charged any of its
        # outgoing slots; lets a broadcast from an untouched vertex skip
        # the per-slot bandwidth reduction entirely.
        self._out_gen = [-1] * layout.n
        cap = max(layout.slot_count, 16)
        self._col_sender = np.empty(cap, dtype=np.int64)
        self._col_receiver = np.empty(cap, dtype=np.int64)
        self._col_words = np.empty(cap, dtype=np.int64)
        self._col_kind: List[Any] = [None] * cap
        self._col_payload: List[Any] = [None] * cap
        # Point-send staging: single-target sends append to these plain
        # Python lists (three list appends instead of three numpy scalar
        # stores) and are flushed into the numpy columns in one
        # vectorized slice assignment -- at the next whole-neighbourhood
        # broadcast (so global send order is preserved) or at delivery.
        # A round made up entirely of point sends never touches the
        # numpy columns at all: its inboxes are built straight from the
        # staged lists, exactly like the fast kernel.
        self._pt_sender: List[int] = []
        self._pt_receiver: List[int] = []
        self._pt_words: List[int] = []
        self._pt_kind: List[Any] = []
        self._pt_payload: List[Any] = []
        self._cap = cap
        self._fill = 0
        self._round_value = 0
        # The round's single message kind, ``None`` before the first
        # send of a round, ``False`` once two kinds mix; lets delivery
        # charge the per-kind histogram in O(1) for uniform rounds
        # (broadcast storms) instead of a counting pass over the fill.
        self._round_kind: Any = None

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

    def vertices(self):
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
        try:
            slot, sender_index, receiver_index = self._edge_info[sender, receiver]
        except (KeyError, TypeError):
            raise SimulationError(
                f"cannot send {kind!r}: ({sender}, {receiver}) is not an edge of the graph"
            ) from None
        if words < 1:
            raise ValueError(f"a message must carry at least one word, got {words}")
        base = self._gen_base
        band = self._band
        value = int(band[slot])
        used = value - base if value > base else 0
        if used + words > self.bandwidth:
            raise BandwidthExceededError(
                f"edge {sender}->{receiver}: {used} word(s) already sent this round, "
                f"adding {words} exceeds bandwidth {self.bandwidth} (message kind {kind!r})"
            )
        band[slot] = base + used + words
        self._out_gen[sender_index] = self._generation
        round_kind = self._round_kind
        if round_kind is None:
            self._round_kind = kind
        elif round_kind is not False and round_kind != kind:
            self._round_kind = False
        self._pt_sender.append(sender_index)
        self._pt_receiver.append(receiver_index)
        self._pt_words.append(words)
        self._pt_kind.append(kind)
        self._pt_payload.append(payload)

    def send_to_neighbors(
        self,
        sender: VertexId,
        kind: str,
        payload: Tuple[Any, ...] = (),
        words: int = 1,
        exclude: Optional[VertexId] = None,
    ) -> int:
        """Vectorized whole-neighbourhood broadcast.

        Semantically identical to the base-class per-neighbour loop
        (sorted-neighbour emission order, partial-commit-then-raise on a
        bandwidth violation): small neighbourhoods and every error path
        delegate to that loop, so the vectorized path only ever commits
        a broadcast it has proven entirely within bandwidth.
        """
        try:
            sender_index = self._index[sender]
        except (KeyError, TypeError):
            # Unknown vertex: the loop raises the canonical error.
            return Engine.send_to_neighbors(self, sender, kind, payload, words, exclude)
        indptr = self._indptr
        start = indptr[sender_index]
        end = indptr[sender_index + 1]
        degree = end - start
        if degree < _VECTOR_DEGREE_FLOOR:
            return Engine.send_to_neighbors(self, sender, kind, payload, words, exclude)
        if words < 1:
            raise ValueError(f"a message must carry at least one word, got {words}")
        excluded_pos = -1
        if exclude is not None:
            info = self._edge_info.get((sender, exclude))
            if info is not None:
                excluded_pos = info[0] - start
        count = degree - 1 if excluded_pos >= 0 else degree

        band = self._band
        base = self._gen_base
        generation = self._generation
        bandwidth = self.bandwidth
        if self._out_gen[sender_index] != generation:
            # Nothing charged from this vertex this round: every slot
            # reads as zero used, so the whole broadcast fits iff one
            # message does.  One slice fill stamps the new counters.
            if words > bandwidth:
                return Engine.send_to_neighbors(self, sender, kind, payload, words, exclude)
            if excluded_pos >= 0:
                preserved = int(band[start + excluded_pos])
            band[start:end] = base + words
            if excluded_pos >= 0:
                band[start + excluded_pos] = preserved
            self._out_gen[sender_index] = generation
        else:
            used = band[start:end] - base
            np.maximum(used, 0, out=used)
            over = used + words > bandwidth
            if excluded_pos >= 0:
                over[excluded_pos] = False
            if over.any():
                # Replay sequentially: commits the same prefix and
                # raises the same error at the same neighbour as the
                # reference semantics demand.
                return Engine.send_to_neighbors(self, sender, kind, payload, words, exclude)
            stamped = used + (base + words)
            if excluded_pos >= 0:
                stamped[excluded_pos] = band[start + excluded_pos]
            band[start:end] = stamped

        round_kind = self._round_kind
        if round_kind is None:
            self._round_kind = kind
        elif round_kind is not False and round_kind != kind:
            self._round_kind = False
        if self._pt_sender:
            # Staged point sends precede this broadcast in global send
            # order; commit them to the columns before the block write.
            self._flush_staged()
        fill = self._fill
        need = fill + count
        if need > self._cap:
            self._grow(need)
        nbr_dense = self._nbr_dense
        col_receiver = self._col_receiver
        if excluded_pos < 0:
            col_receiver[fill:need] = nbr_dense[start:end]
        else:
            split = fill + excluded_pos
            col_receiver[fill:split] = nbr_dense[start : start + excluded_pos]
            col_receiver[split:need] = nbr_dense[start + excluded_pos + 1 : end]
        self._col_sender[fill:need] = sender_index
        self._col_words[fill:need] = words
        self._col_kind[fill:need] = [kind] * count
        self._col_payload[fill:need] = [payload] * count
        self._fill = need
        return count

    def _flush_staged(self) -> None:
        """Commit staged point sends into the numpy message columns.

        One vectorized slice assignment per column (numpy converts the
        whole Python-int list at C speed) instead of one scalar store
        per send; the staged run keeps its send order, so the columns
        read exactly as if every ``send`` had written them directly.
        """
        staged = len(self._pt_sender)
        if not staged:
            return
        fill = self._fill
        need = fill + staged
        if need > self._cap:
            self._grow(need)
        self._col_sender[fill:need] = self._pt_sender
        self._col_receiver[fill:need] = self._pt_receiver
        self._col_words[fill:need] = self._pt_words
        self._col_kind[fill:need] = self._pt_kind
        self._col_payload[fill:need] = self._pt_payload
        self._fill = need
        self._pt_sender.clear()
        self._pt_receiver.clear()
        self._pt_words.clear()
        self._pt_kind.clear()
        self._pt_payload.clear()

    def _grow(self, need: int) -> None:
        """Geometrically grow the message columns to hold ``need`` entries."""
        cap = max(need, self._cap * 2, 16)
        for name in ("_col_sender", "_col_receiver", "_col_words"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=np.int64)
            grown[: len(old)] = old
            setattr(self, name, grown)
        self._col_kind.extend([None] * (cap - len(self._col_kind)))
        self._col_payload.extend([None] * (cap - len(self._col_payload)))
        self._cap = cap

    def pending_count(self) -> int:
        """Number of messages queued for delivery in the next round."""
        return self._fill + len(self._pt_sender)

    def deliver_round(self) -> Dict[VertexId, List[FastMessage]]:
        """Advance the clock by one round and deliver all queued messages.

        Same contract as the other kernels: receivers appear in
        first-message order, per-receiver lists preserve global send
        order, and counters are charged at delivery time -- here as
        array reductions over the structure-of-arrays columns.
        """
        metrics = self.metrics
        metrics.record_round()
        sent_round = self._round_value
        self._round_value = metrics.rounds
        self._generation += 1
        self._gen_base = self._generation * self._band_span
        staged = len(self._pt_sender)
        if not self._fill and not staged:
            return {}
        round_kind = self._round_kind
        self._round_kind = None
        vertex_of = self._vertex_of
        if not self._fill and staged <= _EAGER_DELIVERY_LIMIT:
            # Pure point-send round: the staged Python lists already hold
            # everything in send order, so the inboxes are built without
            # touching numpy at all (the fast kernel's exact cost shape).
            if round_kind is False:
                metrics.record_bulk(staged, sum(self._pt_words), kinds=self._pt_kind)
            else:
                metrics.record_bulk(staged, sum(self._pt_words), kind=round_kind)
            inboxes: Dict[VertexId, List[FastMessage]] = {}
            tuple_new = tuple.__new__
            for s, r, k, p, w in zip(
                self._pt_sender,
                self._pt_receiver,
                self._pt_kind,
                self._pt_payload,
                self._pt_words,
            ):
                receiver = vertex_of[r]
                bucket = inboxes.get(receiver)
                if bucket is None:
                    inboxes[receiver] = bucket = []
                bucket.append(
                    tuple_new(
                        FastMessage, (vertex_of[s], receiver, k, p, w, sent_round)
                    )
                )
            self._pt_sender.clear()
            self._pt_receiver.clear()
            self._pt_words.clear()
            self._pt_kind.clear()
            self._pt_payload.clear()
            return inboxes
        self._flush_staged()
        fill = self._fill
        self._fill = 0
        if fill <= _EAGER_DELIVERY_LIMIT:
            # Small round: the columns are consumed into message tuples
            # right here, so no snapshot of any buffer is needed.
            words_list = self._col_words[:fill].tolist()
            kinds = self._col_kind[:fill]
            if round_kind is False:
                metrics.record_bulk(fill, sum(words_list), kinds=kinds)
            else:
                metrics.record_bulk(fill, sum(words_list), kind=round_kind)
            inboxes: Dict[VertexId, List[FastMessage]] = {}
            tuple_new = tuple.__new__
            for s, r, k, p, w in zip(
                self._col_sender[:fill].tolist(),
                self._col_receiver[:fill].tolist(),
                kinds,
                self._col_payload,
                words_list,
            ):
                receiver = vertex_of[r]
                bucket = inboxes.get(receiver)
                if bucket is None:
                    inboxes[receiver] = bucket = []
                bucket.append(
                    tuple_new(
                        FastMessage, (vertex_of[s], receiver, k, p, w, sent_round)
                    )
                )
            return inboxes
        # Large round: hand the filled buffers to the inboxes object
        # outright and start the next round on fresh ones -- O(1) numpy
        # allocations instead of O(fill) snapshot copies.
        senders = self._col_sender[:fill]
        recv = self._col_receiver[:fill]
        words = self._col_words[:fill]
        kinds = self._col_kind
        payloads = self._col_payload
        cap = self._cap
        self._col_sender = np.empty(cap, dtype=np.int64)
        self._col_receiver = np.empty(cap, dtype=np.int64)
        self._col_words = np.empty(cap, dtype=np.int64)
        self._col_kind = [None] * cap
        self._col_payload = [None] * cap
        if round_kind is False:
            metrics.record_bulk(fill, int(words.sum()), kinds=kinds[:fill])
        else:
            metrics.record_bulk(fill, int(words.sum()), kind=round_kind)
        return _LazyInboxes(senders, recv, kinds, payloads, words, sent_round, vertex_of)


# ---------------------------------------------------------------------- #
# registration
# ---------------------------------------------------------------------- #


def _register() -> None:
    """(Re-)register the engine according to numpy's availability."""
    if np is not None:
        register_engine("array", ArrayNetwork)
    else:
        register_unavailable_engine("array", _NUMPY_MISSING_REASON)


_register()
