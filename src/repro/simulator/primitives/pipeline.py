"""Pipelined upcast and downcast over a rooted tree.

These are the two workhorses of the paper's second phase:

* **Pipelined upcast** ("pipelined convergecast" in the paper): every
  vertex holds a set of keyed items (e.g. "the lightest edge leaving
  coarse fragment ``F_hat`` that my base fragment found"); the root must
  learn, for every key, the minimum item.  Intermediate vertices filter
  -- they forward only the lightest item per key -- and stream items in
  increasing key order, which is what makes the cost
  ``O(height + #keys / b)`` rounds and ``O(height * #keys)`` messages
  instead of ``height * #keys`` rounds (Peleg, Ch. 3).

* **Pipelined downcast**: the root holds a batch of point-to-point
  messages, each addressed to a target vertex; messages are routed along
  the unique root-to-target path using the interval labels, with at most
  ``b`` words per edge per round.  Cost ``O(height + #messages / b)``
  rounds and ``O(sum of path lengths)`` messages.

Conventions: one keyed item / one routed message occupies one machine
word (a constant-size record), matching the paper's accounting where one
such record fits in one ``O(log n)``-bit message.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Hashable, List, Tuple

from ...exceptions import ProtocolError
from ...types import VertexId
from ..engine import Engine
from ..message import Message
from ..node import NodeState
from ..protocol import NodeProtocol, ProtocolApi, run_protocol
from .intervals import IntervalRouting
from .trees import RootedForest

Key = Hashable


class _PipelinedUpcastProtocol(NodeProtocol):
    """Ordered, filtered streaming of keyed items towards the roots."""

    name = "upcast"

    def __init__(
        self,
        network: Engine,
        forest: RootedForest,
        items: Dict[VertexId, Dict[Key, Any]],
    ) -> None:
        super().__init__(forest.vertices)
        forest.check_edges(network, "pipelined_upcast")
        self._forest = forest
        self._best: Dict[VertexId, Dict[Key, Any]] = {
            v: dict(items.get(v, {})) for v in self.participants
        }
        self._emitted: Dict[VertexId, set] = {v: set() for v in self.participants}
        self._child_last: Dict[VertexId, Dict[VertexId, Key]] = {v: {} for v in self.participants}
        self._child_done: Dict[VertexId, set] = {v: set() for v in self.participants}
        self._done_sent: set = set()

    def initiators(self) -> Tuple[VertexId, ...]:
        return self._forest.leaves

    # -------------------------------------------------------------- #

    def _absorb(self, vertex: VertexId, key: Key, value: Any) -> None:
        best = self._best[vertex]
        if key not in best or value < best[key]:
            best[key] = value

    def _eligible(self, vertex: VertexId, key: Key) -> bool:
        """True when no child can still contribute an item with this key."""
        for child in self._forest.children[vertex]:
            if child in self._child_done[vertex]:
                continue
            last = self._child_last[vertex].get(child)
            if last is None or last < key:
                return False
        return True

    def _all_children_done(self, vertex: VertexId) -> bool:
        return len(self._child_done[vertex]) == len(self._forest.children[vertex])

    def _pending_keys(self, vertex: VertexId) -> List[Key]:
        emitted = self._emitted[vertex]
        return sorted(key for key in self._best[vertex] if key not in emitted)

    def _step(self, vertex: VertexId, api: ProtocolApi) -> None:
        parent = self._forest.parent[vertex]
        if parent is None:
            if self._all_children_done(vertex):
                api.finish(vertex)
            else:
                api.wait(vertex)
            return
        if vertex in self._done_sent:
            return
        budget = api.bandwidth
        while budget > 0:
            pending = self._pending_keys(vertex)
            if not pending:
                break
            key = pending[0]
            if not self._eligible(vertex, key):
                break
            api.send(
                vertex, parent, "item", payload=(key, self._best[vertex][key]), words=1
            )
            self._emitted[vertex].add(key)
            budget -= 1
        if budget == 0:
            return  # stopped by the bandwidth budget: more to send next round
        if not self._pending_keys(vertex) and self._all_children_done(vertex):
            api.send(vertex, parent, "done", words=1)
            self._done_sent.add(vertex)
            api.finish(vertex)
        else:
            # Blocked on the children: only their next report changes that.
            api.wait(vertex)

    # -------------------------------------------------------------- #

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        self._step(vertex, api)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        for message in inbox:
            if message.kind.endswith(":item"):
                key, value = message.payload
                previous = self._child_last[vertex].get(message.sender)
                if previous is not None and key <= previous:
                    raise ProtocolError(
                        f"child {message.sender} sent keys out of order ({key!r} after {previous!r})"
                    )
                self._child_last[vertex][message.sender] = key
                self._absorb(vertex, key, value)
            elif message.kind.endswith(":done"):
                self._child_done[vertex].add(message.sender)
        self._step(vertex, api)

    def result(self, network: Engine) -> Dict[VertexId, Dict[Key, Any]]:
        return {root: dict(self._best[root]) for root in self._forest.roots}


def pipelined_upcast(
    network: Engine,
    tree: RootedForest,
    items: Dict[VertexId, Dict[Key, Any]],
) -> Dict[VertexId, Dict[Key, Any]]:
    """Upcast keyed items to the root(s) of ``tree``, keeping the minimum per key.

    Args:
        network: the simulated network.
        tree: rooted tree (or forest) whose edges are graph edges.
        items: per-vertex mapping ``key -> value``; values must be
            totally ordered (tuples work well) and the minimum per key is
            what reaches the root.

    Returns:
        For every root, the mapping ``key -> minimum value over its tree``.
    """
    protocol = _PipelinedUpcastProtocol(network, tree, items)
    return run_protocol(network, protocol)


class _PipelinedDowncastProtocol(NodeProtocol):
    """Route a batch of root-originated messages to their target vertices."""

    name = "downcast"

    def __init__(
        self,
        network: Engine,
        tree: RootedForest,
        payloads: List[Tuple[VertexId, Any]],
        routing: IntervalRouting,
    ) -> None:
        super().__init__(tree.vertices)
        if len(tree.roots) != 1:
            raise ProtocolError("pipelined_downcast requires a single-rooted tree")
        tree.check_edges(network, "pipelined_downcast")
        unknown = [target for target, _ in payloads if target not in tree.parent]
        if unknown:
            raise ProtocolError(
                f"pipelined_downcast: {len(unknown)} targets are not tree vertices, e.g. {unknown[0]}"
            )
        self._tree = tree
        self._root = tree.roots[0]
        self._payloads = list(payloads)
        self._next_hop = routing.next_hop
        self._queues: Dict[VertexId, Dict[VertexId, deque]] = {
            v: {} for v in self.participants
        }
        self._delivered: Dict[VertexId, List[Any]] = {}

    def _enqueue(self, vertex: VertexId, target: VertexId, payload: Any) -> None:
        if target == vertex:
            self._delivered.setdefault(vertex, []).append(payload)
            return
        child = self._next_hop(vertex, target)
        self._queues[vertex].setdefault(child, deque()).append((target, payload))

    def _pump(self, vertex: VertexId, api: ProtocolApi) -> None:
        queues = self._queues[vertex]
        for child, queue in queues.items():
            budget = api.bandwidth
            while queue and budget > 0:
                target, payload = queue.popleft()
                api.send(vertex, child, "route", payload=(target, payload), words=1)
                budget -= 1
        if all(not queue for queue in queues.values()):
            api.finish(vertex)
        else:
            api.unfinish(vertex)

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        if vertex == self._root:
            for target, payload in self._payloads:
                self._enqueue(vertex, target, payload)
        self._pump(vertex, api)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        for message in inbox:
            if not message.kind.endswith(":route"):
                continue
            target, payload = message.payload
            self._enqueue(vertex, target, payload)
        self._pump(vertex, api)

    def result(self, network: Engine) -> Dict[VertexId, List[Any]]:
        return {target: list(values) for target, values in self._delivered.items()}


def pipelined_downcast(
    network: Engine,
    tree: RootedForest,
    payloads: List[Tuple[VertexId, Any]],
    routing: IntervalRouting,
) -> Dict[VertexId, List[Any]]:
    """Deliver ``payloads`` (a list of ``(target, payload)`` pairs) from the root.

    Each hop follows the interval labels of ``routing`` (the paper's
    mechanism).  Returns the payloads received by each target.
    """
    protocol = _PipelinedDowncastProtocol(network, tree, payloads, routing)
    return run_protocol(network, protocol)
