"""Convergecast (bottom-up aggregation) over a rooted forest.

Every vertex holds a local value; an associative combiner folds the
values of each tree towards its root.  This primitive implements the
paper's per-fragment computations: the minimum-weight outgoing edge of a
fragment, subtree sizes for the interval labelling, and the "does my
subtree still contain an unmatched child" predicate of the maximal
matching procedure.  All trees of the forest aggregate in parallel, so
the cost is exactly the forest's height in rounds and exactly one
message per non-root vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from ...exceptions import ProtocolError
from ...types import VertexId
from ..engine import Engine
from ..message import Message
from ..node import NodeState
from ..protocol import NodeProtocol, ProtocolApi, run_protocol
from .trees import RootedForest

Combiner = Callable[[Any, Any], Any]


@dataclass
class ConvergecastResult:
    """Output of a convergecast.

    Attributes:
        root_values: aggregate of every tree, keyed by its root.
        per_vertex: aggregate of the subtree of every vertex (the value
            the vertex sent, or would send, to its parent).
        child_values: for every vertex with children, the aggregate
            received from each child; a vertex without children has no
            entry.  Used where a parent must know each child's aggregate
            separately.
    """

    root_values: Dict[VertexId, Any]
    per_vertex: Dict[VertexId, Any]
    child_values: Dict[VertexId, Dict[VertexId, Any]]


class _ForestConvergecastProtocol(NodeProtocol):
    """Bottom-up aggregation with an associative combiner (one word per value)."""

    name = "cvgc"

    def __init__(
        self,
        network: Engine,
        forest: RootedForest,
        values: Dict[VertexId, Any],
        combiner: Combiner,
    ) -> None:
        super().__init__(forest.vertices)
        if not all(map(values.__contains__, self.participants)):
            missing = set(self.participants).difference(values)
            raise ProtocolError(
                f"forest_convergecast: {len(missing)} vertices have no input value, "
                f"e.g. {min(missing)}"
            )
        forest.check_edges(network, "forest_convergecast")
        self._forest = forest
        self._parent = forest.parent
        self._children = forest.children
        self._combiner = combiner
        self._accumulated: Dict[VertexId, Any] = dict(values)
        #: aggregates received so far, created at a vertex's first one
        self._received_from: Dict[VertexId, Dict[VertexId, Any]] = {}
        self._sent: set[VertexId] = set()

    def initiators(self) -> Tuple[VertexId, ...]:
        return self._forest.leaves

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        if self._children[vertex]:
            api.wait(vertex)
            return
        # A leaf, singleton roots included, sends its own value at once.
        self._sent.add(vertex)
        parent = self._parent[vertex]
        if parent is not None:
            api.send(vertex, parent, "aggregate", (self._accumulated[vertex],), 1)
        api.finish(vertex)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        accumulated = self._accumulated[vertex]
        received = self._received_from.get(vertex)
        for message in inbox:
            if not message.kind.endswith(":aggregate"):
                continue
            if received is None:
                received = self._received_from[vertex] = {}
            sender = message.sender
            if sender in received:
                raise ProtocolError(
                    f"vertex {vertex} received two aggregates from child {sender}"
                )
            child_value = message.payload[0]
            received[sender] = child_value
            accumulated = self._combiner(accumulated, child_value)
        self._accumulated[vertex] = accumulated
        if vertex in self._sent:
            return
        # Send up once every child has reported.
        children = self._children[vertex]
        if children and (received is None or len(received) < len(children)):
            api.wait(vertex)
            return
        self._sent.add(vertex)
        parent = self._parent[vertex]
        if parent is not None:
            api.send(vertex, parent, "aggregate", (accumulated,), 1)
        api.finish(vertex)

    def result(self, network: Engine) -> ConvergecastResult:
        unfinished = len(self.participants) - len(self._sent)
        if unfinished:
            raise ProtocolError(f"convergecast incomplete at {unfinished} vertices")
        root_values = {root: self._accumulated[root] for root in self._forest.roots}
        return ConvergecastResult(
            root_values=root_values,
            per_vertex=dict(self._accumulated),
            child_values=self._received_from,
        )


def forest_convergecast(
    network: Engine,
    forest: RootedForest,
    values: Dict[VertexId, Any],
    combiner: Combiner,
) -> ConvergecastResult:
    """Aggregate ``values`` towards the root of every tree of ``forest``.

    ``combiner`` must be associative and commutative and its results must
    fit in O(1) words (e.g. ``min``, ``+``, logical or).  Cost on a clean
    network: exactly ``height(forest)`` rounds (the largest depth; 0 for
    a forest of singletons) and exactly one message per non-root vertex,
    ``size(forest) - #roots``, all of kind ``cvgc:aggregate``.
    ``tests/test_primitive_costs.py`` checks both identities on drawn
    forests.
    """
    protocol = _ForestConvergecastProtocol(network, forest, values, combiner)
    return run_protocol(network, protocol)
