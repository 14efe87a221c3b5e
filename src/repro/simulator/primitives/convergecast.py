"""Convergecast (bottom-up aggregation) over a rooted forest.

Every vertex holds a local value; an associative combiner folds the
values of each tree towards its root.  This primitive implements the
paper's per-fragment computations: the minimum-weight outgoing edge of a
fragment, subtree sizes for the interval labelling, and the "does my
subtree still contain an unmatched child" predicate of the maximal
matching procedure.  All trees of the forest aggregate in parallel, so
the cost is O(max tree height) rounds and exactly one message per
non-root vertex.
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
        missing = set(self.participants).difference(values)
        if missing:
            raise ProtocolError(
                f"forest_convergecast: {len(missing)} vertices have no input value, "
                f"e.g. {min(missing)}"
            )
        forest.check_edges(network, "forest_convergecast")
        self._forest = forest
        self._combiner = combiner
        self._accumulated: Dict[VertexId, Any] = dict(values)
        #: aggregates received so far, created at a vertex's first one
        self._received_from: Dict[VertexId, Dict[VertexId, Any]] = {}
        self._sent: set[VertexId] = set()

    def initiators(self) -> Tuple[VertexId, ...]:
        return self._forest.leaves

    def _maybe_send_up(self, vertex: VertexId, api: ProtocolApi) -> None:
        if vertex in self._sent:
            return
        if len(self._received_from.get(vertex, ())) < len(self._forest.children[vertex]):
            api.wait(vertex)
            return
        self._sent.add(vertex)
        parent = self._forest.parent[vertex]
        if parent is not None:
            api.send(vertex, parent, "aggregate", payload=(self._accumulated[vertex],), words=1)
        api.finish(vertex)

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        self._maybe_send_up(vertex, api)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        for message in inbox:
            if not message.kind.endswith(":aggregate"):
                continue
            received = self._received_from.setdefault(vertex, {})
            if message.sender in received:
                raise ProtocolError(
                    f"vertex {vertex} received two aggregates from child {message.sender}"
                )
            child_value = message.payload[0]
            received[message.sender] = child_value
            self._accumulated[vertex] = self._combiner(self._accumulated[vertex], child_value)
        self._maybe_send_up(vertex, api)

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
    fit in O(1) words (e.g. ``min``, ``+``, logical or).  Cost: at most
    ``height(forest) + 1`` rounds and one message per non-root vertex.
    """
    protocol = _ForestConvergecastProtocol(network, forest, values, combiner)
    return run_protocol(network, protocol)
