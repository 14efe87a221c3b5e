"""Broadcast over a rooted forest.

Each root holds a value; every vertex of its tree learns it.  Running the
broadcast over an MST forest models the paper's "every root vertex of a
base fragment broadcasts the identity of its new fragment to all vertices
of the fragment" step: O(max fragment diameter) rounds and O(n) messages,
because all trees of the forest run in parallel.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ...exceptions import ProtocolError
from ...types import VertexId
from ..engine import Engine
from ..message import Message
from ..node import NodeState
from ..protocol import NodeProtocol, ProtocolApi, run_protocol
from .trees import RootedForest


class _ForestBroadcastProtocol(NodeProtocol):
    """Top-down dissemination of one word per tree of a rooted forest."""

    name = "bcast"

    def __init__(
        self,
        network: Engine,
        forest: RootedForest,
        root_values: Dict[VertexId, Any],
    ) -> None:
        super().__init__(forest.vertices)
        missing = [root for root in forest.roots if root not in root_values]
        if missing:
            raise ProtocolError(
                f"forest_broadcast: {len(missing)} roots have no value to broadcast, e.g. {missing[0]}"
            )
        forest.check_edges(network, "forest_broadcast")
        self._forest = forest
        self._root_values = root_values
        self._value: Dict[VertexId, Any] = {}

    def initiators(self) -> Tuple[VertexId, ...]:
        return self._forest.roots

    def _forward(self, vertex: VertexId, api: ProtocolApi) -> None:
        for child in self._forest.children[vertex]:
            api.send(vertex, child, "value", payload=(self._value[vertex],), words=1)

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        if not self._forest.is_root(vertex):
            api.wait(vertex)
            return
        self._value[vertex] = self._root_values[vertex]
        self._forward(vertex, api)
        api.finish(vertex)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        if vertex in self._value:
            api.finish(vertex)
            return
        values = [message for message in inbox if message.kind.endswith(":value")]
        if not values:
            return
        if len(values) > 1:
            raise ProtocolError(f"vertex {vertex} received {len(values)} broadcast values")
        self._value[vertex] = values[0].payload[0]
        self._forward(vertex, api)
        api.finish(vertex)

    def result(self, network: Engine) -> Dict[VertexId, Any]:
        if len(self._value) != len(self.participants):
            missing = set(self.participants) - set(self._value)
            raise ProtocolError(f"broadcast did not reach {len(missing)} vertices")
        return dict(self._value)


def forest_broadcast(
    network: Engine, forest: RootedForest, root_values: Dict[VertexId, Any]
) -> Dict[VertexId, Any]:
    """Broadcast ``root_values[r]`` from every root ``r`` to its whole tree.

    Returns the value learnt by each vertex of the forest.  Cost: at most
    ``height(forest) + 1`` rounds and exactly ``size(forest) - #roots``
    messages (all trees proceed in parallel).
    """
    protocol = _ForestBroadcastProtocol(network, forest, root_values)
    return run_protocol(network, protocol)
