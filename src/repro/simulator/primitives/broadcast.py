"""Broadcast over a rooted forest.

Each root holds a value; every vertex of its tree learns it.  Running the
broadcast over an MST forest models the paper's "every root vertex of a
base fragment broadcasts the identity of its new fragment to all vertices
of the fragment" step: O(max fragment diameter) rounds and O(n) messages,
because all trees of the forest run in parallel -- exactly the forest's
height in rounds and one message per tree edge.
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
        self._parent = forest.parent
        self._children = forest.children
        self._root_values = root_values
        self._value: Dict[VertexId, Any] = {}

    def initiators(self) -> Tuple[VertexId, ...]:
        return self._forest.roots

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        if self._parent[vertex] is not None:
            api.wait(vertex)
            return
        value = self._value[vertex] = self._root_values[vertex]
        payload = (value,)
        for child in self._children[vertex]:
            api.send(vertex, child, "value", payload, 1)
        api.finish(vertex)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        if vertex in self._value:
            api.finish(vertex)
            return
        if len(inbox) == 1:
            message = inbox[0]
            if not message.kind.endswith(":value"):
                return
        else:
            values = [message for message in inbox if message.kind.endswith(":value")]
            if not values:
                return
            if len(values) > 1:
                raise ProtocolError(f"vertex {vertex} received {len(values)} broadcast values")
            message = values[0]
        payload = message.payload
        self._value[vertex] = payload[0]
        for child in self._children[vertex]:
            api.send(vertex, child, "value", payload, 1)
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

    Returns the value learnt by each vertex of the forest.  Cost on a
    clean network: exactly ``height(forest)`` rounds (the largest depth;
    0 for a forest of singletons) and exactly ``size(forest) - #roots``
    messages, all of kind ``bcast:value`` (all trees proceed in
    parallel).  ``tests/test_primitive_costs.py`` checks both identities
    on drawn forests.
    """
    protocol = _ForestBroadcastProtocol(network, forest, root_values)
    return run_protocol(network, protocol)
