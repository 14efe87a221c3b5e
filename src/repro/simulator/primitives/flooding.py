"""Flooding a value over the whole graph.

A one-source flood is the simplest dissemination primitive: the source
sends a value to all neighbours, and every vertex forwards it the first
time it hears it.  It costs O(D) rounds and O(|E|) messages and is used
for wake-up / "computation finished" announcements in the examples.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ...exceptions import ProtocolError
from ...types import VertexId
from ..engine import Engine
from ..message import Message
from ..node import NodeState
from ..protocol import NodeProtocol, ProtocolApi, run_protocol


class _FloodProtocol(NodeProtocol):
    """Forward a single value along every edge once."""

    name = "flood"

    def __init__(self, network: Engine, source: VertexId, value: Any) -> None:
        super().__init__(network.vertices())
        if source not in network.graph:
            raise ProtocolError(f"flood source {source} is not a vertex of the graph")
        self._source = source
        self._value = value
        self._learned: Dict[VertexId, Any] = {}

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        if vertex != self._source:
            api.wait(vertex)
            return
        self._learned[vertex] = self._value
        api.send_to_neighbors(vertex, "flood", payload=(self._value,), words=1)
        api.finish(vertex)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        if vertex in self._learned:
            api.finish(vertex)
            return
        flood_messages = [message for message in inbox if message.kind.endswith(":flood")]
        if not flood_messages:
            return
        origin = min(message.sender for message in flood_messages)
        self._learned[vertex] = flood_messages[0].payload[0]
        api.send_to_neighbors(
            vertex, "flood", payload=(self._learned[vertex],), words=1, exclude=origin
        )
        api.finish(vertex)

    def result(self, network: Engine) -> Dict[VertexId, Any]:
        if len(self._learned) != len(self.participants):
            missing = set(self.participants) - set(self._learned)
            raise ProtocolError(f"flood did not reach {len(missing)} vertices")
        return dict(self._learned)


def flood_value(network: Engine, source: VertexId, value: Any) -> Dict[VertexId, Any]:
    """Flood ``value`` from ``source`` to every vertex of the graph.

    Returns the value each vertex learnt (identical for all vertices).
    Cost: at most ``D + 1`` rounds and at most ``2 |E|`` messages.
    """
    protocol = _FloodProtocol(network, source, value)
    return run_protocol(network, protocol)
