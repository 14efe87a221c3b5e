"""One-round exchange of a value between every pair of graph neighbours.

The paper repeatedly needs every vertex to tell all of its neighbours the
identity of the fragment it currently belongs to ("every vertex updates
its neighbors with the identity of its fragment", O(1) time and O(|E|)
messages).  :func:`neighbor_exchange` is exactly that primitive.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ...exceptions import ProtocolError
from ...types import VertexId
from ..engine import Engine
from ..message import Message
from ..node import NodeState
from ..protocol import NodeProtocol, ProtocolApi, run_protocol


class _NeighborExchangeProtocol(NodeProtocol):
    """Every vertex sends one word to each neighbour; takes exactly one round."""

    name = "nbrx"

    def __init__(self, network: Engine, values: Dict[VertexId, Any]) -> None:
        super().__init__(network.vertices())
        missing = [v for v in self.participants if v not in values]
        if missing:
            raise ProtocolError(f"neighbor_exchange: {len(missing)} vertices have no value, e.g. {missing[0]}")
        self._values = values
        self._received: Dict[VertexId, Dict[VertexId, Any]] = {v: {} for v in self.participants}

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        api.send_to_neighbors(vertex, "value", payload=(self._values[vertex],), words=1)
        api.finish(vertex)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        for message in inbox:
            self._received[vertex][message.sender] = message.payload[0]

    def result(self, network: Engine) -> Dict[VertexId, Dict[VertexId, Any]]:
        return self._received


def neighbor_exchange(
    network: Engine, values: Dict[VertexId, Any]
) -> Dict[VertexId, Dict[VertexId, Any]]:
    """Send ``values[v]`` from every vertex ``v`` to all of its neighbours.

    Returns a nested mapping ``received[v][u]`` = value sent by neighbour
    ``u`` to ``v``.  Cost on a clean network: exactly 1 round (0 on a
    graph without edges) and ``2 |E|`` messages, all of kind
    ``nbrx:value`` (``tests/test_primitive_costs.py`` checks this on
    drawn graphs).
    """
    protocol = _NeighborExchangeProtocol(network, values)
    return run_protocol(network, protocol)
