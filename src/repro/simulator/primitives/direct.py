"""One-round point-to-point messages over explicit edges.

Several steps of the paper send a single message over a specific edge --
for example, "a message is sent over the MWOE edge, and the receiver
writes down the sender as a foreign-fragment child".  This helper sends a
batch of such messages (each over a distinct directed edge) in one round
and returns what every receiver got.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ...exceptions import ProtocolError
from ...types import VertexId
from ..engine import Engine
from ..message import Message
from ..node import NodeState
from ..protocol import NodeProtocol, ProtocolApi, run_protocol

EdgeMessage = Tuple[VertexId, VertexId, Any]


class _EdgeMessagesProtocol(NodeProtocol):
    """Send each (sender, receiver, payload) in the batch in a single round."""

    name = "edgemsg"

    def __init__(self, network: Engine, messages: List[EdgeMessage]) -> None:
        has_edge = network.has_edge
        bandwidth = network.bandwidth
        seen: Dict[Tuple[VertexId, VertexId], int] = {}
        by_sender: Dict[VertexId, List[EdgeMessage]] = {}
        for message in messages:
            sender, receiver, _ = message
            edge = (sender, receiver)
            count = seen.get(edge, 0) + 1
            if count == 1 and not has_edge(sender, receiver):
                raise ProtocolError(f"edge message over non-edge ({sender}, {receiver})")
            if count > bandwidth:
                raise ProtocolError(
                    f"{count} messages over directed edge "
                    f"({sender}, {receiver}) exceed bandwidth {bandwidth}"
                )
            seen[edge] = count
            by_sender.setdefault(sender, []).append(message)
        # Only the endpoints act: senders send, receivers read.
        super().__init__({vertex for edge in seen for vertex in edge})
        self._by_sender = by_sender
        self._received: Dict[VertexId, List[Tuple[VertexId, Any]]] = {}

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        for sender, receiver, payload in self._by_sender.get(vertex, ()):
            api.send(sender, receiver, "direct", (payload,), 1)
        api.finish(vertex)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        for message in inbox:
            if message.kind.endswith(":direct"):
                self._received.setdefault(vertex, []).append(
                    (message.sender, message.payload[0])
                )

    def result(self, network: Engine) -> Dict[VertexId, List[Tuple[VertexId, Any]]]:
        return self._received


def send_over_edges(
    network: Engine, messages: List[EdgeMessage]
) -> Dict[VertexId, List[Tuple[VertexId, Any]]]:
    """Send a batch of single-word messages, each over one specified edge.

    Returns ``received[v]`` = list of ``(sender, payload)`` pairs.  Cost
    on a clean network: exactly one round and ``len(messages)`` messages,
    all of kind ``edgemsg:direct``; an empty batch costs 0 rounds and 0
    messages.  ``tests/test_primitive_costs.py`` checks this on drawn
    batches that fill each directed edge up to the bandwidth.
    """
    if not messages:
        return {}
    protocol = _EdgeMessagesProtocol(network, messages)
    return run_protocol(network, protocol)
