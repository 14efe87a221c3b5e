"""Distributed BFS tree construction.

The paper's algorithm starts by building an auxiliary BFS tree ``tau`` of
the whole graph rooted at a vertex ``rt`` -- O(D) rounds and O(|E|)
messages.  This module implements the textbook synchronous BFS flood as a
real per-node protocol: the root announces itself, every vertex joins the
tree the first round a wave reaches it (breaking ties towards the
smallest sender identity so the construction is deterministic), and then
propagates the wave to its other neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...exceptions import ProtocolError
from ...types import VertexId
from ..engine import Engine
from ..message import Message
from ..node import NodeState
from ..protocol import NodeProtocol, ProtocolApi, run_protocol
from .trees import RootedForest


@dataclass
class BFSTree:
    """Result of a BFS construction: a spanning tree with hop distances."""

    root: VertexId
    forest: RootedForest
    distance: Dict[VertexId, int]

    @property
    def depth(self) -> int:
        """Eccentricity of the root (<= hop diameter D of the graph)."""
        return self.forest.height


class _BFSProtocol(NodeProtocol):
    """Synchronous BFS flood from a designated root."""

    name = "bfs"

    def __init__(self, network: Engine, root: VertexId) -> None:
        super().__init__(network.vertices())
        if root not in network.graph:
            raise ProtocolError(f"BFS root {root} is not a vertex of the graph")
        self.root = root
        self._parent: Dict[VertexId, Optional[VertexId]] = {}
        self._distance: Dict[VertexId, int] = {}

    def initiators(self) -> Tuple[VertexId, ...]:
        return (self.root,)

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        if vertex != self.root:
            api.wait(vertex)
            return
        self._parent[vertex] = None
        self._distance[vertex] = 0
        api.send_to_neighbors(vertex, "explore", payload=(0,), words=1)
        api.finish(vertex)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        if vertex in self._parent:
            # Already in the tree; late explore waves carry no new information.
            api.finish(vertex)
            return
        explores = [message for message in inbox if message.kind.endswith(":explore")]
        if not explores:
            return
        chosen = min(explores, key=lambda message: message.sender)
        self._parent[vertex] = chosen.sender
        self._distance[vertex] = int(chosen.payload[0]) + 1
        api.send_to_neighbors(
            vertex,
            "explore",
            payload=(self._distance[vertex],),
            words=1,
            exclude=chosen.sender,
        )
        api.finish(vertex)

    def result(self, network: Engine) -> BFSTree:
        if len(self._parent) != len(self.participants):
            missing = set(self.participants) - set(self._parent)
            raise ProtocolError(
                f"BFS did not reach {len(missing)} vertices (graph disconnected?), e.g. {next(iter(missing))}"
            )
        forest = RootedForest(parent=dict(self._parent))
        return BFSTree(root=self.root, forest=forest, distance=dict(self._distance))


def build_bfs_tree(network: Engine, root: Optional[VertexId] = None) -> BFSTree:
    """Build a BFS tree of the whole communication graph.

    Args:
        network: the simulated network.
        root: the root vertex ``rt``; defaults to the smallest identity,
            which is how the examples pick a canonical root.

    Returns:
        The constructed :class:`BFSTree`.  Cost: at most ``D + 1`` rounds
        and at most ``2 |E|`` messages, charged to ``network``.
    """
    chosen_root = root if root is not None else min(network.vertices())
    protocol = _BFSProtocol(network, chosen_root)
    return run_protocol(network, protocol)
