"""Subtree interval labelling and interval-based routing on a tree.

The paper routes messages from the BFS root to the roots of base
fragments by giving every vertex ``v`` of the auxiliary tree ``tau`` an
interval ``I(v)`` such that intervals of different branches are disjoint
and the interval of an ancestor contains the interval of each of its
descendants.  A vertex then forwards a message addressed to position
``p`` to the unique child whose interval contains ``p``.

The labelling is computed distributively exactly as in the paper: a
convergecast establishes subtree sizes, then a top-down wave hands every
child the first position of its block (one word per tree edge -- the
child can reconstruct its interval because it knows its own subtree
size).  Total cost: O(height) rounds and O(n) messages.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...exceptions import ProtocolError
from ...types import VertexId
from ..engine import Engine
from ..message import Message
from ..node import NodeState
from ..protocol import NodeProtocol, ProtocolApi, run_protocol
from .convergecast import forest_convergecast
from .trees import RootedForest


@dataclass
class IntervalRouting:
    """Interval labels of a rooted tree plus the routing rule they induce."""

    forest: RootedForest
    intervals: Dict[VertexId, Tuple[int, int]]

    def position(self, vertex: VertexId) -> int:
        """Routing position of ``vertex`` (the first element of its interval)."""
        return self.intervals[vertex][0]

    def contains(self, ancestor: VertexId, descendant: VertexId) -> bool:
        """True when the interval of ``ancestor`` contains that of ``descendant``."""
        alo, ahi = self.intervals[ancestor]
        dlo, dhi = self.intervals[descendant]
        return alo <= dlo and dhi <= ahi

    def next_hop(self, vertex: VertexId, target: VertexId) -> VertexId:
        """Child of ``vertex`` on the tree path towards ``target``.

        This decision uses only information the vertex holds locally in
        the distributed implementation: the intervals of its children and
        the position of the target (which travels with the message).
        """
        if vertex == target:
            raise ProtocolError(f"vertex {vertex} is the target; no next hop exists")
        goal = self.position(target)
        for child in self.forest.children[vertex]:
            lo, hi = self.intervals[child]
            if lo <= goal <= hi:
                return child
        raise ProtocolError(
            f"target {target} (position {goal}) is not in the subtree of vertex {vertex}"
        )


class _IntervalAssignProtocol(NodeProtocol):
    """Top-down wave assigning each vertex the start of its interval block."""

    name = "ival"

    def __init__(
        self,
        network: Engine,
        forest: RootedForest,
        subtree_size: Dict[VertexId, int],
    ) -> None:
        super().__init__(forest.vertices)
        self._forest = forest
        self._size = subtree_size
        self._interval: Dict[VertexId, Tuple[int, int]] = {}

    def initiators(self) -> Tuple[VertexId, ...]:
        return self._forest.roots

    def _assign_children(self, vertex: VertexId, api: ProtocolApi) -> None:
        lo, _ = self._interval[vertex]
        cursor = lo + 1
        for child in self._forest.children[vertex]:
            api.send(vertex, child, "start", payload=(cursor,), words=1)
            cursor += self._size[child]

    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        if not self._forest.is_root(vertex):
            api.wait(vertex)
            return
        self._interval[vertex] = (1, self._size[vertex])
        self._assign_children(vertex, api)
        api.finish(vertex)

    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        if vertex in self._interval:
            api.finish(vertex)
            return
        starts = [message for message in inbox if message.kind.endswith(":start")]
        if not starts:
            return
        if len(starts) > 1:
            raise ProtocolError(f"vertex {vertex} received {len(starts)} interval starts")
        start = int(starts[0].payload[0])
        self._interval[vertex] = (start, start + self._size[vertex] - 1)
        self._assign_children(vertex, api)
        api.finish(vertex)

    def result(self, network: Engine) -> Dict[VertexId, Tuple[int, int]]:
        if len(self._interval) != len(self.participants):
            missing = set(self.participants) - set(self._interval)
            raise ProtocolError(f"interval assignment did not reach {len(missing)} vertices")
        return dict(self._interval)


def assign_intervals(network: Engine, tree: RootedForest) -> IntervalRouting:
    """Compute the interval labelling of ``tree`` and the induced routing.

    ``tree`` is usually the BFS tree ``tau``; a forest with several roots
    is also supported (each tree is labelled independently starting at 1).
    Cost: one convergecast plus one top-down wave, i.e. O(height) rounds
    and O(n) messages.
    """
    sizes = forest_convergecast(
        network, tree, values={v: 1 for v in tree.vertices}, combiner=operator.add
    )
    protocol = _IntervalAssignProtocol(network, tree, subtree_size=sizes.per_vertex)
    intervals = run_protocol(network, protocol)
    return IntervalRouting(forest=tree, intervals=intervals)
