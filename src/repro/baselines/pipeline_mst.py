"""The Pipeline-MST procedure of Garay-Kutten-Peleg (second phase of GKP).

After the first phase has reduced the graph to O(sqrt(n)) fragments, GKP
pipelines *candidate* inter-fragment edges up an auxiliary BFS tree.  The
key idea (and the source of its Theta(n^{3/2}) message complexity) is the
per-vertex cycle filter: every vertex forwards, in increasing weight
order, only edges that do not close a cycle -- with respect to the
fragment identities of their endpoints -- among the edges it has already
forwarded.  Each vertex therefore forwards at most ``#fragments - 1``
edges, so the total message count is O(n * sqrt(n)); by the cycle
property none of the discarded edges can be an MST edge, so the root ends
up holding a superset of the missing MST edges and finishes locally.

This module implements the filtered, weight-ordered pipelined upcast as a
real per-node protocol on the simulator, so experiment E7's comparison of
message complexities against the paper's algorithm is measured, not
modelled.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..exceptions import ProtocolError
from ..simulator.engine import Engine
from ..simulator.message import Message
from ..simulator.node import NodeState
from ..simulator.primitives.trees import RootedForest
from ..simulator.protocol import NodeProtocol, ProtocolApi, run_protocol
from ..types import FragmentId, VertexId
from .kruskal import UnionFind

#: A candidate inter-fragment edge: (weight, u, v, fragment of u, fragment of v).
CandidateEdge = Tuple[float, VertexId, VertexId, FragmentId, FragmentId]


class _PipelineMSTProtocol(NodeProtocol):
    """Weight-ordered, cycle-filtered pipelined upcast of candidate edges."""

    name = "gkp-pipeline"

    def __init__(
        self,
        network: Engine,
        tree: RootedForest,
        items: Dict[VertexId, List[CandidateEdge]],
        fragment_ids: Set[FragmentId],
    ) -> None:
        super().__init__(tree.vertices)
        if len(tree.roots) != 1:
            raise ProtocolError("Pipeline-MST needs a single-rooted auxiliary tree")
        self._tree = tree
        self._fragment_ids = set(fragment_ids)
        self._pending: Dict[VertexId, List[CandidateEdge]] = {
            v: sorted(set(items.get(v, []))) for v in self.participants
        }
        #: per-vertex cycle filter over the fragments its forwarded edges join
        self._filters: Dict[VertexId, UnionFind] = {
            v: UnionFind(self._fragment_ids) for v in self.participants
        }
        self._child_last: Dict[VertexId, Dict[VertexId, CandidateEdge]] = {
            v: {} for v in self.participants
        }
        self._child_done: Dict[VertexId, Set[VertexId]] = {v: set() for v in self.participants}
        self._done_sent: Set[VertexId] = set()
        self._root_received: List[CandidateEdge] = []

    def initiators(self) -> Tuple[VertexId, ...]:
        return self._tree.leaves

    # -------------------------------------------------------------- #

    def _all_children_done(self, vertex: VertexId) -> bool:
        return len(self._child_done[vertex]) == len(self._tree.children[vertex])

    def _eligible(self, vertex: VertexId, edge: CandidateEdge) -> bool:
        for child in self._tree.children[vertex]:
            if child in self._child_done[vertex]:
                continue
            last = self._child_last[vertex].get(child)
            if last is None or last < edge:
                return False
        return True

    def _step(self, vertex: VertexId, api: ProtocolApi) -> None:
        parent = self._tree.parent[vertex]
        if parent is None:
            if self._all_children_done(vertex):
                api.finish(vertex)
            else:
                api.wait(vertex)
            return
        if vertex in self._done_sent:
            return
        budget = api.bandwidth
        pending = self._pending[vertex]
        while budget > 0 and pending:
            edge = pending[0]
            if not self._eligible(vertex, edge):
                break
            pending.pop(0)
            _, _, _, fragment_u, fragment_v = edge
            if not self._filters[vertex].union(fragment_u, fragment_v):
                # Heaviest in a cycle among already-forwarded edges: by the
                # cycle property it cannot be an MST edge, so it is dropped
                # locally (no message is spent on it).
                continue
            api.send(vertex, parent, "edge", payload=(edge,), words=1)
            budget -= 1
        if budget == 0:
            return  # stopped by the bandwidth budget: more to send next round
        if not pending and self._all_children_done(vertex):
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
            if message.kind.endswith(":edge"):
                edge = message.payload[0]
                previous = self._child_last[vertex].get(message.sender)
                if previous is not None and edge < previous:
                    raise ProtocolError(
                        f"child {message.sender} sent candidate edges out of weight order"
                    )
                self._child_last[vertex][message.sender] = edge
                if self._tree.parent[vertex] is None:
                    self._root_received.append(edge)
                else:
                    self._insert(vertex, edge)
            elif message.kind.endswith(":done"):
                self._child_done[vertex].add(message.sender)
        self._step(vertex, api)

    def _insert(self, vertex: VertexId, edge: CandidateEdge) -> None:
        pending = self._pending[vertex]
        # Keep the pending list sorted; candidates arrive roughly in order,
        # so a linear insertion from the back is cheap in practice.
        index = len(pending)
        while index > 0 and pending[index - 1] > edge:
            index -= 1
        if index < len(pending) and pending[index] == edge:
            return
        pending.insert(index, edge)

    def result(self, network: Engine) -> List[CandidateEdge]:
        root = self._tree.roots[0]
        collected = sorted(set(self._root_received + self._pending[root]))
        return collected


def pipeline_mst_upcast(
    network: Engine,
    tree: RootedForest,
    items: Dict[VertexId, List[CandidateEdge]],
    fragment_ids: Set[FragmentId],
) -> List[CandidateEdge]:
    """Run the Pipeline-MST filtered upcast and return the edges the root holds.

    The returned list is a superset of the MST edges of the fragments'
    graph; the caller (the GKP root) finishes with a local Kruskal pass
    over the fragment identities.
    """
    protocol = _PipelineMSTProtocol(network, tree, items, fragment_ids)
    return run_protocol(network, protocol)
