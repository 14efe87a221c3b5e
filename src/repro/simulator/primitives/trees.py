"""Rooted forests: the shared tree representation used by the primitives.

A :class:`RootedForest` is a set of vertex-disjoint rooted trees given by
parent pointers.  BFS trees, MST fragment trees and the auxiliary tree
``tau`` of the paper are all instances; the broadcast, convergecast and
pipelining primitives operate on any of them.  The structure is validated
eagerly (no cycles, parents are present, edges are consistent) because a
malformed forest would silently corrupt cost accounting; only a forest
assembled from parts that were validated before, or that a traversal
built and checked, skips it (:meth:`RootedForest._assemble`).  Whether its
tree edges are graph edges is checked once per graph
(:meth:`RootedForest.check_edges`), since one forest is reused by many
primitive runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from ...exceptions import ProtocolError
from ...types import VertexId
from ..engine import Engine


@dataclass
class RootedForest:
    """A forest described by parent pointers.

    Attributes:
        parent: maps every vertex of the forest to its parent, or ``None``
            for roots.  The key set defines the vertex set of the forest.
        depth: every vertex's distance from its root, keyed so that
            every vertex comes after its parent: a reversed walk visits
            children before parents.
    """

    parent: Dict[VertexId, Optional[VertexId]]
    children: Dict[VertexId, Tuple[VertexId, ...]] = field(init=False)
    roots: Tuple[VertexId, ...] = field(init=False)
    depth: Dict[VertexId, int] = field(init=False)
    #: the graph whose edges last passed :meth:`check_edges`
    _checked_graph: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parent_of = self.parent
        if not parent_of:
            raise ProtocolError("a rooted forest needs at least one vertex")
        grouped: Dict[VertexId, List[VertexId]] = {}
        roots: List[VertexId] = []
        for vertex, parent in parent_of.items():
            if parent is None:
                roots.append(vertex)
                continue
            siblings = grouped.get(parent)
            if siblings is None:
                if parent not in parent_of:
                    raise ProtocolError(
                        f"vertex {vertex} has parent {parent} which is not in the forest"
                    )
                siblings = grouped[parent] = []
            if parent == vertex:
                raise ProtocolError(f"vertex {vertex} is its own parent")
            siblings.append(vertex)
        if not roots:
            raise ProtocolError("forest has no roots (parent pointers form a cycle)")
        children: Dict[VertexId, Tuple[VertexId, ...]] = dict.fromkeys(parent_of, ())
        for vertex, siblings in grouped.items():
            siblings.sort()
            children[vertex] = tuple(siblings)
        self.children = children
        self.roots = tuple(sorted(roots))

        # Depth by BFS from the roots, queueing only vertices with
        # children; detects unreachable vertices (cycles).
        depth = dict.fromkeys(self.roots, 0)
        queue = deque(filter(children.__getitem__, self.roots))
        while queue:
            vertex = queue.popleft()
            below = depth[vertex] + 1
            for child in children[vertex]:
                depth[child] = below
                if children[child]:
                    queue.append(child)
        if len(depth) != len(parent_of):
            missing = set(parent_of) - set(depth)
            raise ProtocolError(
                f"{len(missing)} vertices unreachable from any root (cycle?), e.g. {next(iter(missing))}"
            )
        self.depth = depth

    @classmethod
    def _assemble(
        cls,
        parent: Dict[VertexId, Optional[VertexId]],
        children: Dict[VertexId, Tuple[VertexId, ...]],
        roots: Tuple[VertexId, ...],
        depth: Dict[VertexId, int],
    ) -> "RootedForest":
        """A forest from parts that a traversal built, or that were validated before.

        Nothing is checked again: ``children`` must hold sorted tuples,
        ``roots`` must be sorted and ``depth`` must key every vertex after
        its parent.
        """
        forest = cls.__new__(cls)
        forest.parent = parent
        forest.children = children
        forest.roots = roots
        forest.depth = depth
        return forest

    # ------------------------------------------------------------------ #

    @cached_property
    def vertices(self) -> Tuple[VertexId, ...]:
        """Vertices of the forest in sorted order."""
        return tuple(sorted(self.parent))

    @cached_property
    def leaves(self) -> Tuple[VertexId, ...]:
        """Vertices without children (singleton roots included) in sorted order."""
        return tuple(v for v in self.vertices if not self.children[v])

    @property
    def height(self) -> int:
        """Maximum depth over all vertices (0 for a forest of singletons)."""
        return max(self.depth.values())

    def is_root(self, vertex: VertexId) -> bool:
        """True when ``vertex`` is a root of its tree."""
        return self.parent[vertex] is None

    def edges(self) -> List[Tuple[VertexId, VertexId]]:
        """Tree edges as (child, parent) pairs."""
        return [(v, p) for v, p in self.parent.items() if p is not None]

    def check_edges(self, network: Engine, caller: str) -> None:
        """Raise :class:`ProtocolError` unless every tree edge is an edge of ``network``.

        The forest remembers the graph that last passed, so a forest that
        many primitive runs share on one network is checked once.
        ``caller`` names the primitive in the error.
        """
        if self._checked_graph is network.graph:
            return
        for child, parent in self.edges():
            if not network.has_edge(child, parent):
                raise ProtocolError(
                    f"{caller}: tree edge ({child}, {parent}) is not a graph edge"
                )
        self._checked_graph = network.graph
