"""MST fragments and MST forests (Section 2 of the paper).

A *fragment* is a connected subtree of the (unique) MST; an *MST forest*
is a collection of vertex-disjoint fragments covering all vertices.  An
``(alpha, beta)``-MST forest has at most ``alpha`` fragments, each of
strong diameter at most ``beta``.

The classes here are the structural backbone shared by Controlled-GHS,
the Boruvka-over-BFS phase and all baselines: they maintain, for every
fragment, its root, its tree (as parent pointers over graph edges) and
its identity (the identity of its root, as in the paper), and they know
how to merge groups of fragments along connecting MST edges.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..exceptions import FragmentError
from ..simulator.primitives.trees import RootedForest
from ..types import Edge, FragmentId, normalize_edge, VertexId


@dataclass
class Fragment:
    """One MST fragment: a rooted tree over a subset of the vertices.

    Attributes:
        root: the designated root vertex ``rt_F``.
        parent: parent pointer of every fragment vertex (``None`` for the
            root).  Every (child, parent) pair must be a graph edge and an
            MST edge; this is asserted by the verification layer rather
            than here, because the fragment itself has no access to the
            graph.
    """

    root: VertexId
    parent: Dict[VertexId, Optional[VertexId]]

    def __post_init__(self) -> None:
        if self.root not in self.parent:
            raise FragmentError(f"root {self.root} is not among the fragment's vertices")
        if self.parent[self.root] is not None:
            raise FragmentError(f"root {self.root} has a parent pointer")
        # Delegate structural validation (acyclicity, reachability).
        self._forest = RootedForest(parent=dict(self.parent))
        if len(self._forest.roots) != 1:
            raise FragmentError(
                f"fragment rooted at {self.root} has {len(self._forest.roots)} roots"
            )

    @property
    def fragment_id(self) -> FragmentId:
        """The fragment identity: the identity of its root (as in the paper)."""
        return self.root

    @property
    def vertices(self) -> Tuple[VertexId, ...]:
        """Vertices of the fragment, sorted."""
        return self._forest.vertices

    @property
    def size(self) -> int:
        """Number of vertices."""
        return len(self.parent)

    @property
    def depth(self) -> int:
        """Height of the fragment tree measured from the root."""
        return self._forest.height

    def tree_edges(self) -> Set[Edge]:
        """The fragment's tree edges in canonical form."""
        return {normalize_edge(child, parent) for child, parent in self._forest.edges()}

    def diameter(self) -> int:
        """Strong diameter of the fragment tree (longest path, in hops).

        Computed with the classical double-BFS on trees; the fragment tree
        is a tree, for which double-BFS is exact.
        """
        adjacency: Dict[VertexId, List[VertexId]] = defaultdict(list)
        for child, parent in self._forest.edges():
            adjacency[child].append(parent)
            adjacency[parent].append(child)
        if self.size == 1:
            return 0

        def farthest(start: VertexId) -> Tuple[VertexId, int]:
            seen = {start: 0}
            queue = deque([start])
            far_vertex, far_distance = start, 0
            while queue:
                vertex = queue.popleft()
                for neighbor in adjacency[vertex]:
                    if neighbor not in seen:
                        seen[neighbor] = seen[vertex] + 1
                        if seen[neighbor] > far_distance:
                            far_vertex, far_distance = neighbor, seen[neighbor]
                        queue.append(neighbor)
            return far_vertex, far_distance

        extreme, _ = farthest(self.root)
        _, diameter = farthest(extreme)
        return diameter

    @staticmethod
    def singleton(vertex: VertexId) -> "Fragment":
        """A fragment consisting of a single vertex."""
        return Fragment(root=vertex, parent={vertex: None})

    @staticmethod
    def from_edges(root: VertexId, edges: Iterable[Edge]) -> "Fragment":
        """Build a fragment from its root and an edge set (re-orienting towards the root)."""
        adjacency: Dict[VertexId, List[VertexId]] = defaultdict(list)
        vertex_set: Set[VertexId] = {root}
        edge_list = list(edges)
        for u, v in edge_list:
            adjacency[u].append(v)
            adjacency[v].append(u)
            vertex_set.update((u, v))
        parent: Dict[VertexId, Optional[VertexId]] = {root: None}
        queue = deque([root])
        while queue:
            vertex = queue.popleft()
            for neighbor in adjacency[vertex]:
                if neighbor not in parent:
                    parent[neighbor] = vertex
                    queue.append(neighbor)
        if len(parent) != len(vertex_set):
            raise FragmentError(
                f"edges do not form a tree connected to root {root}: "
                f"{len(parent)} of {len(vertex_set)} vertices reachable"
            )
        if len(edge_list) != len(vertex_set) - 1:
            raise FragmentError(
                f"{len(edge_list)} edges over {len(vertex_set)} vertices is not a tree"
            )
        return Fragment(root=root, parent=parent)


@dataclass
class MSTForest:
    """A collection of vertex-disjoint fragments covering all vertices."""

    fragments: Dict[FragmentId, Fragment] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._vertex_fragment: Dict[VertexId, FragmentId] = {}
        for fragment_id, fragment in self.fragments.items():
            if fragment_id != fragment.fragment_id:
                raise FragmentError(
                    f"fragment keyed {fragment_id} has identity {fragment.fragment_id}"
                )
            for vertex in fragment.vertices:
                if vertex in self._vertex_fragment:
                    raise FragmentError(
                        f"vertex {vertex} belongs to fragments "
                        f"{self._vertex_fragment[vertex]} and {fragment_id}"
                    )
                self._vertex_fragment[vertex] = fragment_id

    # -------------------------------------------------------------- #
    # queries
    # -------------------------------------------------------------- #

    @property
    def count(self) -> int:
        """Number of fragments."""
        return len(self.fragments)

    @property
    def vertices(self) -> Tuple[VertexId, ...]:
        """All covered vertices, sorted."""
        return tuple(sorted(self._vertex_fragment))

    def fragment_of(self, vertex: VertexId) -> FragmentId:
        """Identity of the fragment containing ``vertex``."""
        try:
            return self._vertex_fragment[vertex]
        except KeyError as exc:
            raise FragmentError(f"vertex {vertex} is not covered by the forest") from exc

    def vertex_to_fragment(self) -> Dict[VertexId, FragmentId]:
        """A copy of the vertex -> fragment-identity mapping."""
        return dict(self._vertex_fragment)

    def max_diameter(self) -> int:
        """Maximum strong diameter over all fragments."""
        return max(fragment.diameter() for fragment in self.fragments.values())

    def tree_edges(self) -> Set[Edge]:
        """Union of all fragments' tree edges."""
        edges: Set[Edge] = set()
        for fragment in self.fragments.values():
            edges |= fragment.tree_edges()
        return edges

    def combined_forest(self) -> RootedForest:
        """All fragment trees as one :class:`RootedForest` (for parallel tree ops)."""
        parent: Dict[VertexId, Optional[VertexId]] = {}
        for fragment in self.fragments.values():
            parent.update(fragment.parent)
        return RootedForest(parent=parent)

    def root_of(self, fragment_id: FragmentId) -> VertexId:
        """Root vertex of the fragment with identity ``fragment_id``."""
        return self.fragments[fragment_id].root

    def roots(self) -> Dict[FragmentId, VertexId]:
        """Mapping fragment identity -> root vertex."""
        return {fragment_id: fragment.root for fragment_id, fragment in self.fragments.items()}

    # -------------------------------------------------------------- #
    # construction
    # -------------------------------------------------------------- #

    @staticmethod
    def singletons(vertices: Iterable[VertexId]) -> "MSTForest":
        """The forest of singleton fragments (the start of Boruvka / Controlled-GHS)."""
        fragments = {vertex: Fragment.singleton(vertex) for vertex in vertices}
        if not fragments:
            raise FragmentError("cannot build a forest over an empty vertex set")
        return MSTForest(fragments=fragments)

    def merge_groups(
        self,
        groups: Sequence[Tuple[Sequence[FragmentId], Sequence[Edge], VertexId]],
    ) -> "MSTForest":
        """Merge groups of fragments along connecting edges into a coarser forest.

        Args:
            groups: each entry is ``(fragment_ids, connecting_edges, new_root)``:
                the fragments to merge, the MST edges joining them (each
                connecting two distinct fragments of the group), and the
                vertex that roots the merged fragment (it must belong to
                one of the merged fragments).

        Fragments not mentioned in any group are carried over unchanged.
        Returns a new :class:`MSTForest`; ``self`` is left untouched.
        """
        merged: Dict[FragmentId, Fragment] = {}
        consumed: Set[FragmentId] = set()
        for fragment_ids, connecting_edges, new_root in groups:
            if not fragment_ids:
                raise FragmentError("cannot merge an empty group of fragments")
            edges: Set[Edge] = set()
            for fragment_id in fragment_ids:
                if fragment_id in consumed:
                    raise FragmentError(f"fragment {fragment_id} appears in two merge groups")
                consumed.add(fragment_id)
                edges |= self.fragments[fragment_id].tree_edges()
            edges |= {normalize_edge(u, v) for u, v in connecting_edges}
            group_vertices: Set[VertexId] = set()
            for fragment_id in fragment_ids:
                group_vertices.update(self.fragments[fragment_id].vertices)
            if new_root not in group_vertices:
                raise FragmentError(
                    f"new root {new_root} does not belong to the merged fragments"
                )
            if len(edges) != len(group_vertices) - 1:
                raise FragmentError(
                    f"merge of {len(fragment_ids)} fragments produced {len(edges)} edges "
                    f"over {len(group_vertices)} vertices (not a tree)"
                )
            fragment = Fragment.from_edges(new_root, edges)
            merged[fragment.fragment_id] = fragment
        for fragment_id, fragment in self.fragments.items():
            if fragment_id not in consumed:
                merged[fragment_id] = fragment
        return MSTForest(fragments=merged)

    # -------------------------------------------------------------- #
    # invariants
    # -------------------------------------------------------------- #

    def assert_covers(self, vertices: Iterable[VertexId]) -> None:
        """Raise :class:`FragmentError` unless the forest covers exactly ``vertices``."""
        expected = set(vertices)
        covered = set(self._vertex_fragment)
        if expected != covered:
            missing = expected - covered
            extra = covered - expected
            raise FragmentError(
                f"forest cover mismatch: missing {len(missing)} vertices, {len(extra)} extraneous"
            )

    def coarsens(self, finer: "MSTForest") -> bool:
        """True when every fragment of ``finer`` is contained in one fragment of ``self``."""
        for fragment in finer.fragments.values():
            owners = {self.fragment_of(vertex) for vertex in fragment.vertices}
            if len(owners) != 1:
                return False
        return True
