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

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
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

    @classmethod
    def _assemble(cls, root: VertexId, tree: RootedForest) -> "Fragment":
        """The fragment over ``tree``, a valid tree rooted at ``root``; nothing is checked."""
        fragment = cls.__new__(cls)
        fragment.root = root
        fragment.parent = tree.parent
        fragment._forest = tree
        return fragment

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
        return {
            normalize_edge(child, parent)
            for child, parent in self.parent.items()
            if parent is not None
        }

    def diameter(self) -> int:
        """Strong diameter of the fragment tree (longest path, in hops)."""
        return self._diameter

    @cached_property
    def _diameter(self) -> int:
        # One bottom-up pass, children before parents: a vertex's height
        # is known once all its children's are, and the longest path
        # through it joins its two tallest child subtrees.
        children = self._forest.children
        height: Dict[VertexId, int] = {}
        diameter = 0
        for vertex in reversed(self._forest.depth):
            tallest = second = 0
            for child in children[vertex]:
                below = height[child] + 1
                if below > tallest:
                    tallest, second = below, tallest
                elif below > second:
                    second = below
            height[vertex] = tallest
            if tallest + second > diameter:
                diameter = tallest + second
        return diameter

    @staticmethod
    def singleton(vertex: VertexId) -> "Fragment":
        """A fragment consisting of a single vertex."""
        return Fragment._assemble(
            vertex, RootedForest._assemble({vertex: None}, {vertex: ()}, (vertex,), {vertex: 0})
        )

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
        # One BFS orients the tree and records its children and depths.
        # Neighbours are taken in the order of ``edges``; that order is the
        # parent map's key order, and with it the order in which a run
        # later sums its tree edges into its weight.
        parent: Dict[VertexId, Optional[VertexId]] = {root: None}
        children: Dict[VertexId, Tuple[VertexId, ...]] = {}
        depth: Dict[VertexId, int] = {root: 0}
        order = [root]
        for vertex in order:
            below = depth[vertex] + 1
            found = []
            for neighbor in adjacency[vertex]:
                if neighbor not in parent:
                    parent[neighbor] = vertex
                    depth[neighbor] = below
                    found.append(neighbor)
            order.extend(found)
            children[vertex] = tuple(sorted(found))
        if len(parent) != len(vertex_set):
            raise FragmentError(
                f"edges do not form a tree connected to root {root}: "
                f"{len(parent)} of {len(vertex_set)} vertices reachable"
            )
        if len(edge_list) != len(vertex_set) - 1:
            raise FragmentError(
                f"{len(edge_list)} edges over {len(vertex_set)} vertices is not a tree"
            )
        tree = RootedForest._assemble(parent, children, (root,), depth)
        return Fragment._assemble(root, tree)


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

    @classmethod
    def _assemble(
        cls,
        fragments: Dict[FragmentId, Fragment],
        vertex_fragment: Dict[VertexId, FragmentId],
    ) -> "MSTForest":
        """The forest of ``fragments``, already known to be disjoint and keyed by identity."""
        forest = cls.__new__(cls)
        forest.fragments = fragments
        forest._vertex_fragment = vertex_fragment
        return forest

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
        """All fragment trees as one :class:`RootedForest` (for parallel tree ops).

        Assembled from the fragments' own trees, which each fragment
        validated when it was built.
        """
        parent: Dict[VertexId, Optional[VertexId]] = {}
        children: Dict[VertexId, Tuple[VertexId, ...]] = {}
        depth: Dict[VertexId, int] = {}
        for fragment in self.fragments.values():
            tree = fragment._forest
            parent.update(tree.parent)
            children.update(tree.children)
            depth.update(tree.depth)
        return RootedForest._assemble(parent, children, tuple(sorted(self.fragments)), depth)

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
        return MSTForest._assemble(fragments, {vertex: vertex for vertex in fragments})

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
