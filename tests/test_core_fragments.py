"""Tests for MST fragments and forests."""

from __future__ import annotations

from collections import defaultdict, deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controlled_ghs import build_base_forest
from repro.core.fragments import Fragment, MSTForest
from repro.exceptions import FragmentError
from repro.graphs import random_connected_graph
from repro.simulator.engine import create_engine
from repro.simulator.primitives.trees import RootedForest
from repro.types import normalize_edge


class TestFragment:
    def test_singleton(self):
        fragment = Fragment.singleton(7)
        assert fragment.fragment_id == 7
        assert fragment.vertices == (7,)
        assert fragment.size == 1
        assert fragment.diameter() == 0
        assert fragment.tree_edges() == set()

    def test_from_edges_builds_parent_pointers(self):
        fragment = Fragment.from_edges(0, [(0, 1), (1, 2), (1, 3)])
        assert fragment.size == 4
        assert fragment.parent[2] == 1
        assert fragment.parent[0] is None
        assert fragment.depth == 2
        assert fragment.diameter() == 2
        assert fragment.tree_edges() == {(0, 1), (1, 2), (1, 3)}

    def test_from_edges_rejects_disconnected(self):
        with pytest.raises(FragmentError):
            Fragment.from_edges(0, [(0, 1), (2, 3)])

    def test_from_edges_rejects_cycles(self):
        with pytest.raises(FragmentError):
            Fragment.from_edges(0, [(0, 1), (1, 2), (2, 0)])

    def test_diameter_of_path_fragment(self):
        fragment = Fragment.from_edges(0, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert fragment.diameter() == 4

    def test_root_must_be_member(self):
        with pytest.raises(FragmentError):
            Fragment(root=5, parent={0: None, 1: 0})

    def test_root_must_not_have_parent(self):
        with pytest.raises(FragmentError):
            Fragment(root=0, parent={0: 1, 1: None})


class TestMSTForest:
    def test_singletons(self):
        forest = MSTForest.singletons(range(5))
        assert forest.count == 5
        assert forest.fragment_of(3) == 3
        assert forest.max_diameter() == 0
        assert forest.tree_edges() == set()

    def test_vertex_disjointness_enforced(self):
        overlapping = {
            0: Fragment.from_edges(0, [(0, 1)]),
            1: Fragment.singleton(1),
        }
        with pytest.raises(FragmentError):
            MSTForest(fragments=overlapping)

    def test_fragment_key_must_match_identity(self):
        with pytest.raises(FragmentError):
            MSTForest(fragments={5: Fragment.singleton(3)})

    def test_fragment_of_unknown_vertex(self):
        forest = MSTForest.singletons([0, 1])
        with pytest.raises(FragmentError):
            forest.fragment_of(9)

    def test_merge_groups(self):
        forest = MSTForest.singletons(range(4))
        merged = forest.merge_groups([([0, 1], [(0, 1)], 1), ([2, 3], [(2, 3)], 3)])
        assert merged.count == 2
        assert merged.fragment_of(0) == 1
        assert merged.fragment_of(2) == 3
        assert merged.tree_edges() == {(0, 1), (2, 3)}
        # The original forest is untouched.
        assert forest.count == 4

    def test_merge_groups_carries_untouched_fragments(self):
        forest = MSTForest.singletons(range(4))
        merged = forest.merge_groups([([0, 1], [(0, 1)], 0)])
        assert merged.count == 3
        assert merged.fragment_of(2) == 2

    def test_merge_groups_rejects_duplicate_membership(self):
        forest = MSTForest.singletons(range(3))
        with pytest.raises(FragmentError):
            forest.merge_groups([([0, 1], [(0, 1)], 0), ([1, 2], [(1, 2)], 2)])

    def test_merge_groups_rejects_foreign_root(self):
        forest = MSTForest.singletons(range(3))
        with pytest.raises(FragmentError):
            forest.merge_groups([([0, 1], [(0, 1)], 2)])

    def test_merge_groups_rejects_non_tree_edge_count(self):
        forest = MSTForest.singletons(range(3))
        with pytest.raises(FragmentError):
            forest.merge_groups([([0, 1, 2], [(0, 1)], 0)])

    def test_merge_groups_rejects_an_edge_leaving_the_group(self):
        # Two edges over the three vertices of {0, 1} and {2} count as a
        # tree, but (0, 3) joins fragment 3, so vertex 2 is left out.
        forest = MSTForest(
            fragments={0: Fragment.from_edges(0, [(0, 1)]), 2: Fragment.singleton(2),
                       3: Fragment.singleton(3)}
        )
        with pytest.raises(FragmentError, match="vertex 3 belongs to fragments 0 and 3"):
            forest.merge_groups([([0, 2], [(0, 3)], 0)])

    def test_combined_forest_and_roots(self):
        forest = MSTForest.singletons(range(4)).merge_groups([([0, 1, 2], [(0, 1), (1, 2)], 1)])
        combined = forest.combined_forest()
        assert set(combined.roots) == {1, 3}
        assert forest.roots()[1] == 1
        assert forest.root_of(1) == 1

    def test_coarsens(self):
        fine = MSTForest.singletons(range(4))
        coarse = fine.merge_groups([([0, 1], [(0, 1)], 0), ([2, 3], [(2, 3)], 2)])
        assert coarse.coarsens(fine)
        assert not fine.coarsens(coarse)

    def test_assert_covers(self):
        forest = MSTForest.singletons(range(4))
        forest.assert_covers(range(4))
        with pytest.raises(FragmentError):
            forest.assert_covers(range(5))


@st.composite
def labelled_trees(draw, max_vertices=40):
    """``(edges, root)``: a tree over distinct drawn labels, and a vertex of it."""
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1,
            max_size=max_vertices,
            unique=True,
        )
    )
    edges = [
        (labels[index], labels[draw(st.integers(min_value=0, max_value=index - 1))])
        for index in range(1, len(labels))
    ]
    return edges, draw(st.sampled_from(labels))


def bfs_orientation(root, edges) -> dict:
    """The reference orientation: a BFS from ``root`` taking each vertex's
    neighbours in the order of ``edges``; its key order is the order a
    run later sums tree edges in."""
    adjacency = defaultdict(list)
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent = {root: None}
    queue = deque([root])
    while queue:
        vertex = queue.popleft()
        for neighbor in adjacency[vertex]:
            if neighbor not in parent:
                parent[neighbor] = vertex
                queue.append(neighbor)
    return parent


def double_bfs_diameter(edges, root) -> int:
    """The reference: the farthest vertex from the farthest vertex from ``root``."""
    adjacency = defaultdict(list)
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    def farthest(start):
        distance = {start: 0}
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            for neighbor in adjacency[vertex]:
                if neighbor not in distance:
                    distance[neighbor] = distance[vertex] + 1
                    queue.append(neighbor)
        return max(distance.items(), key=lambda item: item[1])

    extreme, _ = farthest(root)
    return farthest(extreme)[1]


class TestFragmentLayerIdentities:
    """The one-pass fragment layer computes what the validating paths compute."""

    @settings(max_examples=150, deadline=None)
    @given(tree=labelled_trees())
    def test_from_edges_orients_like_the_reference_bfs(self, tree):
        edges, root = tree
        fragment = Fragment.from_edges(root, edges)
        expected = bfs_orientation(root, edges)
        assert list(fragment.parent.items()) == list(expected.items())
        assert fragment._forest == RootedForest(parent=dict(expected))
        assert fragment.diameter() == double_bfs_diameter(edges, root)

    @settings(max_examples=100, deadline=None)
    @given(tree=labelled_trees(), data=st.data())
    def test_a_merged_fragment_is_the_reference_bfs_tree_key_for_key(self, tree, data):
        # Cut the tree into fragments, then merge them again along some
        # of the cut edges, each group under a drawn root.
        edges, _ = tree
        cut = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        kept = [edge for edge, is_cut in zip(edges, cut) if not is_cut]
        cut_edges = [edge for edge, is_cut in zip(edges, cut) if is_cut]
        vertices = sorted({tree[1]} | {v for edge in edges for v in edge})
        component = {v: v for v in vertices}

        def find(vertex):
            while component[vertex] != vertex:
                vertex = component[vertex]
            return vertex

        for u, v in kept:
            component[find(u)] = find(v)
        members = defaultdict(list)
        for vertex in vertices:
            members[find(vertex)].append(vertex)
        fragments = {}
        for group in members.values():
            root = data.draw(st.sampled_from(group))
            inside = [(u, v) for u, v in kept if u in group]
            fragments[root] = Fragment.from_edges(root, inside)
        forest = MSTForest(fragments=fragments)

        along = [edge for edge in cut_edges if data.draw(st.booleans())]
        joined = {fid: fid for fid in fragments}

        def find_fragment(fid):
            while joined[fid] != fid:
                fid = joined[fid]
            return fid

        for u, v in along:
            joined[find_fragment(forest.fragment_of(u))] = find_fragment(forest.fragment_of(v))
        grouped = defaultdict(list)
        for fid in fragments:
            grouped[find_fragment(fid)].append(fid)
        groups = []
        for fragment_ids in grouped.values():
            if len(fragment_ids) < 2:
                continue
            connecting = [
                (u, v) for u, v in along if forest.fragment_of(u) in fragment_ids
            ]
            group_vertices = [v for fid in fragment_ids for v in fragments[fid].parent]
            groups.append((fragment_ids, connecting, data.draw(st.sampled_from(group_vertices))))

        merged = forest.merge_groups(groups)

        for fragment_ids, connecting, new_root in groups:
            # The reference: the merge's edge set built in the same
            # order, oriented by a BFS over it.
            union = set()
            for fid in fragment_ids:
                union |= fragments[fid].tree_edges()
            union |= {normalize_edge(u, v) for u, v in connecting}
            expected = bfs_orientation(new_root, union)
            got = merged.fragments[new_root]
            assert list(got.parent.items()) == list(expected.items())
            assert got._forest == RootedForest(parent=dict(expected))
            assert got.diameter() == double_bfs_diameter(union, new_root)
        assert merged.combined_forest() == RootedForest(
            parent={v: p for f in merged.fragments.values() for v, p in f.parent.items()}
        )

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=2, max_value=16),
    )
    def test_a_phase_adds_as_many_edges_as_it_removes_fragments(self, n, seed, k):
        # The reference: the tree edges each merge gains, counted from
        # the forests before and after it.
        gained = []
        merge_groups = MSTForest.merge_groups

        def counting_merge(forest, groups):
            merged = merge_groups(forest, groups)
            gained.append(len(merged.tree_edges()) - len(forest.tree_edges()))
            return merged

        network = create_engine(random_connected_graph(n, seed=seed), engine="fast")
        with mock.patch.object(MSTForest, "merge_groups", counting_merge):
            result = build_base_forest(network, k)
        merging = [phase for phase in result.phases if "small_fragments" in phase.details]
        assert [phase.mst_edges_added for phase in merging] == gained
        for phase in result.phases:
            # A spanning forest of n vertices and c trees has n - c edges.
            assert phase.mst_edges_added == phase.fragments_before - phase.fragments_after
