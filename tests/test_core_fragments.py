"""Tests for MST fragments and forests."""

from __future__ import annotations

import pytest

from repro.core.fragments import Fragment, MSTForest
from repro.exceptions import FragmentError


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
