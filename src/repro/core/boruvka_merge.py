"""The root's local fragment-graph merging (one Boruvka phase, done at ``rt``).

After the pipelined upcast, the BFS root ``rt`` knows, for every coarse
fragment ``F_hat`` of the current forest ``F_j``, its minimum-weight
outgoing edge.  It then locally builds the fragments' graph (vertices =
coarse fragments, edges = the MWOEs), merges every connected component
into a single new fragment, and assigns each old fragment its new
fragment identity.  This is free local computation in the CONGEST model;
the surrounding communication (upcast before, downcast after) is charged
by :mod:`repro.core.elkin_mst`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from ..exceptions import FragmentError
from ..types import Edge, FragmentId, normalize_edge
from .mwoe import Candidate


class _UnionFind:
    """Small union-find used for the fragments' graph components."""

    def __init__(self, elements) -> None:
        self._parent = {element: element for element in elements}

    def find(self, element):
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a, b) -> bool:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        # Deterministic orientation: smaller identity becomes the representative.
        if root_b < root_a:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        return True


@dataclass
class FragmentGraphMerge:
    """Result of merging the fragments' graph at the root.

    Attributes:
        new_fragment_of: maps every old coarse fragment identity to the
            identity of the merged fragment that now contains it (the
            minimum identity of its component, a deterministic choice).
        mst_edges_added: the MWOE edges selected in this phase; they are
            MST edges by the cut property and are added to the output.
    """

    new_fragment_of: Dict[FragmentId, FragmentId]
    mst_edges_added: Set[Edge]


def merge_fragment_graph(
    mwoe_per_fragment: Dict[FragmentId, Candidate],
    all_fragment_ids: Set[FragmentId],
) -> FragmentGraphMerge:
    """Merge coarse fragments along their MWOEs (one Boruvka phase, locally).

    Args:
        mwoe_per_fragment: for each coarse fragment that has an outgoing
            edge, its minimum-weight outgoing candidate
            ``(weight, u, v, target fragment)``.
        all_fragment_ids: identities of all current coarse fragments
            (including any without an entry in ``mwoe_per_fragment``;
            with a connected graph that only happens when a single
            fragment remains).

    Returns:
        The :class:`FragmentGraphMerge` describing the coarser forest.

    Raises:
        FragmentError: if a candidate refers to an unknown fragment or
            points back into its own fragment (which would indicate a
            broken MWOE search).
    """
    union_find = _UnionFind(all_fragment_ids)
    mst_edges: Set[Edge] = set()
    for fragment_id, candidate in mwoe_per_fragment.items():
        if fragment_id not in all_fragment_ids:
            raise FragmentError(f"unknown source fragment {fragment_id} in MWOE table")
        weight, u, v, target = candidate
        if target not in all_fragment_ids:
            raise FragmentError(
                f"MWOE of fragment {fragment_id} points to unknown fragment {target}"
            )
        if target == fragment_id:
            raise FragmentError(
                f"MWOE of fragment {fragment_id} is not an outgoing edge "
                f"(target is the fragment itself, edge ({u}, {v}, weight {weight}))"
            )
        mst_edges.add(normalize_edge(u, v))
        union_find.union(fragment_id, target)

    new_fragment_of = {
        fragment_id: union_find.find(fragment_id) for fragment_id in all_fragment_ids
    }
    if mwoe_per_fragment:
        before = len(all_fragment_ids)
        after = len(set(new_fragment_of.values()))
        if after > before - max(1, len(mwoe_per_fragment) // 2):
            # Boruvka guarantees the number of fragments at least halves
            # when every fragment has an outgoing edge; a weaker sanity
            # check (it must strictly decrease) still catches broken input.
            if after >= before:
                raise FragmentError(
                    f"fragment merge did not reduce the fragment count ({before} -> {after})"
                )
    return FragmentGraphMerge(new_fragment_of=new_fragment_of, mst_edges_added=mst_edges)
