"""The paper's contribution: the deterministic near-optimal distributed MST.

Modules:

* :mod:`repro.core.fragments` -- MST fragments and MST forests.
* :mod:`repro.core.cole_vishkin` -- deterministic 3-colouring of rooted
  forests (Cole-Vishkin), used on the candidate fragment graph.
* :mod:`repro.core.maximal_matching` -- maximal matching on the candidate
  fragment forest driven by the 3-colouring (Section 4).
* :mod:`repro.core.controlled_ghs` -- the (n/k, O(k))-MST-forest
  construction (Theorem 4.3).
* :mod:`repro.core.mwoe` -- minimum-weight-outgoing-edge searches.
* :mod:`repro.core.boruvka_merge` -- the root's local fragment-graph
  merging used in the second phase.
* :mod:`repro.core.elkin_mst` -- the complete algorithm (Theorems 3.1 and
  3.2) and its result object.
* :mod:`repro.core.parameters` -- the paper's parameter choices (``k``).
"""

from .boruvka_merge import FragmentGraphMerge, merge_fragment_graph
from .cole_vishkin import cole_vishkin_coloring, validate_coloring
from .controlled_ghs import build_base_forest, ControlledGHSResult
from .elkin_mst import compute_mst
from .fragments import Fragment, MSTForest
from .maximal_matching import maximal_matching_from_coloring
from .parameters import choose_base_forest_parameter

__all__ = [
    "Fragment",
    "MSTForest",
    "cole_vishkin_coloring",
    "validate_coloring",
    "maximal_matching_from_coloring",
    "ControlledGHSResult",
    "build_base_forest",
    "FragmentGraphMerge",
    "merge_fragment_graph",
    "compute_mst",
    "choose_base_forest_parameter",
]
