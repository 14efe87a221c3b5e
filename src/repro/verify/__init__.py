"""Verification layer: MST correctness, forest invariants, complexity bounds.

These checks are what turn the simulator's measurements into a
reproduction: every algorithm run can be validated against independent
oracles (networkx, Kruskal, Prim and, on planted graphs, the planted
tree -- all through one :class:`MSTOracle`), every intermediate forest
against the structural lemmas of the paper (Lemmas 4.1/4.2), and every
cost report against the theorem bounds with explicit constants.
"""

from .complexity_checks import (
    assert_controlled_ghs_bounds,
    assert_elkin_bounds,
    elkin_message_bound,
    elkin_time_bound,
)
from .forest_checks import (
    assert_alpha_beta_forest,
    assert_forest_coarsens,
    assert_fragments_are_mst_subtrees,
    assert_valid_mst_forest,
)
from .mst_checks import MSTOracle, reference_mst, verify_mst_result
from .planted_checks import assert_matches_planted_mst, planted_mst_details, planted_mst_edges

__all__ = [
    "MSTOracle",
    "assert_matches_planted_mst",
    "planted_mst_details",
    "planted_mst_edges",
    "reference_mst",
    "verify_mst_result",
    "assert_alpha_beta_forest",
    "assert_forest_coarsens",
    "assert_fragments_are_mst_subtrees",
    "assert_valid_mst_forest",
    "assert_controlled_ghs_bounds",
    "assert_elkin_bounds",
    "elkin_message_bound",
    "elkin_time_bound",
]
