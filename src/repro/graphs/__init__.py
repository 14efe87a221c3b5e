"""Weighted-graph substrate: generators, weight schemes, properties.

All graphs in this package are undirected, connected
:class:`networkx.Graph` instances whose edges carry a ``weight``
attribute.  Generators guarantee connectivity, and
:func:`repro.graphs.weights.assign_unique_weights` makes the MST unique,
matching the paper's (standard, w.l.o.g.) uniqueness assumption.
"""

from .generators import (
    barbell_graph,
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    edge_list_graph,
    GraphSpec,
    grid_graph,
    hub_path_graph,
    lollipop_graph,
    make_graph,
    path_graph,
    preferential_attachment_graph,
    random_connected_graph,
    random_geometric_connected_graph,
    random_regular_connected_graph,
    random_tree,
    star_graph,
    torus_graph,
    wheel_graph,
)
from .properties import (
    graph_summary,
    GraphSummary,
    hop_diameter,
    validate_weighted_graph,
)
from .weights import (
    assign_random_unique_weights,
    assign_unique_weights,
    ensure_unique_weights,
    weights_are_unique,
)

__all__ = [
    "GraphSpec",
    "barbell_graph",
    "caterpillar_graph",
    "complete_graph",
    "cycle_graph",
    "edge_list_graph",
    "grid_graph",
    "hub_path_graph",
    "lollipop_graph",
    "path_graph",
    "preferential_attachment_graph",
    "wheel_graph",
    "random_connected_graph",
    "random_geometric_connected_graph",
    "random_regular_connected_graph",
    "random_tree",
    "star_graph",
    "torus_graph",
    "make_graph",
    "assign_random_unique_weights",
    "assign_unique_weights",
    "ensure_unique_weights",
    "weights_are_unique",
    "GraphSummary",
    "graph_summary",
    "hop_diameter",
    "validate_weighted_graph",
]
