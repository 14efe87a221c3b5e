"""Classical CONGEST building blocks implemented as per-node protocols.

These are the primitives the paper composes (see Peleg, *Distributed
Computing: A Locality-Sensitive Approach*, chapters 3-5): BFS tree
construction, broadcast and convergecast over rooted forests, pipelined
upcast and downcast over a BFS tree, subtree interval labelling for
routing, and the one-round exchange of values between graph neighbours.

Every primitive is a :class:`~repro.simulator.protocol.NodeProtocol`
run by :func:`~repro.simulator.protocol.run_protocol` on any
:class:`~repro.simulator.engine.Engine` kernel, so the round and
message totals of an algorithm are the sums of what its primitives
actually did.
"""

from .bfs import BFSTree, build_bfs_tree
from .broadcast import forest_broadcast
from .convergecast import ConvergecastResult, forest_convergecast
from .intervals import assign_intervals, IntervalRouting
from .neighbor_exchange import neighbor_exchange
from .pipeline import pipelined_downcast, pipelined_upcast
from .trees import RootedForest

__all__ = [
    "RootedForest",
    "BFSTree",
    "build_bfs_tree",
    "forest_broadcast",
    "ConvergecastResult",
    "forest_convergecast",
    "neighbor_exchange",
    "IntervalRouting",
    "assign_intervals",
    "pipelined_downcast",
    "pipelined_upcast",
]
