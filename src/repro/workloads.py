"""The workload zoo: topology and weight families beyond the core set.

Elkin's bounds only separate from the baselines' across *structurally
diverse* inputs: low-diameter expanders, long sparse skeletons, dense
cores, and weight assignments that stress the comparator.  The core
generator set (:mod:`repro.graphs.generators`) covers the classical
regimes; this module adds the families the related work leans on --
tori, hypercubes, small-world rewirings, random-regular expanders --
plus *planted* instances whose MST is known by construction and weight
patterns that stress near-ties.

Every family registers itself through
:func:`repro.graphs.generators.register_family`, so it is a legal
``GraphSpec.family`` everywhere: campaign grids, scenarios, the CLI and
the ``zoo`` preset.  The ``repro`` package imports this module from its
``__init__``, which Python runs before any submodule, so the
registration happens before any family lookup.

Planted families additionally record the spanning tree they plant in
``graph.graph["planted_mst"]``; the verifier
(:class:`~repro.verify.mst_checks.MSTOracle`) requires it to equal the
sequential oracles' MST, so every verified run on such a graph is
checked against the planted tree.

The uniqueness convention: the paper assumes pairwise-distinct edge
weights (unique MST), and every simulated algorithm validates that
assumption.  The unit/duplicate weight-stress families therefore
realise tied weights the way the paper does w.l.o.g. -- through the
deterministic lexicographic perturbation ``(weight, u, v)`` -- so all
weights stay distinct while every comparison is a near-tie.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from .exceptions import GraphError
from .graphs.generators import _finalize, GraphSpec, random_connected_graph, register_family
from .graphs.weights import ensure_unique_weights
from .types import normalize_edge

#: Weight quantum for the near-tie families: exactly representable in
#: binary floating point, so ``base + index * _EPSILON`` is distinct and
#: deterministic across platforms for any realistic edge count.
_EPSILON = 2.0**-20


# --------------------------------------------------------------------- #
# topology families
# --------------------------------------------------------------------- #


def torus_3d_graph(
    rows: int,
    cols: int,
    layers: int,
    seed: Optional[int] = None,
    random_weights: bool = True,
) -> nx.Graph:
    """3D torus ``rows x cols x layers`` (grid with wraparound in all axes).

    A bounded-degree (6-regular) skeleton with hop-diameter
    ``(rows + cols + layers) // 2`` -- the intermediate-diameter regime
    at a dimension the 2D families cannot reach.
    """
    if rows < 3 or cols < 3 or layers < 3:
        raise GraphError(
            f"3d-torus dimensions must be >= 3, got {rows}x{cols}x{layers}"
        )
    graph = nx.grid_graph(dim=(rows, cols, layers), periodic=True)
    return _finalize(graph, seed, random_weights)


def hypercube_graph(
    dim: int, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """``dim``-dimensional hypercube: ``n = 2^dim``, hop-diameter ``dim``.

    The classical ``O(log n)``-diameter bounded-degree expander-like
    family: ``D = log2 n`` exactly, so the paper's regime rule always
    selects ``k = sqrt(n / b)``.
    """
    if dim < 1:
        raise GraphError(f"need dim >= 1, got {dim}")
    return _finalize(nx.hypercube_graph(dim), seed, random_weights)


def small_world_graph(
    n: int,
    neighbors: int = 4,
    rewire: float = 0.25,
    seed: Optional[int] = None,
    random_weights: bool = True,
) -> nx.Graph:
    """Connected Watts-Strogatz small-world graph.

    A ring lattice (each vertex joined to its ``neighbors`` nearest
    neighbours) with each edge rewired with probability ``rewire`` --
    the canonical interpolation between the high-diameter cycle and a
    low-diameter random graph.
    """
    if n < 4:
        raise GraphError(f"need n >= 4 for a small-world graph, got {n}")
    if not 2 <= neighbors < n:
        raise GraphError(f"need 2 <= neighbors < n, got neighbors={neighbors} n={n}")
    if not 0.0 <= rewire <= 1.0:
        raise GraphError(f"rewire must be in [0, 1], got {rewire}")
    rng = random.Random(seed)
    graph = nx.connected_watts_strogatz_graph(
        n, neighbors, rewire, tries=100, seed=rng.randrange(2**31)
    )
    return _finalize(graph, seed, random_weights)


def expander_graph(
    n: int, degree: int = 6, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """Random ``degree``-regular expander (retries until connected).

    Random regular graphs are expanders with high probability, giving
    ``D = O(log n)`` at constant degree -- the regime where the paper's
    ``O((sqrt(n/b) + D) log n)`` round bound is dominated by the
    ``sqrt(n/b)`` term.  A higher default degree than the core
    ``random_regular`` family keeps the spectral gap comfortable at the
    zoo's small sizes.
    """
    if degree < 3 or degree >= n:
        raise GraphError(f"need 3 <= degree < n, got degree={degree} n={n}")
    if (n * degree) % 2 != 0:
        raise GraphError(f"n * degree must be even, got n={n} degree={degree}")
    rng = random.Random(seed)
    for _attempt in range(100):
        candidate = nx.random_regular_graph(degree, n, seed=rng.randrange(2**31))
        if nx.is_connected(candidate):
            return _finalize(candidate, seed, random_weights)
    raise GraphError(f"failed to sample a connected {degree}-regular expander on {n} vertices")


def complete_bipartite_graph(
    left: int, right: int, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """Complete bipartite graph ``K_{left,right}``; hop-diameter 2.

    A dense low-diameter family whose edge count ``left * right`` is
    quadratic while no triangle exists -- a different density extreme
    from the complete graph for the message-bound experiments.
    """
    if left < 1 or right < 1:
        raise GraphError(f"need left, right >= 1, got {left}, {right}")
    if left + right < 2:
        raise GraphError("a complete bipartite graph needs at least 2 vertices")
    return _finalize(nx.complete_bipartite_graph(left, right), seed, random_weights)


def balanced_tree_graph(
    branching: int = 2,
    height: int = 3,
    seed: Optional[int] = None,
    random_weights: bool = True,
) -> nx.Graph:
    """Balanced ``branching``-ary tree of the given ``height``.

    ``m = n - 1`` with hop-diameter ``2 * height = Theta(log n)`` -- a
    tree (every edge is an MST edge) that is nonetheless low-diameter,
    unlike the path/caterpillar tree families.
    """
    if branching < 2:
        raise GraphError(f"need branching >= 2, got {branching}")
    if height < 1:
        raise GraphError(f"need height >= 1, got {height}")
    return _finalize(nx.balanced_tree(branching, height), seed, random_weights)


# --------------------------------------------------------------------- #
# planted families (known MST by construction)
# --------------------------------------------------------------------- #


def _record_planted_mst(graph: nx.Graph, edges: List[Tuple[int, int]]) -> None:
    """Record the planted spanning tree on the graph (JSON-safe form)."""
    canonical = sorted(normalize_edge(u, v) for u, v in edges)
    graph.graph["planted_mst"] = [list(edge) for edge in canonical]


def planted_fragments_graph(
    n: int,
    fragments: Optional[int] = None,
    extra_edges: Optional[int] = None,
    seed: Optional[int] = None,
    random_weights: bool = True,
) -> nx.Graph:
    """Fragment clusters with a planted, known-by-construction MST.

    The vertices are partitioned into ``fragments`` clusters (default
    ``round(sqrt(n))``); each cluster carries a random internal tree,
    the clusters are joined by a random inter-cluster tree, and
    ``extra_edges`` heavier non-tree edges (default ``n``) are sprinkled
    on top.  Every planted edge is strictly lighter than every non-tree
    edge, so the MST is exactly the planted tree (Kruskal accepts the
    planted edges first and they already span).  The planted tree is
    recorded in ``graph.graph["planted_mst"]`` and checked by
    :class:`~repro.verify.mst_checks.MSTOracle` on every verified run.

    This mirrors the base-forest structure of Controlled-GHS: the
    cluster diameter plays the role of the fragment parameter ``k``.
    ``random_weights`` is accepted for interface uniformity; the weights
    are always the planted ranks (shuffled within each class by
    ``seed``).
    """
    del random_weights  # the planted construction fixes the weight classes
    if n < 4:
        raise GraphError(f"need n >= 4 for planted fragments, got {n}")
    count = fragments if fragments is not None else max(2, round(math.sqrt(n)))
    if not 2 <= count <= n:
        raise GraphError(f"need 2 <= fragments <= n, got fragments={count} n={n}")
    rng = random.Random(seed)

    vertices = list(range(n))
    rng.shuffle(vertices)
    clusters: List[List[int]] = [vertices[index::count] for index in range(count)]

    planted: List[Tuple[int, int]] = []
    for members in clusters:
        for position in range(1, len(members)):
            planted.append((members[position], members[rng.randrange(position)]))
    # Random tree over the clusters; each inter-cluster edge picks random
    # endpoint vertices inside the two clusters it joins.
    for index in range(1, count):
        other = rng.randrange(index)
        planted.append(
            (rng.choice(clusters[index]), rng.choice(clusters[other]))
        )

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(planted)
    target_extra = extra_edges if extra_edges is not None else n
    max_extra = n * (n - 1) // 2 - (n - 1)
    target_extra = min(target_extra, max_extra)
    added = 0
    attempts = 0
    while added < target_extra and attempts < 50 * max(target_extra, 1) + 100:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added += 1

    # Light planted weights (1 .. n-1), heavy non-tree weights (n ..),
    # each class shuffled so the ranks carry no structural signal.
    planted_set = {normalize_edge(u, v) for u, v in planted}
    light = [float(value) for value in range(1, len(planted) + 1)]
    heavy = [float(value) for value in range(n, n + graph.number_of_edges())]
    rng.shuffle(light)
    rng.shuffle(heavy)
    light_iter, heavy_iter = iter(light), iter(heavy)
    for u, v in sorted(normalize_edge(a, b) for a, b in graph.edges()):
        graph[u][v]["weight"] = (
            next(light_iter) if (u, v) in planted_set else next(heavy_iter)
        )
    if not nx.is_connected(graph):
        raise GraphError("planted-fragment construction produced a disconnected graph")
    _record_planted_mst(graph, planted)
    graph.graph["planted_fragments"] = [sorted(members) for members in clusters]
    return graph


def adversarial_permutation_graph(
    n: int,
    stride: Optional[int] = None,
    seed: Optional[int] = None,
    random_weights: bool = True,
) -> nx.Graph:
    """Backbone path with adversarially permuted weights and heavy chords.

    The planted MST is the path ``0 - 1 - ... - n-1`` whose weights
    *decrease* along the path, so greedy fragment growth (GHS-style
    MWOE selection) starts at the far end and merges in the worst-case
    chain order.  Chord edges ``(i, i + stride)`` are all heavier than
    every backbone edge, and their weights are permuted so the chord
    adjacent to the lightest backbone region is the heaviest -- the
    opposite of what a weight-oblivious heuristic would hope for.
    ``seed`` rotates the chord permutation; ``random_weights`` is
    accepted for interface uniformity (the permutation *is* the point).
    """
    del random_weights
    if n < 4:
        raise GraphError(f"need n >= 4 for an adversarial permutation graph, got {n}")
    step = stride if stride is not None else max(2, round(math.sqrt(n)))
    if step < 2:
        raise GraphError(f"stride must be >= 2, got {step}")
    graph = nx.Graph()
    backbone = [(index, index + 1) for index in range(n - 1)]
    for index, (u, v) in enumerate(backbone):
        graph.add_edge(u, v, weight=float(n - 1 - index))
    chords = [(index, index + step) for index in range(n - step)]
    rotation = (seed or 0) % max(len(chords), 1)
    for position, (u, v) in enumerate(chords):
        rank = (position + rotation) % len(chords)
        # Reversed: early (light-backbone-adjacent) chords get the
        # heaviest weights.
        graph.add_edge(u, v, weight=float(n + (len(chords) - 1 - rank)))
    _record_planted_mst(graph, backbone)
    return graph


# --------------------------------------------------------------------- #
# weight-stress families
# --------------------------------------------------------------------- #


def unit_weight_stress_graph(
    n: int,
    extra_edges: Optional[int] = None,
    seed: Optional[int] = None,
    random_weights: bool = True,
) -> nx.Graph:
    """Random connected structure where every weight is a near-unit near-tie.

    All weights are ``1 + index * 2^-20`` with the indices randomly
    permuted: pairwise distinct (the paper's uniqueness assumption --
    realised exactly as its w.l.o.g. perturbation argument), but every
    comparison the algorithms make is between nearly identical values.
    This stresses MWOE selection and the ``(weight, u, v)`` total order
    rather than the topology.
    """
    del random_weights  # the near-tie pattern is the family
    graph = random_connected_graph(
        n, extra_edges=extra_edges, seed=seed, random_weights=False
    )
    rng = random.Random(seed)
    ordered = sorted(normalize_edge(u, v) for u, v in graph.edges())
    values = [1.0 + index * _EPSILON for index in range(len(ordered))]
    rng.shuffle(values)
    for (u, v), weight in zip(ordered, values):
        graph[u][v]["weight"] = weight
    return graph


def duplicate_weight_stress_graph(
    n: int,
    levels: int = 4,
    extra_edges: Optional[int] = None,
    seed: Optional[int] = None,
    random_weights: bool = True,
) -> nx.Graph:
    """Weights drawn from ``levels`` duplicate classes, tie-broken lexicographically.

    Each edge first receives one of ``levels`` base weights (massive
    duplication), then the standard deterministic perturbation
    (:func:`repro.graphs.weights.ensure_unique_weights`) breaks ties in
    the ``(weight, u, v)`` order -- the construction the paper invokes
    to assume unique weights w.l.o.g.  The resulting MST is exactly the
    MST of the duplicate weighting under lexicographic tie-breaking, so
    the family exercises duplicate-weight inputs while keeping the
    unique-MST verification stack sound.
    """
    del random_weights
    if levels < 1:
        raise GraphError(f"need levels >= 1, got {levels}")
    graph = random_connected_graph(
        n, extra_edges=extra_edges, seed=seed, random_weights=False
    )
    rng = random.Random(seed)
    for u, v in sorted(normalize_edge(a, b) for a, b in graph.edges()):
        graph[u][v]["weight"] = float(1 + rng.randrange(levels))
    return ensure_unique_weights(graph, epsilon=_EPSILON)


# --------------------------------------------------------------------- #
# registration
# --------------------------------------------------------------------- #


def _cube_side(n: int) -> int:
    return max(3, round(n ** (1.0 / 3.0)))


register_family(
    "torus_3d",
    torus_3d_graph,
    shape_from_n=lambda n: {
        "rows": _cube_side(n),
        "cols": _cube_side(n),
        "layers": _cube_side(n),
    },
)
register_family(
    "hypercube",
    hypercube_graph,
    shape_from_n=lambda n: {"dim": max(1, round(math.log2(max(n, 2))))},
)
register_family("small_world", small_world_graph)
register_family("expander", expander_graph)
register_family(
    "complete_bipartite",
    complete_bipartite_graph,
    shape_from_n=lambda n: {"left": max(1, n // 2), "right": max(1, n - n // 2)},
)
register_family(
    "balanced_tree",
    balanced_tree_graph,
    # Nearest height: a binary tree of height h has 2^(h+1) - 1 vertices,
    # so rounding log2(n + 1) picks whichever height is closest to the
    # requested size (ceil would overshoot ~2x just above 2^k - 1).
    shape_from_n=lambda n: {
        "branching": 2,
        "height": max(1, round(math.log2(max(n, 2) + 1)) - 1),
    },
)
register_family("planted_fragments", planted_fragments_graph)
register_family("adversarial_permutation", adversarial_permutation_graph)
register_family("unit_weight_stress", unit_weight_stress_graph)
register_family("duplicate_weight_stress", duplicate_weight_stress_graph)


# --------------------------------------------------------------------- #
# the zoo: per-family metadata and the sweep grids
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkloadInfo:
    """Catalogue entry for one zoo family.

    Attributes:
        family: registered family name.
        regime: diameter/weight regime the family occupies
            (``"low-diameter"`` / ``"high-diameter"`` /
            ``"intermediate"`` / ``"weight-stress"``).
        round_regime: which branch of the paper's round bound the
            family exercises for ``elkin`` (informational; the README
            table is generated from this).
        plants_mst: True when instances carry a
            ``graph.graph["planted_mst"]`` ground truth.
    """

    family: str
    regime: str
    round_regime: str
    plants_mst: bool = False


#: Catalogue of every sweepable family (core set + zoo additions).
ZOO_INFO: Dict[str, WorkloadInfo] = {
    info.family: info
    for info in [
        WorkloadInfo("path", "high-diameter", "k = D: O(D log n) dominated by D = n - 1"),
        WorkloadInfo("cycle", "high-diameter", "k = D: O(D log n), D = n/2"),
        WorkloadInfo("star", "low-diameter", "k = sqrt(n/b): O(sqrt(n/b) log n), D = 2"),
        WorkloadInfo("complete", "low-diameter", "k = sqrt(n/b): message bound at m = Theta(n^2)"),
        WorkloadInfo("grid", "intermediate", "D = Theta(sqrt(n)): the regime boundary k = D"),
        WorkloadInfo("torus", "intermediate", "D = Theta(sqrt(n)) with wraparound symmetry"),
        WorkloadInfo("random_tree", "intermediate", "m = n - 1: every edge is an MST edge"),
        WorkloadInfo("random_connected", "low-diameter", "D = O(log n) whp: k = sqrt(n/b)"),
        WorkloadInfo("random_regular", "low-diameter", "bounded-degree expander, D = O(log n)"),
        WorkloadInfo("random_geometric", "intermediate", "D ~ 1/radius: tunable between regimes"),
        WorkloadInfo("lollipop", "high-diameter", "dense core + long tail: k = D, m = Theta(n^2)"),
        WorkloadInfo("barbell", "high-diameter", "two dense cores: k = D on the bridge"),
        WorkloadInfo("hub_path", "low-diameter", "D = 2 but MST diameter Theta(n): separates GHS"),
        WorkloadInfo("preferential_attachment", "low-diameter", "heavy hubs, D = O(log n / log log n)"),
        WorkloadInfo("caterpillar", "high-diameter", "spine tree: k = D at bounded degree"),
        WorkloadInfo("wheel", "low-diameter", "D = 2 at m = 2(n-1): sparse low-D extreme"),
        WorkloadInfo("torus_3d", "intermediate", "D = Theta(n^(1/3)): between expander and grid"),
        WorkloadInfo("hypercube", "low-diameter", "D = log2 n exactly: k = sqrt(n/b)"),
        WorkloadInfo("small_world", "low-diameter", "rewired ring: D = O(log n) at lattice density"),
        WorkloadInfo("expander", "low-diameter", "sqrt(n/b) term dominates: the Theorem 3.1 regime"),
        WorkloadInfo("complete_bipartite", "low-diameter", "m = Theta(n^2) without triangles"),
        WorkloadInfo("balanced_tree", "low-diameter", "tree with D = Theta(log n): all edges MST"),
        WorkloadInfo(
            "planted_fragments", "intermediate",
            "cluster structure mirrors the controlled-GHS base forest", plants_mst=True,
        ),
        WorkloadInfo(
            "adversarial_permutation", "high-diameter",
            "decreasing backbone weights force worst-case merge chains", plants_mst=True,
        ),
        WorkloadInfo("unit_weight_stress", "weight-stress", "every comparison is a near-tie"),
        WorkloadInfo(
            "duplicate_weight_stress", "weight-stress",
            "duplicate classes under lexicographic tie-breaking",
        ),
    ]
}

#: Families that plant a known MST in ``graph.graph["planted_mst"]``.
PLANTED_FAMILIES: Tuple[str, ...] = tuple(
    sorted(name for name, info in ZOO_INFO.items() if info.plants_mst)
)

#: Canonical small-instance parameters per family: large enough that the
#: regimes differ, small enough that a 100+-cell sweep stays fast.  Used
#: by the ``zoo`` preset's coverage grid and the differential
#: property-based suite.
_COVERAGE_PARAMS: Dict[str, Dict[str, object]] = {
    "path": {"n": 18},
    "cycle": {"n": 18},
    "star": {"n": 18},
    "complete": {"n": 12},
    "grid": {"rows": 4, "cols": 4},
    "torus": {"rows": 4, "cols": 4},
    "random_tree": {"n": 18},
    "random_connected": {"n": 16},
    "random_regular": {"n": 16, "degree": 4},
    "random_geometric": {"n": 16},
    "lollipop": {"clique_size": 5, "path_length": 10},
    "barbell": {"clique_size": 4, "path_length": 7},
    "hub_path": {"n": 16},
    "preferential_attachment": {"n": 16},
    "caterpillar": {"n": 18},
    "wheel": {"n": 16},
    "torus_3d": {"rows": 3, "cols": 3, "layers": 3},
    "hypercube": {"dim": 4},
    "small_world": {"n": 16},
    "expander": {"n": 16, "degree": 6},
    "complete_bipartite": {"left": 6, "right": 6},
    "balanced_tree": {"branching": 2, "height": 3},
    "planted_fragments": {"n": 16},
    "adversarial_permutation": {"n": 18},
    "unit_weight_stress": {"n": 16},
    "duplicate_weight_stress": {"n": 16},
}

#: Denser instances for the differential-stress grid: sizes where the
#: sequential references and the verification oracles dominate the cell
#: cost, which is exactly what batched execution amortizes.
_STRESS_SPECS: List[Tuple[str, Dict[str, object]]] = [
    ("complete", {"n": 64}),
    ("complete", {"n": 96}),
    ("complete_bipartite", {"left": 32, "right": 32}),
    ("complete_bipartite", {"left": 24, "right": 48}),
    ("expander", {"n": 96, "degree": 12}),
    ("expander", {"n": 128, "degree": 8}),
    ("random_regular", {"n": 96, "degree": 8}),
    ("random_connected", {"n": 128, "extra_edges": 640}),
    ("preferential_attachment", {"n": 128, "attachments": 6}),
    ("small_world", {"n": 128, "neighbors": 12}),
    ("planted_fragments", {"n": 128, "extra_edges": 512}),
    ("adversarial_permutation", {"n": 128, "stride": 4}),
    ("unit_weight_stress", {"n": 128, "extra_edges": 640}),
    ("duplicate_weight_stress", {"n": 128, "extra_edges": 640}),
    ("wheel", {"n": 128}),
    ("hypercube", {"dim": 7}),
]


def zoo_family_names() -> List[str]:
    """Every sweepable family name (core + zoo), sorted."""
    return sorted(_COVERAGE_PARAMS)


def coverage_spec(family: str, seed: Optional[int] = None) -> GraphSpec:
    """The canonical small zoo instance of ``family`` (optionally seeded)."""
    if family not in _COVERAGE_PARAMS:
        known = ", ".join(zoo_family_names())
        raise GraphError(f"no zoo coverage shape for family '{family}'; known: {known}")
    params = dict(_COVERAGE_PARAMS[family])
    if seed is not None:
        params["seed"] = seed
    return GraphSpec(family, params)


def zoo_coverage_specs() -> List[GraphSpec]:
    """One canonical small instance per family, in sorted family order."""
    return [coverage_spec(family) for family in zoo_family_names()]


def zoo_stress_specs() -> List[GraphSpec]:
    """The denser differential-stress instances of the zoo preset."""
    return [GraphSpec(family, dict(params)) for family, params in _STRESS_SPECS]
