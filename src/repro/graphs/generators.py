"""Connected weighted-graph generators used by tests, examples and benchmarks.

Every generator returns a connected :class:`networkx.Graph` with integer
vertex identifiers ``0 .. n-1`` and distinct edge weights (assigned with
:mod:`repro.graphs.weights`).  The families are chosen to cover the
regimes the paper distinguishes:

* low hop-diameter graphs (``D = O(log n)`` or ``O(1)``): random
  connected graphs, complete graphs, stars, random regular graphs;
* high hop-diameter graphs (``D >> sqrt(n)``): paths, cycles, grids,
  lollipops, barbells;
* intermediate: tori, random geometric graphs, random trees.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx

from ..exceptions import GraphError
from .properties import validate_weighted_graph
from .weights import assign_random_unique_weights, assign_unique_weights


def _finalize(
    graph: nx.Graph,
    seed: Optional[int],
    random_weights: bool,
) -> nx.Graph:
    """Relabel nodes to 0..n-1, assign distinct weights, sanity-check connectivity."""
    graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
    if graph.number_of_nodes() == 0:
        raise GraphError("generator produced an empty graph")
    if not nx.is_connected(graph):
        raise GraphError("generator produced a disconnected graph")
    if random_weights:
        assign_random_unique_weights(graph, seed=seed)
    else:
        assign_unique_weights(graph)
    return graph


def path_graph(n: int, seed: Optional[int] = None, random_weights: bool = True) -> nx.Graph:
    """Path on ``n`` vertices; hop-diameter ``n - 1`` (the extreme high-D case)."""
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    return _finalize(nx.path_graph(n), seed, random_weights)


def cycle_graph(n: int, seed: Optional[int] = None, random_weights: bool = True) -> nx.Graph:
    """Cycle on ``n`` vertices; hop-diameter ``floor(n/2)``."""
    if n < 3:
        raise GraphError(f"need n >= 3 for a cycle, got {n}")
    return _finalize(nx.cycle_graph(n), seed, random_weights)


def star_graph(n: int, seed: Optional[int] = None, random_weights: bool = True) -> nx.Graph:
    """Star with ``n`` vertices (one hub); hop-diameter 2."""
    if n < 2:
        raise GraphError(f"need n >= 2 for a star, got {n}")
    return _finalize(nx.star_graph(n - 1), seed, random_weights)


def complete_graph(n: int, seed: Optional[int] = None, random_weights: bool = True) -> nx.Graph:
    """Complete graph on ``n`` vertices; hop-diameter 1 (Congested-Clique-like)."""
    if n < 2:
        raise GraphError(f"need n >= 2, got {n}")
    return _finalize(nx.complete_graph(n), seed, random_weights)


def grid_graph(
    rows: int, cols: int, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """2D grid ``rows x cols``; hop-diameter ``rows + cols - 2``."""
    if rows < 1 or cols < 1:
        raise GraphError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    return _finalize(nx.grid_2d_graph(rows, cols), seed, random_weights)


def torus_graph(
    rows: int, cols: int, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """2D torus ``rows x cols`` (grid with wraparound)."""
    if rows < 3 or cols < 3:
        raise GraphError(f"torus dimensions must be >= 3, got {rows}x{cols}")
    return _finalize(nx.grid_2d_graph(rows, cols, periodic=True), seed, random_weights)


def random_tree(n: int, seed: Optional[int] = None, random_weights: bool = True) -> nx.Graph:
    """Uniformly random labelled tree on ``n`` vertices (m = n - 1)."""
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    if n <= 2:
        return _finalize(nx.path_graph(n), seed, random_weights)
    rng = random.Random(seed)
    # Random Pruefer sequence -> random labelled tree.
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    tree = nx.from_prufer_sequence(sequence)
    return _finalize(tree, seed, random_weights)


def random_connected_graph(
    n: int,
    edge_probability: Optional[float] = None,
    extra_edges: Optional[int] = None,
    seed: Optional[int] = None,
    random_weights: bool = True,
) -> nx.Graph:
    """Random connected graph: a random spanning tree plus random extra edges.

    Either ``edge_probability`` (each non-tree pair added independently)
    or ``extra_edges`` (exact number of extra edges, when available) may
    be given; the default adds ``2 n`` extra edges which yields a sparse
    graph with hop-diameter ``O(log n)`` with high probability.
    """
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    # Random spanning tree via random attachment to already-connected part.
    order = list(range(n))
    rng.shuffle(order)
    for index in range(1, n):
        graph.add_edge(order[index], order[rng.randrange(index)])
    if edge_probability is not None:
        if not 0.0 <= edge_probability <= 1.0:
            raise GraphError(f"edge_probability must be in [0, 1], got {edge_probability}")
        for u in range(n):
            for v in range(u + 1, n):
                if not graph.has_edge(u, v) and rng.random() < edge_probability:
                    graph.add_edge(u, v)
    else:
        target_extra = extra_edges if extra_edges is not None else 2 * n
        max_extra = n * (n - 1) // 2 - (n - 1)
        target_extra = min(target_extra, max_extra)
        added = 0
        attempts = 0
        attempt_cap = 50 * max(target_extra, 1) + 100
        while added < target_extra and attempts < attempt_cap:
            attempts += 1
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
                added += 1
    return _finalize(graph, seed, random_weights)


def random_regular_connected_graph(
    n: int, degree: int = 4, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """Random ``degree``-regular connected graph (retries until connected)."""
    if degree < 2 or degree >= n:
        raise GraphError(f"need 2 <= degree < n, got degree={degree} n={n}")
    if (n * degree) % 2 != 0:
        raise GraphError(f"n * degree must be even, got n={n} degree={degree}")
    rng = random.Random(seed)
    for attempt in range(100):
        candidate = nx.random_regular_graph(degree, n, seed=rng.randrange(2**31))
        if nx.is_connected(candidate):
            return _finalize(candidate, seed, random_weights)
    raise GraphError(f"failed to sample a connected {degree}-regular graph on {n} vertices")


def _geometric_edges(n: int, radius: float, seed: int) -> List[Tuple[int, int]]:
    """Pairs ``(u, v)``, ``u < v``, of ``n`` random unit-square points within ``radius``.

    The same edges, in the same order, as
    ``nx.random_geometric_graph(n, radius, seed=seed)``, which imports
    scipy for a k-d tree when it can: the points are drawn as networkx
    draws them (two ``random()`` calls per vertex, in vertex order) and
    joined by its no-scipy loop's test, ``dx**2 + dy**2 <= radius**2``.
    """
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    # Unit-square points lie under sqrt(2) apart: any radius above 2
    # joins every pair, as 2 does, and squaring it could overflow.
    limit = min(radius, 2.0) ** 2
    return [
        (u, v)
        for (u, (xu, yu)), (v, (xv, yv)) in itertools.combinations(enumerate(points), 2)
        if abs(xu - xv) ** 2 + abs(yu - yv) ** 2 <= limit
    ]


def random_geometric_connected_graph(
    n: int, radius: Optional[float] = None, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """Random geometric graph on the unit square, radius enlarged until connected.

    Geometric graphs have hop-diameter roughly ``1 / radius``, giving a
    family with intermediate diameter between expanders and paths.
    Each candidate is :func:`_geometric_edges` at a fresh seed; a failed
    candidate retries at 1.3 times the radius.
    """
    if n < 2:
        raise GraphError(f"need n >= 2, got {n}")
    if radius is not None and not radius > 0:
        raise GraphError(f"need radius > 0, got {radius}")
    rng = random.Random(seed)
    current = radius if radius is not None else 1.5 * math.sqrt(math.log(n) / n)
    for attempt in range(20):
        candidate = nx.Graph(_geometric_edges(n, current, rng.randrange(2**31)))
        if candidate.number_of_nodes() == n and nx.is_connected(candidate):
            return _finalize(candidate, seed, random_weights)
        current *= 1.3
    raise GraphError(f"failed to sample a connected geometric graph on {n} vertices")


def lollipop_graph(
    clique_size: int, path_length: int, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """Clique of ``clique_size`` vertices with a path of ``path_length`` attached.

    A standard high-diameter / dense-core family: m = Theta(clique_size^2)
    while D = Theta(path_length).
    """
    if clique_size < 2 or path_length < 1:
        raise GraphError(
            f"need clique_size >= 2 and path_length >= 1, got {clique_size}, {path_length}"
        )
    return _finalize(nx.lollipop_graph(clique_size, path_length), seed, random_weights)


def barbell_graph(
    clique_size: int, path_length: int, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """Two cliques of ``clique_size`` joined by a path of ``path_length`` vertices."""
    if clique_size < 2 or path_length < 0:
        raise GraphError(
            f"need clique_size >= 2 and path_length >= 0, got {clique_size}, {path_length}"
        )
    return _finalize(nx.barbell_graph(clique_size, path_length), seed, random_weights)


def preferential_attachment_graph(
    n: int, attachments: int = 2, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """Barabasi-Albert preferential-attachment graph on ``n`` vertices.

    Every arriving vertex attaches to ``attachments`` existing vertices
    with probability proportional to their degree, producing the heavy
    hub structure and ``O(log n / log log n)`` hop-diameter typical of
    scale-free networks -- a low-diameter family that is neither regular
    nor Erdos-Renyi-like, useful for scenario diversity in sweeps.
    """
    if n < 2:
        raise GraphError(f"need n >= 2, got {n}")
    if attachments < 1 or attachments >= n:
        raise GraphError(f"need 1 <= attachments < n, got attachments={attachments} n={n}")
    rng = random.Random(seed)
    graph = nx.barabasi_albert_graph(n, attachments, seed=rng.randrange(2**31))
    return _finalize(graph, seed, random_weights)


def caterpillar_graph(
    n: int, spine: Optional[int] = None, seed: Optional[int] = None, random_weights: bool = True
) -> nx.Graph:
    """Caterpillar tree: a spine path with the remaining vertices as legs.

    The spine holds ``spine`` vertices (default ``ceil(n / 2)``) and the
    other ``n - spine`` vertices are attached round-robin as leaves, so
    the hop-diameter is ``Theta(spine)`` while the maximum degree stays
    bounded -- a sparse high-diameter family distinct from the bare path.
    """
    if n < 2:
        raise GraphError(f"need n >= 2, got {n}")
    spine_size = spine if spine is not None else (n + 1) // 2
    if not 1 <= spine_size <= n:
        raise GraphError(f"need 1 <= spine <= n, got spine={spine_size} n={n}")
    graph = nx.path_graph(spine_size)
    for index in range(n - spine_size):
        graph.add_edge(index % spine_size, spine_size + index)
    return _finalize(graph, seed, random_weights)


def wheel_graph(n: int, seed: Optional[int] = None, random_weights: bool = True) -> nx.Graph:
    """Wheel: a hub adjacent to every vertex of an ``(n-1)``-cycle.

    Hop-diameter 2 with ``m = 2(n - 1)`` edges -- a sparse extreme
    low-diameter family (the sparse analogue of the complete graph).
    """
    if n < 4:
        raise GraphError(f"need n >= 4 for a wheel, got {n}")
    return _finalize(nx.wheel_graph(n), seed, random_weights)


def edge_list_graph(
    edges: object,
    nodes: Optional[object] = None,
    seed: Optional[int] = None,
    random_weights: bool = True,
) -> nx.Graph:
    """Explicit weighted ``(u, v, weight)`` edge list as a graph family.

    This is what makes *prebuilt* graphs declarative: the campaign layer
    serializes any :class:`networkx.Graph` into this family so a
    :class:`GraphSpec` can always round-trip through JSON.  Node labels
    are taken from the edges verbatim (no relabeling -- 1-indexed graphs
    stay 1-indexed); ``nodes`` optionally lists explicit node ids for
    vertices the edges do not cover.  The weights are taken verbatim (no
    reassignment) and validated like any algorithm input, so an empty,
    disconnected or non-finite-weight list fails here, before any run;
    ``seed`` and ``random_weights`` are accepted for interface uniformity
    and ignored.
    """
    del seed, random_weights  # weights come with the edge list
    graph = nx.Graph()
    for entry in edges:  # type: ignore[attr-defined]
        u, v, weight = entry
        graph.add_edge(int(u), int(v), weight=float(weight))
    if nodes is not None:
        graph.add_nodes_from(int(node) for node in nodes)  # type: ignore[attr-defined]
    validate_weighted_graph(graph, require_unique_weights=False)
    return graph


def hub_path_graph(n: int, seed: Optional[int] = None, random_weights: bool = True) -> nx.Graph:
    """A low-hop-diameter graph whose MST is a long path.

    Vertices ``0 .. n-2`` form a path with light edges; vertex ``n-1`` is
    a hub adjacent to every path vertex with heavy edges.  The
    hop-diameter is 2, but the MST consists of the whole path plus the
    single lightest hub edge, so its diameter is ``Theta(n)``.  This is
    the classical family separating the GHS-style baseline (whose
    fragments grow along the MST, costing ``Theta(n log n)`` rounds) from
    diameter-sensitive algorithms such as the paper's
    (``O(sqrt(n) log n)`` rounds).  The ``seed`` and ``random_weights``
    arguments are accepted for interface uniformity but the weights are
    always deterministic: light path weights first, heavy hub weights
    after, all distinct.
    """
    if n < 3:
        raise GraphError(f"need n >= 3 for a hub-path graph, got {n}")
    graph = nx.Graph()
    hub = n - 1
    for vertex in range(n - 2):
        graph.add_edge(vertex, vertex + 1, weight=float(vertex + 1))
    for index, vertex in enumerate(range(n - 1)):
        graph.add_edge(hub, vertex, weight=float(10 * n + index))
    return graph


def _frozen(value: object) -> object:
    """A hashable copy of a params value: dicts and lists become frozensets and tuples."""
    if isinstance(value, dict):
        return frozenset((key, _frozen(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


@dataclass(frozen=True)
class GraphSpec:
    """Declarative description of a benchmark graph instance.

    ``family`` selects one of the generators in :data:`FAMILIES`;
    ``params`` are forwarded to it.  Used by the experiment runners so a
    whole sweep can be described as data.
    """

    family: str
    params: Dict[str, object]

    def __hash__(self) -> int:
        # The generated hash would hash the params dict and raise.
        return hash((self.family, _frozen(self.params)))

    def build(self) -> nx.Graph:
        return make_graph(self.family, **self.params)

    def label(self) -> str:
        parts = []
        for key, value in sorted(self.params.items()):
            text = f"{key}={value}"
            if len(text) > 32:  # e.g. the edges of an edge_list spec
                size = len(value) if hasattr(value, "__len__") else "?"
                text = f"{key}=<{size} items>"
            parts.append(text)
        return f"{self.family}({', '.join(parts)})"


FAMILIES: Dict[str, Callable[..., nx.Graph]] = {
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "complete": complete_graph,
    "grid": grid_graph,
    "torus": torus_graph,
    "random_tree": random_tree,
    "random_connected": random_connected_graph,
    "random_regular": random_regular_connected_graph,
    "random_geometric": random_geometric_connected_graph,
    "lollipop": lollipop_graph,
    "barbell": barbell_graph,
    "hub_path": hub_path_graph,
    "preferential_attachment": preferential_attachment_graph,
    "caterpillar": caterpillar_graph,
    "wheel": wheel_graph,
    "edge_list": edge_list_graph,
}

#: Canonical shape derivation for families whose generators are not
#: parameterized by a plain vertex count ``n``.  ``graph_spec_for``
#: consults this registry so every family -- including workload-zoo
#: additions -- can be swept on one ``--sizes`` axis.
SHAPE_RULES: Dict[str, Callable[[int], Dict[str, object]]] = {
    "grid": lambda n: {"rows": max(2, round(n**0.5)), "cols": max(2, round(n**0.5))},
    "torus": lambda n: {"rows": max(3, round(n**0.5)), "cols": max(3, round(n**0.5))},
    "lollipop": lambda n: {
        "clique_size": max(3, n // 4),
        "path_length": max(1, n - max(3, n // 4)),
    },
    "barbell": lambda n: {
        "clique_size": max(3, n // 4),
        "path_length": max(1, n - 2 * max(3, n // 4)),
    },
}

def register_family(
    name: str,
    generator: Callable[..., nx.Graph],
    shape_from_n: Optional[Callable[[int], Dict[str, object]]] = None,
) -> None:
    """Register ``generator`` as the graph family ``name``.

    This is how :mod:`repro.workloads` (and third-party code) extends the
    zoo: the family becomes a legal ``GraphSpec.family`` everywhere --
    campaign grids, scenarios, the CLI.  ``shape_from_n`` optionally maps
    a target vertex count to generator parameters so the family can be
    swept on a plain size axis (see :data:`SHAPE_RULES`).  Registering a
    name twice replaces the previous generator.
    """
    if not name or not isinstance(name, str):
        raise GraphError(f"family name must be a non-empty string, got {name!r}")
    if not callable(generator):
        raise GraphError(f"generator of family {name!r} is not callable")
    FAMILIES[name] = generator
    if shape_from_n is not None:
        SHAPE_RULES[name] = shape_from_n


def available_families(include_edge_list: bool = False) -> list:
    """Sorted names accepted as ``GraphSpec.family`` (zoo included).

    ``edge_list`` is excluded by default because it carries explicit
    edges rather than generator parameters, so it is not a family a user
    can ask for by name and size.
    """
    return sorted(
        family for family in FAMILIES if include_edge_list or family != "edge_list"
    )


def make_graph(family: str, **params: object) -> nx.Graph:
    """Build a graph from a family name and keyword parameters.

    Raises :class:`GraphError` for unknown family names; the error lists
    the available families to make sweep typos easy to diagnose.
    """
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise GraphError(f"unknown graph family '{family}'; known families: {known}")
    return FAMILIES[family](**params)
