"""Edge-weight assignment utilities.

The paper assumes (w.l.o.g.) that the MST is unique, which holds when all
edge weights are distinct.  The helpers here assign distinct weights in a
reproducible way and can repair an arbitrary weighting by breaking ties
deterministically with the lexicographic edge order, mirroring the
``(weight, u, v)`` tuple order over sorted endpoints that the algorithms
use (see :mod:`repro.types`).
"""

from __future__ import annotations

import random
from typing import Optional

import networkx as nx

from ..exceptions import WeightError
from ..types import normalize_edge


def weights_are_unique(graph: nx.Graph) -> bool:
    """Return True when every edge has a ``weight`` and all weights differ."""
    seen: set[float] = set()
    for _, _, data in graph.edges(data=True):
        if "weight" not in data:
            return False
        w = data["weight"]
        if w in seen:
            return False
        seen.add(w)
    return True


def assign_unique_weights(graph: nx.Graph, start: float = 1.0, step: float = 1.0) -> nx.Graph:
    """Assign deterministic distinct weights ``start, start+step, ...``.

    Edges are enumerated in sorted canonical order so the assignment is a
    pure function of the graph structure.  The graph is modified in place
    and returned for convenience.
    """
    if step <= 0:
        raise WeightError(f"step must be positive, got {step}")
    ordered = sorted(normalize_edge(u, v) for u, v in graph.edges())
    for index, (u, v) in enumerate(ordered):
        graph[u][v]["weight"] = start + index * step
    return graph


def assign_random_unique_weights(
    graph: nx.Graph,
    seed: Optional[int] = None,
    low: float = 1.0,
    high: float = 1000.0,
) -> nx.Graph:
    """Assign random distinct weights drawn from ``[low, high)``.

    A random permutation of an evenly spaced grid is used, which keeps the
    weights distinct regardless of the number of edges while still being
    "random looking" for the experiments.  The graph is modified in place.
    """
    if high <= low:
        raise WeightError(f"need high > low, got low={low} high={high}")
    rng = random.Random(seed)
    edges = sorted(normalize_edge(u, v) for u, v in graph.edges())
    m = len(edges)
    if m == 0:
        return graph
    span = high - low
    values = [low + span * (i + 1) / (m + 1) for i in range(m)]
    rng.shuffle(values)
    for (u, v), w in zip(edges, values):
        graph[u][v]["weight"] = w
    return graph


def ensure_unique_weights(graph: nx.Graph, epsilon: float = 1e-9) -> nx.Graph:
    """Break ties in an existing weighting deterministically.

    Edges that share a weight receive a tiny lexicographic perturbation so
    the resulting MST equals the MST obtained under the
    ``(weight, u, v)`` tie-breaking order on the original weights.  Raises
    :class:`WeightError` if any edge lacks a weight.
    """
    missing = [(u, v) for u, v, d in graph.edges(data=True) if "weight" not in d]
    if missing:
        raise WeightError(f"{len(missing)} edges have no 'weight' attribute, e.g. {missing[0]}")
    ordered = sorted(
        (data["weight"], *normalize_edge(u, v)) for u, v, data in graph.edges(data=True)
    )
    for rank, (w, u, v) in enumerate(ordered):
        graph[u][v]["weight"] = w + rank * epsilon
    return graph
