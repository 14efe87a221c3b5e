"""Shared type aliases and small value objects used across the package.

The simulator and the algorithms exchange only a handful of primitive
shapes: vertex identifiers, undirected edges and cost summaries.
Centralising their definitions keeps signatures consistent and documents
the conventions: an undirected edge is always stored with its endpoints
sorted, and edges are ordered by the plain tuple ``(weight, u, v)`` over
those sorted endpoints, which makes the MST unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple

VertexId = int
FragmentId = int
Edge = Tuple[int, int]


def normalize_edge(u: VertexId, v: VertexId) -> Edge:
    """Return the canonical (sorted) representation of the undirected edge ``{u, v}``."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


def normalize_edges(edges: Iterable[Edge]) -> set[Edge]:
    """Return the canonical edge set for an iterable of (possibly unordered) edges."""
    return {normalize_edge(u, v) for u, v in edges}


@dataclass
class CostReport:
    """Round and message totals of a simulated execution.

    Attributes:
        rounds: number of synchronous rounds consumed.
        messages: number of (edge, direction, round) transmissions.
        words: number of machine words carried by those messages.
    """

    rounds: int = 0
    messages: int = 0
    words: int = 0

    def __add__(self, other: "CostReport") -> "CostReport":
        return CostReport(
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            words=self.words + other.words,
        )


@dataclass
class PhaseTelemetry:
    """Per-phase telemetry emitted by the Boruvka-over-BFS engine."""

    phase: int
    fragments_before: int
    fragments_after: int
    rounds: int
    messages: int
    mst_edges_added: int
    details: dict = field(default_factory=dict)
