"""Result objects shared by the paper's algorithm and the baselines.

Every distributed MST run in this library -- the paper's algorithm, the
GHS-style baseline, the Garay-Kutten-Peleg baseline and the PRS-style
second phase -- reports its outcome as an :class:`MSTRunResult`: the tree
it produced plus the rounds and messages it consumed.  Benchmarks and the
verification layer only depend on this shape, which is what makes the
head-to-head experiments (E7-E9) uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..types import CostReport, Edge, PhaseTelemetry


def _json_safe(value: object) -> object:
    """Recursively convert ``value`` into JSON-serializable primitives.

    Tuples become lists, sets become sorted lists and mapping keys are
    stringified; anything exotic falls back to ``repr``.  Used so the
    ``details`` payload of a result can always round-trip through the
    campaign run store.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(item) for item in value)
    return repr(value)


@dataclass
class MSTRunResult:
    """Outcome of one distributed MST execution.

    Attributes:
        algorithm: short identifier (``"elkin"``, ``"ghs"``, ``"gkp"``, ...).
        edges: the MST edges, in canonical (sorted-endpoint) form.
        total_weight: sum of the selected edges' weights.
        cost: rounds, messages and words consumed.
        n / m: size of the input graph.
        bandwidth: the ``b`` of CONGEST(b log n) used for the run.
        phases: optional per-phase telemetry.
        details: algorithm-specific extras (parameter ``k``, BFS depth,
            base-forest statistics, per-stage cost split, ...).
    """

    algorithm: str
    edges: Set[Edge]
    total_weight: float
    cost: CostReport
    n: int
    m: int
    bandwidth: int = 1
    phases: List[PhaseTelemetry] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        """Rounds consumed (the paper's time complexity measure)."""
        return self.cost.rounds

    @property
    def messages(self) -> int:
        """Messages consumed (the paper's message complexity measure)."""
        return self.cost.messages

    @property
    def edge_count(self) -> int:
        """Number of selected edges (``n - 1`` for a correct run)."""
        return len(self.edges)

    def summary_row(self) -> Dict[str, object]:
        """Flat dictionary used by the benchmark tables."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "m": self.m,
            "bandwidth": self.bandwidth,
            "rounds": self.rounds,
            "messages": self.messages,
            "weight": round(self.total_weight, 6),
        }

    def to_json_dict(self) -> Dict[str, object]:
        """Serialize the full result to JSON-safe primitives.

        The inverse is :meth:`from_json_dict`; together they let the
        campaign run store persist completed runs and resume sweeps
        without re-simulating.  Edges are stored as sorted ``[u, v]``
        pairs so serialization is deterministic.
        """
        return {
            "algorithm": self.algorithm,
            "edges": [list(edge) for edge in sorted(self.edges)],
            "total_weight": self.total_weight,
            "cost": {
                "rounds": self.cost.rounds,
                "messages": self.cost.messages,
                "words": self.cost.words,
            },
            "n": self.n,
            "m": self.m,
            "bandwidth": self.bandwidth,
            "phases": [
                {
                    "phase": phase.phase,
                    "fragments_before": phase.fragments_before,
                    "fragments_after": phase.fragments_after,
                    "rounds": phase.rounds,
                    "messages": phase.messages,
                    "mst_edges_added": phase.mst_edges_added,
                    "details": _json_safe(phase.details),
                }
                for phase in self.phases
            ],
            "details": _json_safe(self.details),
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "MSTRunResult":
        """Rebuild a result from :meth:`to_json_dict` output."""
        cost = payload["cost"]
        return cls(
            algorithm=str(payload["algorithm"]),
            edges={(int(u), int(v)) for u, v in payload["edges"]},
            total_weight=float(payload["total_weight"]),
            cost=CostReport(
                rounds=int(cost["rounds"]),
                messages=int(cost["messages"]),
                words=int(cost["words"]),
            ),
            n=int(payload["n"]),
            m=int(payload["m"]),
            bandwidth=int(payload["bandwidth"]),
            phases=[
                PhaseTelemetry(
                    phase=int(phase["phase"]),
                    fragments_before=int(phase["fragments_before"]),
                    fragments_after=int(phase["fragments_after"]),
                    rounds=int(phase["rounds"]),
                    messages=int(phase["messages"]),
                    mst_edges_added=int(phase["mst_edges_added"]),
                    details=dict(phase.get("details", {})),
                )
                for phase in payload.get("phases", [])
            ],
            details=dict(payload.get("details", {})),
        )
