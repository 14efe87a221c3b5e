"""Declarative layer: serializable run specs and campaign grids.

A :class:`RunSpec` pins down *everything* that determines one simulated
execution -- the graph (as a :class:`~repro.graphs.generators.GraphSpec`),
the algorithm, the CONGEST bandwidth, the simulation engine, the
generator seed and the optional base-forest ``k`` override.  Because the
spec is pure data it can be hashed (:meth:`RunSpec.run_key`), stored in
the JSONL run store, shipped to a worker process, and compared across
machines.

A :class:`Campaign` is a named, ordered list of specs; the
:meth:`Campaign.from_grid` expander materializes the full cross-product
of the supplied axes in a deterministic order (graph-major, then
algorithm, bandwidth, engine, seed, k-override), which is what makes the
parallel executor's output reproducible row for row.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

import networkx as nx

from ..conditions.spec import NetworkCondition, normalize_condition
from ..exceptions import ConfigurationError
from ..graphs.generators import FAMILIES, GraphSpec, SHAPE_RULES
from ..graphs.properties import reject_bad_weights
from ..simulator.engine import DEFAULT_ENGINE


#: The canonical JSON encoding (sorted keys, no whitespace), built once:
#: ``json.dumps`` with these arguments builds a new encoder per call.
#: No walk for circular references: payloads are trees of plain data.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def content_hash(payload: object) -> str:
    """16-hex-character content hash of a JSON-safe payload.

    The identity function of the whole campaign layer: run keys, graph
    keys and the scheduler's work-unit keys are all this hash over a
    canonical JSON encoding, so identities agree across processes,
    hosts and sessions.
    """
    return hashlib.sha256(_CANONICAL_ENCODER.encode(payload).encode("utf-8")).hexdigest()[:16]


def graph_spec_for(family: str, n: int, seed: Optional[int] = None) -> GraphSpec:
    """Build a :class:`GraphSpec` for ``family`` at target size ``n``.

    Families parameterized by something other than a vertex count
    (grids, tori, lollipops, barbells) get canonical shapes derived from
    ``n`` so the CLI and the presets can sweep every family on one
    ``--sizes`` axis.
    """
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ConfigurationError(f"unknown graph family '{family}'; known families: {known}")
    if family == "edge_list":
        raise ConfigurationError("edge_list specs carry explicit edges; build them directly")
    shape = SHAPE_RULES.get(family)
    params: Dict[str, object] = shape(n) if shape is not None else {"n": n}
    if seed is not None:
        params["seed"] = seed
    return GraphSpec(family, params)


def inline_graph_spec(graph: nx.Graph) -> GraphSpec:
    """Serialize a prebuilt weighted graph into an ``edge_list`` spec.

    This is how a :class:`~repro.api.Scenario` over an already-built
    :class:`networkx.Graph` (the ``repro-mst compare`` and
    ``sweep-bandwidth`` subcommands build one) rides on the campaign
    layer: the graph is flattened into a sorted ``(u, v, weight)`` list
    so the resulting spec hashes and round-trips like any other.  Any
    integer labels (``numpy.int64`` too) become ``int``, so the spec
    and its run key equal those of the same graph labelled with ``int``.
    """
    if any(not isinstance(node, numbers.Integral) for node in graph.nodes()):
        raise ConfigurationError("inline graphs must have integer node labels")
    reject_bad_weights(graph)  # the validator's rule, before float() sees a weight
    edges = sorted(
        (min(int(u), int(v)), max(int(u), int(v)), float(data["weight"]))
        for u, v, data in graph.edges(data=True)
    )
    params: Dict[str, object] = {"edges": [list(edge) for edge in edges]}
    covered = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    uncovered = sorted(int(node) for node in graph.nodes() if int(node) not in covered)
    if uncovered:  # only a connected 1-vertex graph can reach this
        params["nodes"] = uncovered
    return GraphSpec("edge_list", params)


@dataclass(frozen=True)
class RunSpec:
    """One cell of a sweep: graph x algorithm x bandwidth x engine x seed.

    Attributes:
        graph: declarative graph instance description.
        algorithm: name registered in :mod:`repro.algorithms`.
        bandwidth: ``b`` of the CONGEST(b log n) model.
        engine: simulation kernel name (``"reference"`` / ``"fast"``).
        seed: generator seed; when not ``None`` it overrides the
            ``seed`` entry of ``graph.params`` (the seed axis of a grid)
            and is recorded in output rows for provenance.
        base_forest_k: explicit override of the paper's base-forest
            parameter ``k`` (``None`` applies the paper's rule).
        collect_telemetry: record per-phase telemetry on the result
            (the default).  Only a non-default value enters the content
            hash, so pre-existing store keys stay valid.
        strict_bounds: raise when measured costs exceed the theorem
            bounds.  Same hash rule as ``collect_telemetry``.
        label: presentation-only row label.  Deliberately *excluded*
            from the content hash: relabeling a sweep must not invalidate
            its completed cells in the run store.
        condition: optional :class:`~repro.conditions.NetworkCondition`
            applied to the cell (preset names / clause strings / JSON
            dicts are normalized at construction).  ``None`` -- the
            default, and the only value existing stores contain --
            leaves the content hash unchanged.
    """

    graph: GraphSpec
    algorithm: str = "elkin"
    bandwidth: int = 1
    engine: str = DEFAULT_ENGINE
    seed: Optional[int] = None
    base_forest_k: Optional[int] = None
    collect_telemetry: bool = True
    strict_bounds: bool = False
    label: Optional[str] = None
    condition: Optional[NetworkCondition] = None
    # Memos of run_key() and graph_key(): outside __init__, repr and
    # ==/hash, and reset by replace().
    _run_key: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    _graph_key: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.graph.family == "edge_list" and self.seed is not None:
            raise ConfigurationError(
                "the seed axis does not apply to edge_list graphs (the instance "
                "is fixed by its edges); drop the seed or use a generator family"
            )
        if self.condition is not None and not isinstance(self.condition, NetworkCondition):
            object.__setattr__(self, "condition", normalize_condition(self.condition))
        # dataclasses leave an init=False default on the class.  Setting
        # the memos here gives them a place in every instance's attribute
        # layout, so filling one later stores a pointer: set first in
        # run_key(), CPython would give the instance a whole __dict__.
        object.__setattr__(self, "_run_key", None)
        object.__setattr__(self, "_graph_key", None)

    def is_deterministic(self) -> bool:
        """True when building this spec twice yields the identical instance.

        ``edge_list`` specs carry their edges and weights verbatim; every
        other family draws random weights (and, for random families, a
        random structure) unless a generator seed is pinned.  The
        executor only shares instance descriptions across cells -- and
        the run store only caches them -- for deterministic specs;
        non-deterministic cells derive their description from the very
        graph they simulate, so each row is always self-consistent.
        """
        spec = self.effective_graph_spec()
        return spec.family == "edge_list" or spec.params.get("seed") is not None

    def effective_graph_spec(self) -> GraphSpec:
        """The graph spec with the run's seed axis merged into its params."""
        if self.seed is None or self.graph.family == "edge_list":
            return self.graph
        params = dict(self.graph.params)
        params["seed"] = self.seed
        return GraphSpec(self.graph.family, params)

    def build_graph(self) -> nx.Graph:
        return self.effective_graph_spec().build()

    def display_label(self) -> str:
        return self.label or self.effective_graph_spec().label()

    def _identity(self) -> Dict[str, object]:
        # Built on each call, not cached: run_key() keeps only its hash,
        # and a cached dict per spec cost more memory than the rebuild
        # costs time.  to_json_dict() decorates the fresh dict in place.
        spec = self.effective_graph_spec()
        identity: Dict[str, object] = {
            "graph": {"family": spec.family, "params": spec.params},
            "algorithm": self.algorithm,
            "bandwidth": self.bandwidth,
            "engine": self.engine,
            "seed": self.seed,
            "base_forest_k": self.base_forest_k,
        }
        # Non-default execution switches extend the identity; the
        # default combination hashes exactly as it did before these
        # fields existed, keeping old run stores resumable.
        if not self.collect_telemetry:
            identity["collect_telemetry"] = False
        if self.strict_bounds:
            identity["strict_bounds"] = True
        if self.condition is not None:
            identity["condition"] = self.condition.identity()
        return identity

    def run_key(self) -> str:
        """Content hash identifying this cell in the run store (cached)."""
        key = self._run_key
        if key is None:
            key = content_hash(self._identity())
            # repro: allow[CON303] memo cache, excluded from eq/hash identity
            object.__setattr__(self, "_run_key", key)
        return key

    def graph_key(self) -> str:
        """Content hash of the (seed-resolved) graph instance description (cached)."""
        key = self._graph_key
        if key is None:
            spec = self.effective_graph_spec()
            key = content_hash({"family": spec.family, "params": spec.params})
            # repro: allow[CON303] memo cache, excluded from eq/hash identity
            object.__setattr__(self, "_graph_key", key)
        return key

    def to_json_dict(self) -> Dict[str, object]:
        payload = self._identity()
        payload["graph"] = {"family": self.graph.family, "params": self.graph.params}
        payload["label"] = self.label
        if self.condition is not None:
            # Full form (identity() drops presentation fields like name).
            payload["condition"] = self.condition.to_json_dict()
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "RunSpec":
        graph = payload["graph"]
        return cls(
            graph=GraphSpec(str(graph["family"]), dict(graph["params"])),
            algorithm=str(payload["algorithm"]),
            bandwidth=int(payload["bandwidth"]),
            engine=str(payload["engine"]),
            seed=None if payload.get("seed") is None else int(payload["seed"]),
            base_forest_k=(
                None
                if payload.get("base_forest_k") is None
                else int(payload["base_forest_k"])
            ),
            collect_telemetry=bool(payload.get("collect_telemetry", True)),
            strict_bounds=bool(payload.get("strict_bounds", False)),
            label=payload.get("label"),
            condition=normalize_condition(payload.get("condition")),
        )


@dataclass
class Campaign:
    """A named, ordered collection of run specs (one sweep)."""

    name: str
    specs: List[RunSpec] = field(default_factory=list)
    verify: bool = True

    @classmethod
    def from_grid(
        cls,
        name: str,
        graphs: Sequence[GraphSpec],
        algorithms: Iterable[str] = ("elkin",),
        bandwidths: Iterable[int] = (1,),
        engines: Iterable[str] = (DEFAULT_ENGINE,),
        seeds: Iterable[Optional[int]] = (None,),
        k_overrides: Iterable[Optional[int]] = (None,),
        conditions: Iterable[Optional[object]] = (None,),
        labels: Optional[Sequence[Optional[str]]] = None,
        verify: bool = True,
    ) -> "Campaign":
        """Materialize the cross-product of the supplied axes.

        The expansion order is deterministic (graph-major, then
        algorithm, bandwidth, engine, seed, k-override, condition) so
        two expansions of the same grid always agree cell for cell.
        """
        if labels is not None and len(labels) != len(graphs):
            raise ConfigurationError(
                f"labels must match graphs: {len(labels)} labels, {len(graphs)} graphs"
            )
        specs = [
            RunSpec(
                graph=graph,
                algorithm=algorithm,
                bandwidth=bandwidth,
                engine=engine,
                seed=seed,
                base_forest_k=k_override,
                label=labels[index] if labels is not None else None,
                condition=normalize_condition(condition),
            )
            for (
                (index, graph),
                algorithm,
                bandwidth,
                engine,
                seed,
                k_override,
                condition,
            ) in itertools.product(
                enumerate(graphs), algorithms, bandwidths, engines, seeds, k_overrides, conditions
            )
        ]
        return cls(name=name, specs=specs, verify=verify)

    def __len__(self) -> int:
        return len(self.specs)

    def run_keys(self) -> List[str]:
        return [spec.run_key() for spec in self.specs]

    def with_engine(self, engine: str) -> "Campaign":
        """A copy of the campaign retargeted at another simulation engine."""
        return Campaign(
            name=self.name,
            specs=[replace(spec, engine=engine) for spec in self.specs],
            verify=self.verify,
        )

    def with_condition(self, condition: Optional[object]) -> "Campaign":
        """A copy of the campaign with every cell run under ``condition``."""
        normalized = normalize_condition(condition)
        return Campaign(
            name=self.name,
            specs=[replace(spec, condition=normalized) for spec in self.specs],
            verify=self.verify,
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "verify": self.verify,
            "specs": [spec.to_json_dict() for spec in self.specs],
        }


