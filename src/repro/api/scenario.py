"""The :class:`Scenario`: one fully-specified, content-hashed execution.

A scenario pins down everything a run depends on -- the graph source,
the algorithm name, the :class:`~repro.config.RunConfig` and the verify
policy -- and normalizes it at construction time:

* the graph source may be a declarative
  :class:`~repro.graphs.generators.GraphSpec`, a prebuilt
  :class:`networkx.Graph` (serialized into an ``edge_list`` spec so it
  hashes and round-trips), or a bare ``(u, v, weight)`` edge list;
* the algorithm and engine names are validated against their registries
  immediately, so a typo fails at construction with the list of valid
  options rather than deep inside a sweep;
* prebuilt graphs and edge lists are rejected when disconnected -- the
  distributed MST model requires a connected network.

Scenarios are frozen: two equal scenarios have equal
:meth:`Scenario.key` content hashes, and the hash doubles as the run
store key, which is what makes one-off runs and 10k-cell sweeps share
resume semantics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

import networkx as nx

from ..algorithms import algorithm_info
from ..campaign.spec import inline_graph_spec, RunSpec
from ..config import normalize_config, RunConfig
from ..exceptions import ConfigurationError, DisconnectedGraphError
from ..graphs.generators import FAMILIES, GraphSpec
from ..simulator.engine import available_engines

__all__ = ["GraphSource", "Scenario"]

#: Accepted graph sources: declarative spec, prebuilt graph, or edge list.
GraphSource = Union[GraphSpec, nx.Graph, Iterable[Tuple[int, int, float]]]


def _normalize_graph_source(source: GraphSource) -> GraphSpec:
    """Turn any accepted graph source into a declarative :class:`GraphSpec`."""
    if isinstance(source, GraphSpec):
        if source.family not in FAMILIES:
            known = ", ".join(sorted(FAMILIES))
            raise ConfigurationError(
                f"unknown graph family {source.family!r}; known families: {known}"
            )
        return source
    if isinstance(source, nx.Graph):
        if source.number_of_nodes() == 0:
            raise ConfigurationError("scenario graph is empty")
        if not nx.is_connected(source):
            raise DisconnectedGraphError(
                "scenario graph is disconnected "
                f"({nx.number_connected_components(source)} components); "
                "distributed MST requires a connected network -- connect the "
                "components or run one scenario per component"
            )
        return inline_graph_spec(source)
    if isinstance(source, (str, bytes)):
        raise ConfigurationError(
            f"scenario graph must be a GraphSpec, networkx.Graph or edge list, "
            f"got {source!r}; to reference a generator family, build a "
            f"GraphSpec(family, params)"
        )
    try:
        edges = [(int(u), int(v), float(w)) for u, v, w in source]
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"scenario graph must be a GraphSpec, networkx.Graph or an iterable "
            f"of (u, v, weight) triples ({error})"
        ) from error
    if not edges:
        raise ConfigurationError("scenario edge list is empty")
    graph = nx.Graph()
    for u, v, weight in edges:
        graph.add_edge(u, v, weight=weight)
    return _normalize_graph_source(graph)


@dataclass(frozen=True)
class Scenario:
    """One fully-specified execution: graph x algorithm x config x policy.

    Attributes:
        graph: the graph source; normalized to a
            :class:`~repro.graphs.generators.GraphSpec` at construction
            (prebuilt graphs / edge lists become ``edge_list`` specs).
        algorithm: registered algorithm name (see
            :func:`repro.algorithms.available_algorithms`).
        config: run configuration; ``None`` means defaults.  The
            config's ``seed`` doubles as the generator-seed axis exactly
            as in campaign grids.
        verify: check the produced MST against the sequential oracles.
        label: presentation-only row label (not part of the identity).
    """

    graph: GraphSource
    algorithm: str = "elkin"
    config: Optional[RunConfig] = None
    verify: bool = True
    label: Optional[str] = None

    def __post_init__(self) -> None:
        config = normalize_config(self.config)
        # Re-validate: RunConfig is mutable, so a caller may hand us one
        # that was edited after construction.
        if config.bandwidth < 1:
            raise ConfigurationError(
                f"bandwidth must be >= 1, got {config.bandwidth} "
                "(b of the CONGEST(b log n) model counts words per message)"
            )
        engines = available_engines()
        if config.engine not in engines:
            raise ConfigurationError(
                f"unknown engine {config.engine!r}; available: {', '.join(engines)}"
            )
        algorithm_info(self.algorithm)  # raises with the available names
        object.__setattr__(self, "graph", _normalize_graph_source(self.graph))
        # Defensive copy: RunConfig is mutable, and aliasing the caller's
        # object would let post-construction mutation change the content
        # hash (and bypass the validation above).
        object.__setattr__(self, "config", dataclasses.replace(config))
        object.__setattr__(self, "verify", bool(self.verify))
        if self.graph.family == "edge_list" and config.seed is not None:
            raise ConfigurationError(
                "a generator seed does not apply to a prebuilt graph or edge "
                "list (the instance is fixed); drop config.seed or describe "
                "the graph as a GraphSpec generator family"
            )

    # -- identity --------------------------------------------------------

    def __hash__(self) -> int:
        # The generated hash would hash the mutable RunConfig and raise;
        # equal scenarios have equal run specs.
        return hash((self.to_run_spec(), self.verify))

    def to_run_spec(self) -> RunSpec:
        """The campaign-layer cell equivalent to this scenario."""
        config = self.config
        assert isinstance(config, RunConfig)  # normalized in __post_init__
        return RunSpec(
            graph=self.graph,
            algorithm=self.algorithm,
            bandwidth=config.bandwidth,
            engine=config.engine,
            seed=config.seed,
            base_forest_k=config.base_forest_k,
            collect_telemetry=config.collect_telemetry,
            strict_bounds=config.strict_bounds,
            label=self.label,
            condition=config.condition,
        )

    def key(self) -> str:
        """Content hash identifying this scenario (doubles as the store key)."""
        return self.to_run_spec().run_key()

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe encoding (see :meth:`from_json_dict`)."""
        payload = self.to_run_spec().to_json_dict()
        payload["verify"] = self.verify
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json_dict` output."""
        spec = RunSpec.from_json_dict(payload)
        return cls.from_run_spec(spec, verify=bool(payload.get("verify", True)))

    @classmethod
    def from_run_spec(cls, spec: RunSpec, verify: bool = True) -> "Scenario":
        """Lift a campaign-layer :class:`RunSpec` into a scenario."""
        return cls(
            graph=spec.graph,
            algorithm=spec.algorithm,
            config=RunConfig(
                bandwidth=spec.bandwidth,
                base_forest_k=spec.base_forest_k,
                engine=spec.engine,
                collect_telemetry=spec.collect_telemetry,
                strict_bounds=spec.strict_bounds,
                seed=spec.seed,
                condition=spec.condition,
            ),
            verify=verify,
            label=spec.label,
        )

    # -- conveniences ----------------------------------------------------

    def build_graph(self) -> nx.Graph:
        """Materialize the graph instance this scenario describes."""
        return self.to_run_spec().build_graph()

    def display_label(self) -> str:
        return self.to_run_spec().display_label()
