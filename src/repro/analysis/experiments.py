"""Legacy experiment runners (deprecated shims over :mod:`repro.api`).

These entrypoints predate the scenario facade and are kept working for
existing notebooks, benchmarks and examples.  New code should build
:class:`~repro.api.Scenario` objects and execute them through a
:class:`~repro.api.Runner` (see the README's Migration section for the
exact mapping); the shims here construct those scenarios internally, so
both spellings share one execution path and produce identical rows.

``run_single`` is the one exception: it is not a shim but the package's
*single-execution contract* -- the campaign executor (and therefore the
facade) calls it for every cell, so a direct call and a sweep cell can
never diverge.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import networkx as nx

from ..algorithms import available_algorithms, run_algorithm
from ..config import RunConfig
from ..core.results import MSTRunResult
from ..graphs.generators import GraphSpec
from ..simulator.engine import DEFAULT_ENGINE

#: One row of experiment output (column name -> value).
ExperimentRow = Dict[str, object]

__all__ = [
    "ExperimentRow",
    "available_algorithms",
    "run_single",
    "sweep_graphs",
    "compare_algorithms",
    "sweep_bandwidth",
]


def run_single(
    graph: nx.Graph,
    algorithm: str = "elkin",
    bandwidth: int = 1,
    verify: bool = True,
    base_forest_k: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
    seed: Optional[int] = None,
    collect_telemetry: bool = True,
    strict_bounds: bool = False,
    condition: Optional[object] = None,
) -> MSTRunResult:
    """Run one MST algorithm on ``graph`` and (optionally) verify it.

    This is the bottom of every execution path: the campaign executor
    drives each cell through this function, and the :mod:`repro.api`
    facade routes through the campaign executor.  ``seed`` (provenance
    of the generator that produced ``graph``), ``collect_telemetry``,
    ``strict_bounds`` and ``condition`` (a
    :class:`~repro.conditions.NetworkCondition` or anything
    ``normalize_condition`` accepts) are threaded into the
    :class:`~repro.config.RunConfig` verbatim; a provided seed is
    recorded in ``result.details`` by the registry dispatch, so it is
    captured whether it arrives via this argument or via a caller-built
    config.
    """
    config = RunConfig(
        bandwidth=bandwidth,
        base_forest_k=base_forest_k,
        engine=engine,
        seed=seed,
        collect_telemetry=collect_telemetry,
        strict_bounds=strict_bounds,
        condition=condition,
    )
    result = run_algorithm(graph, algorithm, config)
    # Workload-zoo instances that plant a known MST surface it in the
    # result details for provenance; the verifier checks it as one of
    # its oracles (repro.verify.mst_checks.MSTOracle).
    from ..verify.mst_checks import verify_mst_result
    from ..verify.planted_checks import planted_mst_details

    planted = planted_mst_details(graph)
    if planted is not None:
        result.details.setdefault("planted_mst", planted)
    if verify:
        verify_mst_result(graph, result)
    return result


def _facade_rows(
    graphs: Sequence[object],
    algorithms: Sequence[str],
    bandwidths: Sequence[int],
    engine: str,
    verify: bool,
    compute_diameter: bool,
    label: Optional[str] = None,
) -> List[ExperimentRow]:
    """Expand the axes into scenarios and run them through one Runner."""
    from ..api import Runner, Scenario
    from ..campaign.spec import inline_graph_spec

    # Normalize each distinct graph once, not once per expanded cell:
    # serializing a prebuilt graph into an edge_list spec is O(m).
    graphs = [
        graph if isinstance(graph, GraphSpec) else inline_graph_spec(graph)
        for graph in graphs
    ]
    scenarios = [
        Scenario(
            graph=graph,
            algorithm=algorithm,
            config=RunConfig(bandwidth=bandwidth, engine=engine),
            verify=verify,
            label=label,
        )
        for graph in graphs
        for algorithm in algorithms
        for bandwidth in bandwidths
    ]
    runner = Runner(compute_diameter=compute_diameter)
    return [outcome.row for outcome in runner.run_many(scenarios)]


def sweep_graphs(
    specs: Sequence[GraphSpec],
    algorithm: str = "elkin",
    bandwidth: int = 1,
    verify: bool = True,
    compute_diameter: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> List[ExperimentRow]:
    """Run ``algorithm`` on every spec and report one row per instance.

    .. deprecated:: 1.3
        Shim over :class:`repro.api.Runner`; build scenarios directly in
        new code.

    Rows include the measured rounds/messages and, for the paper's
    algorithm, the theorem bounds evaluated on the same instance together
    with the measured/bound ratios (values below 1.0 mean the bound
    holds with the calibrated constants).
    """
    return _facade_rows(
        list(specs), (algorithm,), (bandwidth,), engine, verify, compute_diameter
    )


def compare_algorithms(
    graph: nx.Graph,
    algorithms: Iterable[str] = ("elkin", "ghs", "gkp"),
    bandwidth: int = 1,
    verify: bool = True,
    label: str = "",
    compute_diameter: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> List[ExperimentRow]:
    """Run several algorithms on the same instance (the head-to-head experiments).

    .. deprecated:: 1.3
        Shim over :class:`repro.api.Runner`; build scenarios directly in
        new code.

    The prebuilt ``graph`` is serialized into an ``edge_list`` spec, so
    the instance description (including the hop-diameter) is computed
    once and shared across all algorithm cells via the run store's
    graph-description cache.  Sequential references (``kruskal``,
    ``prim``, ``boruvka_seq``) are valid algorithm names; their rows
    report zero rounds and messages.
    """
    return _facade_rows(
        [graph],
        tuple(algorithms),
        (bandwidth,),
        engine,
        verify,
        compute_diameter,
        label=label or "instance",
    )


def sweep_bandwidth(
    graph: nx.Graph,
    bandwidths: Sequence[int] = (1, 2, 4, 8, 16),
    algorithm: str = "elkin",
    verify: bool = True,
    label: str = "",
    engine: str = DEFAULT_ENGINE,
) -> List[ExperimentRow]:
    """Run the same instance under several CONGEST(b log n) bandwidths (Theorem 3.2).

    .. deprecated:: 1.3
        Shim over :class:`repro.api.Runner`; build scenarios directly in
        new code.
    """
    return _facade_rows(
        [graph],
        (algorithm,),
        tuple(bandwidths),
        engine,
        verify,
        compute_diameter=True,
        label=label or "instance",
    )
