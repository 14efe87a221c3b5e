"""The single-execution contract: :func:`run_single`.

Every execution path ends here: the campaign executor drives each cell
through :func:`run_single`, and the :mod:`repro.api` facade (a
:class:`~repro.api.Runner` over :class:`~repro.api.Scenario` objects)
routes through the campaign executor, so a direct call and a sweep cell
can never diverge.  Sweeps over graphs, algorithms or bandwidths are
scenario lists run by ``Runner().run_many`` (see the README's Migration
section).
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from ..algorithms import run_algorithm
from ..config import RunConfig
from ..core.results import MSTRunResult
from ..simulator.engine import DEFAULT_ENGINE

__all__ = ["run_single"]


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

    ``seed`` (provenance of the generator that produced ``graph``),
    ``collect_telemetry``, ``strict_bounds`` and ``condition`` (a
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
    _record_planted_mst(graph, result)
    if verify:
        from ..verify.mst_checks import verify_mst_result

        verify_mst_result(graph, result)
    return result


def _record_planted_mst(graph: nx.Graph, result: MSTRunResult) -> None:
    """Surface the planted MST of a workload-zoo instance in ``result.details``.

    The record is provenance only; the verifier checks the tree as one
    of its oracles (:class:`~repro.verify.mst_checks.MSTOracle`).  The
    batch runner's served ``kruskal`` / ``prim`` cells take this step
    too, so their details match :func:`run_single`'s.
    """
    from ..verify.planted_checks import planted_mst_details

    planted = planted_mst_details(graph)
    if planted is not None:
        result.details.setdefault("planted_mst", planted)
