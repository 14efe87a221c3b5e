"""repro: a reproduction of Elkin's deterministic distributed MST algorithm.

The package implements, end to end, the algorithm of

    Michael Elkin, "A Simple Deterministic Distributed MST Algorithm,
    with Near-Optimal Time and Message Complexities", PODC 2017
    (arXiv:1703.02411),

together with the synchronous CONGEST(b log n) simulator it runs on, the
classical baselines it is compared against (GHS-style Boruvka,
Garay-Kutten-Peleg with Pipeline-MST, a PRS16-style second phase), a
verification layer, and the benchmark harness that reproduces the
paper's complexity claims.

Quickstart (the scenario-first API)::

    from repro import GraphSpec, Runner, Scenario

    outcome = Runner().run(
        Scenario(graph=GraphSpec("random_connected", {"n": 200, "seed": 7}))
    )
    print(outcome.result.rounds, outcome.result.messages)

The direct entrypoint is still available::

    from repro import compute_mst, random_connected_graph

    graph = random_connected_graph(200, seed=7)
    result = compute_mst(graph)
    print(result.rounds, result.messages, result.total_weight)

See README.md for the architecture overview (including the migration
table from the legacy entrypoints to scenarios) and EXPERIMENTS.md for
the paper-versus-measured record.
"""

__version__ = "1.6.0"

from .algorithms import (
    algorithm_info,
    algorithm_registry,
    AlgorithmInfo,
    available_algorithms,
    register_algorithm,
)
from .api import (
    ProgressReporter,
    Runner,
    RunObserver,
    Scenario,
    ScenarioOutcome,
    TelemetryCollector,
)
from .campaign import (
    available_presets,
    Campaign,
    CampaignReport,
    execute_campaign,
    preset_campaign,
    RunSpec,
    RunStore,
)
from .config import RunConfig
from .core.controlled_ghs import build_base_forest
from .core.elkin_mst import compute_mst
from .core.results import MSTRunResult
from .graphs.generators import (
    available_families,
    GraphSpec,
    make_graph,
    random_connected_graph,
    register_family,
)
from .simulator.engine import available_engines, create_engine, Engine, register_engine
from .simulator.fast_network import FastNetwork
from .simulator.network import SyncNetwork
from .types import CostReport
from .verify import MSTOracle

# Imported for its side effect: registering the workload-zoo graph
# families (and to make `repro.workloads` importable as an attribute).
from . import workloads  # noqa: E402  (isort: keep after the registrars)

__all__ = [
    "AlgorithmInfo",
    "ProgressReporter",
    "RunObserver",
    "Runner",
    "Scenario",
    "ScenarioOutcome",
    "TelemetryCollector",
    "algorithm_info",
    "algorithm_registry",
    "available_algorithms",
    "register_algorithm",
    "RunConfig",
    "Campaign",
    "CampaignReport",
    "RunSpec",
    "RunStore",
    "available_presets",
    "execute_campaign",
    "preset_campaign",
    "compute_mst",
    "build_base_forest",
    "MSTRunResult",
    "GraphSpec",
    "make_graph",
    "random_connected_graph",
    "available_families",
    "register_family",
    "workloads",
    "Engine",
    "available_engines",
    "create_engine",
    "register_engine",
    "FastNetwork",
    "SyncNetwork",
    "MSTOracle",
    "CostReport",
    "__version__",
]
