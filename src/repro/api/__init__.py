"""The typed front door of the package: scenarios in, verified results out.

This package is the *single* public execution API.  A
:class:`Scenario` freezes everything one run depends on (graph source,
algorithm, :class:`~repro.config.RunConfig`, verify policy) behind a
content hash; a :class:`Runner` executes scenarios -- one at a time, in
parallel batches, or as a lazy stream -- by routing every call through
the campaign executor, so verification, provenance stamping, run-store
persistence and lifecycle hooks behave identically for a quickstart
one-liner and a 10k-cell sweep.

Quickstart::

    from repro.api import Runner, Scenario
    from repro import GraphSpec, RunConfig

    with Runner(store="runs.jsonl") as runner:
        outcome = runner.run(
            Scenario(
                graph=GraphSpec("random_connected", {"n": 200, "seed": 7}),
                algorithm="elkin",
                config=RunConfig(bandwidth=2, engine="fast"),
            )
        )
    print(outcome.result.rounds, outcome.result.messages)

Everything older (``sweep_graphs``, ``compare_algorithms``, the
``repro-mst`` subcommands) is a thin shim over this facade; see the
README's Migration section for the mapping.  ``run_single`` is the
reverse: the campaign executor calls it for every cell, as the
single-execution contract.
"""

from ..algorithms import (
    algorithm_info,
    algorithm_registry,
    AlgorithmInfo,
    available_algorithms,
    register_algorithm,
)
from .hooks import ProgressReporter, RunObserver, TelemetryCollector
from .runner import Runner, ScenarioOutcome
from .scenario import GraphSource, Scenario

__all__ = [
    "AlgorithmInfo",
    "GraphSource",
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
]
