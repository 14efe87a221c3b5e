"""Capability-aware registry of the MST algorithms this package implements.

Every runnable algorithm -- the paper's, the distributed baselines and
the sequential references -- is described by an :class:`AlgorithmInfo`:
the runner callable plus the capability metadata sweep tooling needs to
reason about it (is it distributed? does the CONGEST bandwidth affect
it? which complexity class do its round/message counts belong to?).

The single-execution contract
(:func:`repro.analysis.experiments.run_single`), the campaign layer
(:mod:`repro.campaign`) and the scenario facade (:mod:`repro.api`) all
dispatch by *name* through :func:`run_algorithm`, so this module is the
single place where a name becomes a callable.  Keeping it a leaf
module lets every layer share one source of truth without importing each
other.

Third-party algorithms join via :func:`register_algorithm`; the
sequential references ride on the adapter in
:mod:`repro.baselines.sequential`, which is what makes ``kruskal`` /
``prim`` / ``boruvka_seq`` legal values everywhere an algorithm name is
accepted (``Scenario(algorithm=...)``, ``repro-mst sweep --algorithms``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

import networkx as nx

from .baselines.boruvka_seq import boruvka_mst
from .baselines.ghs import ghs_style_mst
from .baselines.gkp import gkp_mst
from .baselines.kruskal import kruskal_mst
from .baselines.prim import prim_dense_mst, prim_mst
from .baselines.prs import prs_style_mst
from .baselines.sequential import sequential_runner
from .conditions.proxy import condition_scope
from .config import RunConfig
from .core.elkin_mst import compute_mst
from .core.results import MSTRunResult
from .exceptions import (
    ConfigurationError,
    ConvergenceError,
    FragmentError,
    NonTerminationError,
    ProtocolError,
)

#: The runner contract every registered algorithm implements.
AlgorithmRunner = Callable[[nx.Graph, Optional[RunConfig]], MSTRunResult]


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registry entry: the runner plus its capability metadata.

    Attributes:
        name: identifier accepted by every ``algorithm`` argument.
        runner: callable implementing the
            ``(graph, Optional[RunConfig]) -> MSTRunResult`` contract.
        family: coarse grouping for presentation -- ``"paper"``,
            ``"distributed-baseline"`` or ``"sequential-baseline"``.
        description: one-line human description.
        is_distributed: False for local (non-simulated) computations;
            such runners report ``rounds = messages = 0``.
        supports_bandwidth: True when the CONGEST(b log n) bandwidth
            parameter changes the runner's measured costs; sequential
            references record ``b`` but ignore it.
        round_bound: asymptotic round-complexity class (informational).
        message_bound: asymptotic message-complexity class (informational).
    """

    name: str
    runner: AlgorithmRunner
    family: str
    description: str = ""
    is_distributed: bool = True
    supports_bandwidth: bool = True
    round_bound: str = ""
    message_bound: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"algorithm name must be a non-empty string, got {self.name!r}"
            )
        if not callable(self.runner):
            raise ConfigurationError(f"runner of algorithm {self.name!r} is not callable")


_REGISTRY: Dict[str, AlgorithmInfo] = {}


def register_algorithm(info: AlgorithmInfo) -> None:
    """Register ``info`` under ``info.name``.

    Registering a name twice replaces the previous entry, which lets
    tests substitute instrumented runners.
    """
    _REGISTRY[info.name] = info


def algorithm_info(name: str) -> AlgorithmInfo:
    """The :class:`AlgorithmInfo` registered under ``name``.

    Raises :class:`~repro.exceptions.ConfigurationError` for unknown
    names; the message lists the available algorithms so sweep typos are
    easy to diagnose.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {', '.join(available_algorithms())}"
        ) from None


def available_algorithms() -> List[str]:
    """Sorted names accepted by ``algorithm`` arguments across the package.

    ``algorithm_info(name).is_distributed`` tells the simulated
    algorithms from the sequential references.
    """
    return sorted(_REGISTRY)


def algorithm_registry() -> Mapping[str, AlgorithmInfo]:
    """Read-only snapshot of the registry (name -> info)."""
    return dict(_REGISTRY)


def run_algorithm(
    graph: nx.Graph, algorithm: str, config: Optional[RunConfig] = None
) -> MSTRunResult:
    """Run ``algorithm`` (by name) on ``graph`` under ``config``.

    This is the single dispatch point every layer funnels through.  A
    generator seed threaded in via ``config.seed`` is recorded in
    ``result.details`` so provenance survives serialization regardless of
    which entrypoint assembled the config.
    """
    info = algorithm_info(algorithm)
    config = config if config is not None else RunConfig()
    condition = config.condition
    if condition is None or not info.is_distributed:
        # Sequential references never build an engine, so there is no
        # network for a condition to act on; they stay the free oracle
        # for whatever the conditioned distributed run produces.
        result = info.runner(graph, config)
    else:
        with condition_scope(condition, run_seed=config.seed) as scope:
            try:
                result = info.runner(graph, config)
            except NonTerminationError as error:
                telemetry = scope.telemetry()
                error.condition_telemetry = telemetry
                if error.rounds is None:
                    cost = scope.cost()
                    error.rounds = cost.rounds
                    error.messages = cost.messages
                    error.words = cost.words
                raise
            except ConvergenceError as error:
                # Under injected faults a blown protocol round limit is
                # an expected outcome (e.g. a crash-stop schedule), not
                # a protocol bug: surface it as the typed condition
                # result with the cap and partial costs recorded.
                cost = scope.cost()
                converted = NonTerminationError(
                    f"run under condition {condition.label()!r} did not "
                    f"terminate: {error}",
                    round_cap=getattr(error, "rounds_limit", 0) or None,
                    rounds=cost.rounds,
                    messages=cost.messages,
                    words=cost.words,
                )
                converted.condition_telemetry = scope.telemetry()
                raise converted from error
            except (FragmentError, ProtocolError) as error:
                # Crash omission windows legitimately break protocol
                # invariants (a crashed vertex's fragment never learns
                # its outgoing edge, so merging stalls in an
                # inconsistent state).  Only an active crash model gets
                # this conversion: under loss/delay/adversary -- which
                # preserve eventual delivery -- such errors still mean a
                # protocol bug and propagate unchanged.
                if condition.crash is None:
                    raise
                cost = scope.cost()
                converted = NonTerminationError(
                    f"run under condition {condition.label()!r} cannot "
                    f"terminate (crash-induced {type(error).__name__}): {error}",
                    rounds=cost.rounds,
                    messages=cost.messages,
                    words=cost.words,
                )
                converted.condition_telemetry = scope.telemetry()
                raise converted from error
        result.details["condition"] = scope.telemetry()
    _record_seed(result, config.seed)
    return result


def _record_seed(result: MSTRunResult, seed: Optional[int]) -> None:
    """Record a generator ``seed`` in ``result.details`` for provenance.

    The batch runner's served ``kruskal`` / ``prim`` cells take this
    step too, so their details match :func:`run_algorithm`'s.
    """
    if seed is not None:
        result.details.setdefault("seed", seed)


# -- built-in entries ----------------------------------------------------

register_algorithm(
    AlgorithmInfo(
        name="elkin",
        runner=compute_mst,
        family="paper",
        description="Elkin's deterministic MST (PODC 2017), diameter-sensitive base forest",
        round_bound="O((D + sqrt(n/b)) log n + log^2 n)",
        message_bound="O(|E| log n + n log n log* n)",
    )
)
register_algorithm(
    AlgorithmInfo(
        name="ghs",
        runner=ghs_style_mst,
        family="distributed-baseline",
        description="GHS-style synchronous Boruvka (no fragment-diameter control)",
        supports_bandwidth=True,
        round_bound="O(n log n)",
        message_bound="O((|E| + n) log n)",
    )
)
register_algorithm(
    AlgorithmInfo(
        name="gkp",
        runner=gkp_mst,
        family="distributed-baseline",
        description="Garay-Kutten-Peleg: Controlled-GHS with k = sqrt(n) + Pipeline-MST",
        round_bound="O(D + sqrt(n) log* n)",
        message_bound="Theta(|E| + n^(3/2))",
    )
)
register_algorithm(
    AlgorithmInfo(
        name="prs",
        runner=prs_style_mst,
        family="distributed-baseline",
        description="PRS16-style second phase over a forced sqrt(n) base forest",
        round_bound="O((D + sqrt(n)) log n)",
        message_bound="Theta(D sqrt(n)) per phase on high-D graphs",
    )
)
register_algorithm(
    AlgorithmInfo(
        name="kruskal",
        runner=sequential_runner("kruskal", kruskal_mst),
        family="sequential-baseline",
        description="Sequential Kruskal (union-find); verification ground truth",
        is_distributed=False,
        supports_bandwidth=False,
        round_bound="0 (local computation)",
        message_bound="0 (local computation)",
    )
)
register_algorithm(
    AlgorithmInfo(
        name="prim",
        runner=sequential_runner("prim", prim_mst),
        family="sequential-baseline",
        description="Sequential Prim (binary heap); second independent reference",
        is_distributed=False,
        supports_bandwidth=False,
        round_bound="0 (local computation)",
        message_bound="0 (local computation)",
    )
)
register_algorithm(
    AlgorithmInfo(
        name="prim_dense",
        runner=sequential_runner("prim_dense", prim_dense_mst),
        family="sequential-baseline",
        description="Array-based O(n^2) Jarnik-Prim; dense-graph reference for the zoo",
        is_distributed=False,
        supports_bandwidth=False,
        round_bound="0 (local computation)",
        message_bound="0 (local computation)",
    )
)
register_algorithm(
    AlgorithmInfo(
        name="boruvka_seq",
        runner=sequential_runner("boruvka_seq", boruvka_mst),
        family="sequential-baseline",
        description="Sequential Boruvka phases; simulator-free mirror of the distributed shape",
        is_distributed=False,
        supports_bandwidth=False,
        round_bound="0 (local computation)",
        message_bound="0 (local computation)",
    )
)
