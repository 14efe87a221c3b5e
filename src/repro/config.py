"""Configuration objects for algorithm runs.

The paper's algorithm has a small number of tunables: the bandwidth
parameter ``b`` of the CONGEST(b log n) model, the base-forest parameter
``k`` (normally derived from ``n``, ``D`` and ``b``), and bookkeeping
switches (telemetry, strict bound checking).  :class:`RunConfig` bundles
them so that examples, tests and benchmarks construct runs uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .conditions.spec import NetworkCondition, normalize_condition
from .exceptions import ConfigurationError
from .simulator.engine import DEFAULT_ENGINE


@dataclass
class RunConfig:
    """Configuration for a single distributed MST execution.

    Attributes:
        bandwidth: ``b`` of the CONGEST(b log n) model; ``b = 1`` is the
            standard CONGEST model.  Each message carries at most ``b``
            words (edge weights / identities).
        base_forest_k: explicit override of the base-forest parameter
            ``k``.  When ``None`` the paper's rule is applied:
            ``k = sqrt(n / b)`` if ``D <= sqrt(n / b)`` else ``k = D``.
        collect_telemetry: record per-phase telemetry (fragment counts,
            rounds, messages) on the result object.
        strict_bounds: when True, the run raises
            :class:`~repro.exceptions.VerificationError` if measured
            rounds or messages exceed the theorem bounds with the
            constants configured in :mod:`repro.verify.complexity_checks`.
        engine: name of the simulation kernel to run on
            (``"reference"``, ``"fast"`` or -- with numpy installed --
            ``"array"``; see :mod:`repro.simulator.engine`).  Every
            kernel produces identical MST edges, round counts and
            message counts -- the fast and array kernels only change
            wall-clock time.
        seed: seed recorded for provenance (the algorithm itself is
            deterministic; the seed only describes the input generator
            that produced the graph).  ``run_single`` and the campaign
            executor thread it here and also record it in
            ``result.details`` / output rows so it survives
            serialization into the run store.
        condition: optional :class:`~repro.conditions.NetworkCondition`
            (or preset name / clause string / JSON dict -- anything
            :func:`~repro.conditions.normalize_condition` accepts).
            :func:`~repro.algorithms.run_algorithm` -- behind
            ``run_single``, :class:`~repro.api.Runner` and every sweep --
            applies it by wrapping the engine in a condition-applying
            proxy.  A distributed runner called directly
            (``compute_mst``, ``ghs_style_mst``, ``gkp_mst``,
            ``prs_style_mst``) cannot apply it and raises
            :class:`~repro.exceptions.ConfigurationError` before round 1;
            the sequential references build no network and ignore it.
            ``None`` (the default) keeps the perfectly synchronous,
            perfectly reliable CONGEST model.
    """

    bandwidth: int = 1
    base_forest_k: Optional[int] = None
    engine: str = DEFAULT_ENGINE
    collect_telemetry: bool = True
    strict_bounds: bool = False
    seed: Optional[int] = None
    condition: Optional[Union[NetworkCondition, str, dict]] = None

    def __post_init__(self) -> None:
        if self.bandwidth < 1:
            raise ConfigurationError(f"bandwidth must be >= 1, got {self.bandwidth}")
        if self.base_forest_k is not None and self.base_forest_k < 1:
            raise ConfigurationError(
                f"base_forest_k must be >= 1 when given, got {self.base_forest_k}"
            )
        if not isinstance(self.engine, str) or not self.engine:
            raise ConfigurationError(
                f"engine must be a non-empty engine name, got {self.engine!r}"
            )
        if self.seed is not None:
            if isinstance(self.seed, bool) or not isinstance(self.seed, int):
                raise ConfigurationError(
                    f"seed must be a non-negative int when given, "
                    f"got {type(self.seed).__name__}: {self.seed!r}"
                )
            if self.seed < 0:
                raise ConfigurationError(
                    f"seed must be a non-negative int when given, got {self.seed}"
                )
        self.condition = normalize_condition(self.condition)


def normalize_config(config: Optional[RunConfig]) -> RunConfig:
    """The one way a runner turns its ``config`` argument into a RunConfig.

    Every algorithm entrypoint (``compute_mst``, the distributed
    baselines, the sequential-baseline adapter) accepts
    ``config: Optional[RunConfig] = None`` and normalizes it through this
    helper, so ``None`` handling and type checking cannot drift between
    runners.  Returns a fresh default config for ``None`` and rejects
    anything that is not a :class:`RunConfig` (a common mistake is
    passing the bandwidth positionally).
    """
    if config is None:
        return RunConfig()
    if not isinstance(config, RunConfig):
        raise ConfigurationError(
            f"config must be a RunConfig or None, got {type(config).__name__}: {config!r}"
        )
    return config
