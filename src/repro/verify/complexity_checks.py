"""Complexity-bound checks: measured cost versus theorem bounds.

These checks compare what the simulator measured for one run against the
bound formulas of :mod:`repro.analysis.bounds`.  The optional
``strict_bounds`` mode of :func:`repro.core.elkin_mst.compute_mst` runs
:func:`assert_elkin_bounds` on every result.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..analysis.bounds import (
    controlled_ghs_message_bound,
    controlled_ghs_time_bound,
    elkin_bounds,
)
from ..core.controlled_ghs import ControlledGHSResult
from ..core.results import MSTRunResult
from ..exceptions import VerificationError
from ..types import CostReport

if TYPE_CHECKING:
    from ..conditions.spec import NetworkCondition


def assert_elkin_bounds(
    result: MSTRunResult,
    diameter: Optional[int] = None,
    condition: Optional["NetworkCondition"] = None,
) -> None:
    """Raise :class:`VerificationError` if a run exceeded the theorem bounds.

    The bounds are the run's row bounds
    (:func:`~repro.analysis.bounds.elkin_bounds`), stretched by
    ``condition`` when given: the diameter term is ``diameter`` (the
    instance's ``D``) when given, else the result's BFS depth.  A result
    with neither -- rehydrated from an old run store, or produced by a
    runner that never builds a BFS tree -- is refused.  ``strict_bounds``
    mode passes no ``diameter``; BFS depth <= D, so a run that passes
    strict mode also passes the report's audit.
    """
    round_bound, message_bound = elkin_bounds(
        result.n,
        result.m,
        result.bandwidth,
        diameter=diameter,
        bfs_depth=result.details.get("bfs_depth"),
        condition=condition,
    )
    condition_note = "" if condition is None else f", condition={condition.label()}"
    if round_bound is None:
        raise VerificationError(
            f"cannot evaluate the Theorem 3.2 round bound for {result.algorithm!r}: "
            "the result records no 'bfs_depth' and no instance diameter was "
            "supplied; pass diameter=D from the instance description"
        )
    if result.rounds > round_bound:
        raise VerificationError(
            f"round count {result.rounds} exceeds the Theorem 3.1/3.2 bound {round_bound:.0f} "
            f"(n={result.n}, D={diameter}, bfs_depth={result.details.get('bfs_depth')}, "
            f"b={result.bandwidth}{condition_note})"
        )
    if result.messages > message_bound:
        raise VerificationError(
            f"message count {result.messages} exceeds the Theorem 3.1/3.2 bound "
            f"{message_bound:.0f} (n={result.n}, m={result.m}{condition_note})"
        )


def assert_controlled_ghs_bounds(
    result: ControlledGHSResult, n: int, m: int, cost: CostReport | None = None
) -> None:
    """Raise :class:`VerificationError` if Controlled-GHS exceeded Theorem 4.3's bounds."""
    measured = cost if cost is not None else result.cost
    time_bound = controlled_ghs_time_bound(n, result.k)
    if measured.rounds > time_bound:
        raise VerificationError(
            f"Controlled-GHS used {measured.rounds} rounds, exceeding the Theorem 4.3 bound "
            f"{time_bound:.0f} (n={n}, k={result.k})"
        )
    message_bound = controlled_ghs_message_bound(n, m, result.k)
    if measured.messages > message_bound:
        raise VerificationError(
            f"Controlled-GHS used {measured.messages} messages, exceeding the Theorem 4.3 bound "
            f"{message_bound:.0f} (n={n}, m={m}, k={result.k})"
        )
