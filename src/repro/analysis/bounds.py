"""Closed-form versions of the paper's complexity bounds.

Each function evaluates one of the asymptotic bounds with an explicit
multiplicative constant (and a small additive slack that absorbs
low-order terms on tiny graphs).  The constants were calibrated once
against the simulator's accounting conventions and are deliberately
generous: the point of the bound checks is to catch *asymptotic*
regressions (a primitive suddenly costing a factor of ``n`` more), not to
re-prove the theorems' constants.

:func:`elkin_bounds` is the one evaluation of the Theorem 3.1/3.2 bounds
for a run: the executor's row columns, ``strict_bounds`` mode
(:func:`repro.verify.complexity_checks.assert_elkin_bounds`) and the
report's audit of rows without bound columns all call it, so they cannot
apply different policies.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:
    from ..conditions.spec import NetworkCondition


def log2_ceil(value: int) -> int:
    """``ceil(log2(value))`` with the convention that values <= 1 give 1."""
    if value <= 1:
        return 1
    return math.ceil(math.log2(value))


def log_star(value: float) -> int:
    """The iterated logarithm ``log* value`` (base 2), at least 1."""
    if value <= 2:
        return 1
    count = 0
    current = float(value)
    while current > 2:
        current = math.log2(current)
        count += 1
    return max(1, count)


def elkin_time_bound_formula(
    n: int, diameter: int, bandwidth: int = 1, constant: float = 12.0, slack: int = 80
) -> float:
    """Theorem 3.2 round bound: ``O((D + sqrt(n / b)) * log n)``."""
    return constant * (diameter + math.sqrt(n / bandwidth)) * log2_ceil(n) + slack


def elkin_message_bound_formula(
    n: int, m: int, constant: float = 12.0, slack: int = 300
) -> float:
    """Theorem 3.1/3.2 message bound: ``O(m log n + n log n log* n)``."""
    log_n = log2_ceil(n)
    return constant * (m * log_n + n * log_n * log_star(n)) + slack


def elkin_bounds(
    n: int,
    m: int,
    bandwidth: int = 1,
    diameter: Optional[int] = None,
    bfs_depth: Optional[int] = None,
    condition: Optional["NetworkCondition"] = None,
) -> Tuple[Optional[float], float]:
    """The Theorem 3.1/3.2 ``(round, message)`` bounds of one ``elkin`` run.

    The diameter term is the instance's hop-diameter ``diameter`` when it
    is known, else the ``bfs_depth`` the run recorded (at most ``D``, so
    it only tightens the bound).  With neither the round bound is
    ``None``: it is never evaluated with a silent 0, which would tighten
    it and fail runs that conform.

    The theorems assume a reliable synchronous network, so a run under a
    :class:`~repro.conditions.NetworkCondition` gets rounds scaled by
    ``condition.time_stretch()`` (deferred and retransmitted traffic
    extends the schedule) and messages by ``condition.message_stretch()``
    (each loss adds at most ``retransmit`` re-sends per message).
    """
    time_stretch = message_stretch = 1.0
    if condition is not None:
        time_stretch = condition.time_stretch()
        message_stretch = condition.message_stretch()
    diameter_term = diameter if diameter is not None else bfs_depth
    round_bound = None
    if diameter_term is not None:
        round_bound = (
            elkin_time_bound_formula(n, int(diameter_term), bandwidth) * time_stretch
        )
    return round_bound, elkin_message_bound_formula(n, m) * message_stretch


def controlled_ghs_time_bound(
    n: int, k: int, constant: float = 30.0, slack: int = 60
) -> float:
    """Theorem 4.3 round bound: ``O(k log* n)``."""
    return constant * k * log_star(n) + slack


def controlled_ghs_message_bound(
    n: int, m: int, k: int, constant: float = 12.0, slack: int = 300
) -> float:
    """Theorem 4.3 message bound: ``O(m log k + n log k log* n)``."""
    log_k = log2_ceil(max(2, k))
    return constant * (m * log_k + n * log_k * log_star(n)) + slack


def gkp_message_bound(n: int, m: int, constant: float = 10.0, slack: int = 300) -> float:
    """Garay-Kutten-Peleg message bound: ``O(m + n^{3/2})`` (plus the phase-1 log factors)."""
    return constant * (m * log2_ceil(n) + n * math.sqrt(n) + n * log2_ceil(n) * log_star(n)) + slack
