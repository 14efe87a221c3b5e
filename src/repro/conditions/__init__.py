"""Deterministic fault & asynchrony injection for the CONGEST simulator.

``repro.conditions`` turns network misbehaviour -- message loss, bounded
delay, node crashes, adversarial schedules -- into a first-class,
content-hashed sweep dimension.  A :class:`NetworkCondition` composes
independent models and is applied by wrapping any registered engine in a
:class:`ConditionedEngine` proxy through the ``engine_wrapper`` seam; no
kernel is rewritten, and every fault fate is a pure hash of
``(seed, message sequence number)`` so identical specs replay
byte-identically on every engine and in every executor mode.
"""

from .proxy import condition_scope, ConditionedEngine, ConditionScope
from .spec import (
    AdversarialModel,
    available_conditions,
    CONDITION_PRESETS,
    CrashModel,
    DelayModel,
    LossModel,
    NetworkCondition,
    normalize_condition,
    parse_condition,
)

__all__ = [
    "AdversarialModel",
    "CONDITION_PRESETS",
    "ConditionScope",
    "ConditionedEngine",
    "CrashModel",
    "DelayModel",
    "LossModel",
    "NetworkCondition",
    "available_conditions",
    "condition_scope",
    "normalize_condition",
    "parse_condition",
]
