"""Rule registry of the static analyzer.

A rule is a checker function registered under a stable identifier via
the :func:`rule` decorator.  The driver looks rules up here, filters
them by ``--select``/``--ignore`` and by scope, and feeds each one the
per-file :class:`~repro.lint.context.FileContext`.

Identifier scheme (mirrored in DESIGN.md, Section 16):

* ``LOC1xx`` -- CONGEST locality rules (protocol code only);
* ``DET2xx`` -- determinism rules (whole tree);
* ``CON3xx`` -- engine/spec/store contract rules (whole tree);
* ``SUP0xx`` -- suppression hygiene, emitted by the driver itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from .context import FileContext
from .findings import Finding

#: A checker: yields findings for one parsed file.
Checker = Callable[[FileContext], Iterable[Finding]]

#: Scope values: ``"all"`` runs everywhere, ``"protocol"`` only on files
#: matching :attr:`~repro.lint.config.LintConfig.protocol_globs`.
SCOPES = ("all", "protocol")


@dataclass(frozen=True)
class Rule:
    """One registered rule."""

    id: str
    name: str
    summary: str
    scope: str
    checker: Checker

    def applies_to(self, context: FileContext) -> bool:
        return self.scope == "all" or context.is_protocol_scope


_RULES: Dict[str, Rule] = {}

#: Framework diagnostics (suppression hygiene); registered for id
#: lookups but executed by the driver, not per-file checkers.
FRAMEWORK_RULE_IDS = ("SUP001", "SUP002", "SUP003")

FRAMEWORK_RULES = {
    "SUP001": ("suppression-without-reason", "every suppression must carry a justification"),
    "SUP002": ("suppression-unknown-rule", "suppression names a rule id that does not exist"),
    "SUP003": ("suppression-unused", "suppression matched no finding (stale or misplaced)"),
}


def rule(rule_id: str, name: str, summary: str, scope: str = "all") -> Callable[[Checker], Checker]:
    """Register ``checker`` under ``rule_id`` (decorator)."""
    if scope not in SCOPES:
        raise ValueError(f"unknown rule scope {scope!r}; expected one of {SCOPES}")

    def decorate(checker: Checker) -> Checker:
        if rule_id in _RULES:
            raise ValueError(f"rule id {rule_id!r} registered twice")
        _RULES[rule_id] = Rule(id=rule_id, name=name, summary=summary, scope=scope, checker=checker)
        return checker

    return decorate


def _ensure_builtin_rules() -> None:
    """Import the shipped rule modules so they self-register (idempotent)."""
    from . import rules_contracts as _contracts  # noqa: F401
    from . import rules_determinism as _determinism  # noqa: F401
    from . import rules_locality as _locality  # noqa: F401


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""
    _ensure_builtin_rules()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def known_rule_ids() -> List[str]:
    """Ids accepted in suppressions and ``--select``/``--ignore``."""
    _ensure_builtin_rules()
    return sorted([*_RULES, *FRAMEWORK_RULE_IDS])


def select_rules(
    select: Optional[Iterable[str]] = None, ignore: Optional[Iterable[str]] = None
) -> Iterator[Rule]:
    """Rules surviving the ``--select`` / ``--ignore`` filters."""
    selected = {item for item in (select or ())} or None
    ignored = {item for item in (ignore or ())}
    for candidate in all_rules():
        if selected is not None and candidate.id not in selected:
            continue
        if candidate.id in ignored:
            continue
        yield candidate
