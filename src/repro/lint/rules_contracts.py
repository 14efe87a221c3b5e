"""Contract rules: the engine ABC, frozen specs, and read-only stores.

Three load-bearing interfaces get static enforcement:

* concrete :class:`~repro.simulator.engine.Engine` subclasses must
  implement the full kernel contract and charge costs through the
  shared :class:`~repro.simulator.metrics.Metrics` helpers (so every
  engine reports identical numbers);
* frozen spec dataclasses (``RunSpec``, ``NetworkCondition``, ...) are
  content-hashed identities -- mutating one after ``__post_init__``
  silently changes what its hash *should* have been;
* stores opened ``read_only=True`` (reports, merge sources) must never
  reach write paths.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from .context import engine_param_names, FileContext
from .findings import Finding
from .registry import rule

#: The abstract kernel surface of repro.simulator.engine.Engine.  Kept
#: as a frozen copy so fixture trees lint without importing the package;
#: tests/test_lint.py asserts it matches the live ABC.
ENGINE_ABSTRACT_METHODS = frozenset(
    {
        "vertices",
        "node",
        "send",
        "pending_count",
        "deliver_round",
    }
)

#: Scalar counters only the Metrics helpers may advance.
METRICS_COUNTER_ATTRS = frozenset({"rounds", "messages", "words"})

#: Store methods that write; calling one on a read_only store is a bug
#: (the store raises at runtime -- this rule rejects it at review time).
STORE_WRITE_METHODS = frozenset(
    {
        "record_run",
        "record_graph",
        "append_record_line",
        "compact",
        "merge_from",
    }
)

#: Store constructors/openers whose ``read_only=True`` binding CON304 tracks.
STORE_OPENERS = frozenset({"open_store", "RunStore", "ColumnarStore"})


@rule(
    "CON301",
    "engine-abc-incomplete",
    "concrete Engine subclasses must implement the full kernel contract",
)
def check_engine_surface(context: FileContext) -> Iterator[Finding]:
    for info in context.classes:
        if not info.is_engine_subclass:
            continue
        # Abstract intermediates (declaring abstractmethods of their
        # own) opt out; only concrete kernels must be complete.
        is_abstract = any(
            any(
                (context.qualify(decorator) or "").endswith("abstractmethod")
                for decorator in method.decorator_list
            )
            for method in info.methods.values()
        )
        if is_abstract:
            continue
        defined: Set[str] = set(info.methods)
        for statement in info.node.body:
            if isinstance(statement, ast.Assign):
                defined.update(
                    target.id
                    for target in statement.targets
                    if isinstance(target, ast.Name)
                )
        missing = sorted(ENGINE_ABSTRACT_METHODS - defined)
        if missing:
            yield context.finding(
                info.node,
                "CON301",
                "engine-abc-incomplete",
                f"engine subclass {info.name} is missing contract methods: "
                f"{', '.join(missing)} (the Engine ABC would reject "
                "instantiation at runtime; implement or mark abstract)",
            )


def _metrics_bases(
    func: ast.FunctionDef, context: FileContext, in_engine_class: bool
) -> Set[str]:
    """Local names aliasing a Metrics instance inside ``func``."""
    aliases: Set[str] = set()
    engine_params = engine_param_names(func, context)

    def is_metrics_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in aliases
        if isinstance(node, ast.Attribute) and node.attr == "metrics":
            base = node.value
            if isinstance(base, ast.Name) and (
                base.id in engine_params or (in_engine_class and base.id == "self")
            ):
                return True
        return False

    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and is_metrics_expr(node.value):
            aliases.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
    return aliases


@rule(
    "CON302",
    "direct-metrics-write",
    "engines charge costs through the Metrics helpers, never raw counters",
)
def check_direct_metrics_write(context: FileContext) -> Iterator[Finding]:
    """Assignments to ``metrics.rounds/messages/words`` outside metrics.py.

    The helpers (``record_round`` / ``record_message`` /
    ``record_bulk`` / ``record_delivered_round`` and ``Counter.update``
    for per-kind tallies) are the single place accounting happens; raw
    ``+=`` on the counters is how engines drift apart.
    """
    if context.is_metrics_owner:
        return
    for func, owner in context.functions():
        in_engine_class = owner is not None and owner.is_engine_subclass
        aliases = _metrics_bases(func, context, in_engine_class)
        engine_params = engine_param_names(func, context)

        def metrics_expr(node: ast.AST) -> bool:
            if isinstance(node, ast.Name):
                return node.id in aliases
            if isinstance(node, ast.Attribute) and node.attr == "metrics":
                base = node.value
                return isinstance(base, ast.Name) and (
                    base.id in engine_params
                    or (in_engine_class and base.id == "self")
                )
            return False

        for node in ast.walk(func):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                # metrics.messages += n  /  metrics.words = n
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in METRICS_COUNTER_ATTRS
                    and metrics_expr(target.value)
                ):
                    yield context.finding(
                        node,
                        "CON302",
                        "direct-metrics-write",
                        f"direct write to the '{target.attr}' counter; charge "
                        "through Metrics.record_round/record_message/"
                        "record_bulk so every engine accounts identically",
                    )
                # metrics.messages_by_kind[kind] += n
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "messages_by_kind"
                    and metrics_expr(target.value.value)
                ):
                    yield context.finding(
                        node,
                        "CON302",
                        "direct-metrics-write",
                        "per-kind tally written by subscript; use "
                        "Metrics.record_bulk(kind=...) or Counter.update",
                    )


@rule(
    "CON303",
    "frozen-spec-mutation",
    "frozen dataclasses are content-hashed identities; no post-init setattr",
)
def check_frozen_mutation(context: FileContext) -> Iterator[Finding]:
    """``object.__setattr__`` outside ``__init__`` / ``__post_init__``.

    On a frozen spec this bypasses immutability after the identity was
    hashed.  Derived-value caches that equality/hashing provably ignore
    are the one sanctioned use -- suppress with that justification.
    """
    allowed_scopes = {"__init__", "__post_init__", "__setstate__"}
    for func, _ in context.functions():
        if func.name in allowed_scopes:
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and context.qualify(node.func) == "object.__setattr__"
            ):
                yield context.finding(
                    node,
                    "CON303",
                    "frozen-spec-mutation",
                    f"object.__setattr__ in '{func.name}' mutates a frozen "
                    "instance after construction; frozen specs are hashed "
                    "identities (use dataclasses.replace, or suppress for "
                    "equality-ignored caches)",
                )


@rule(
    "CON304",
    "read-only-store-write",
    "stores opened read_only must never call write paths",
)
def check_read_only_store_write(context: FileContext) -> Iterator[Finding]:
    for func, _ in context.functions():
        read_only_names = _read_only_bindings(func, context)
        if not read_only_names:
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in STORE_WRITE_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in read_only_names
            ):
                yield context.finding(
                    node,
                    "CON304",
                    "read-only-store-write",
                    f"'.{node.func.attr}()' called on a store opened "
                    "read_only=True; read-only opens (reports, merge "
                    "sources) must never reach a write path",
                )


def _read_only_bindings(func: ast.FunctionDef, context: FileContext) -> Set[str]:
    """Names bound to a store opened with ``read_only=True`` in ``func``."""

    def opens_read_only(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        qual = context.qualify(node.func) or ""
        if qual.rsplit(".", 1)[-1] not in STORE_OPENERS:
            return False
        return any(
            keyword.arg == "read_only"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in node.keywords
        )

    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and opens_read_only(node.value):
            names.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if opens_read_only(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    names.add(item.optional_vars.id)
    return names
