"""Locality rules: protocol code must respect the CONGEST model.

These rules run only on protocol-scoped files (``core/``,
``baselines/``, ``simulator/primitives/`` -- see
:class:`~repro.lint.config.LintConfig`).  The model contract they
enforce (DESIGN.md, Section 3): inside the per-round callbacks a vertex
may touch only its *own* :class:`~repro.simulator.node.NodeState` and
communicate only through the :class:`~repro.simulator.protocol.ProtocolApi`
handed to it.  Construction-time validation (``__init__`` reading
``network.graph`` to reject malformed inputs) and result assembly after
termination are the declared seams and stay legal.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from .context import api_param_names, engine_param_names, FileContext, is_engine_expr
from .findings import Finding
from .registry import rule

#: The per-round callbacks where CONGEST locality is binding.
ROUND_CALLBACKS = frozenset({"on_start", "on_round"})

#: Engine methods that drive the global clock or queue raw messages;
#: protocol code must leave them to the driver / ProtocolApi.
ENGINE_CONTROL_METHODS = frozenset({"send", "send_to_neighbors", "deliver_round"})


def _protocol_methods(
    context: FileContext, names: Optional[frozenset] = None
) -> Iterator[tuple]:
    for info in context.classes:
        if not info.is_protocol_subclass:
            continue
        for name, method in sorted(info.methods.items()):
            if names is None or name in names:
                yield info, name, method


@rule(
    "LOC101",
    "engine-graph-read",
    "protocol round callbacks must not read the global graph topology",
    scope="protocol",
)
def check_engine_graph_read(context: FileContext) -> Iterator[Finding]:
    """``<engine>.graph`` (or ``.sorted_edges()`` / ``.m``) inside a round callback.

    A vertex of the clean network model knows its own id, its incident
    edges and ``n`` -- never the global edge list.  Validation in
    ``__init__`` is the whitelisted seam.
    """
    global_attrs = {"graph", "sorted_edges", "m"}
    for info, name, method in _protocol_methods(context, ROUND_CALLBACKS):
        for node in ast.walk(method):
            if not isinstance(node, ast.Attribute) or node.attr not in global_attrs:
                continue
            if is_engine_expr(node.value, context, method, info):
                yield context.finding(
                    node,
                    "LOC101",
                    "engine-graph-read",
                    f"{info.name}.{name} reads the global graph "
                    f"('.{node.attr}') inside a round callback; a CONGEST vertex "
                    "only knows its own NodeState (validate topology in __init__ "
                    "instead)",
                )


@rule(
    "LOC102",
    "cross-vertex-state-read",
    "round callbacks must only read the current vertex's NodeState",
    scope="protocol",
)
def check_cross_vertex_state(context: FileContext) -> Iterator[Finding]:
    """``api.node(other)`` with anything but the callback's own vertex."""
    for info, name, method in _protocol_methods(context, ROUND_CALLBACKS):
        params = [arg.arg for arg in method.args.args]
        # Callback signature: (self, vertex, node, api[, inbox]).
        vertex_param = params[1] if len(params) > 1 else None
        accessors = api_param_names(method, context) | engine_param_names(method, context)
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "node"):
                continue
            base_is_accessor = (
                isinstance(func.value, ast.Name) and func.value.id in accessors
            ) or is_engine_expr(func.value, context, method, info)
            if not base_is_accessor or not node.args:
                continue
            argument = node.args[0]
            if isinstance(argument, ast.Name) and argument.id == vertex_param:
                continue
            yield context.finding(
                node,
                "LOC102",
                "cross-vertex-state-read",
                f"{info.name}.{name} reads another vertex's NodeState "
                f"(.node(...) with something other than {vertex_param!r}); "
                "remote state may only arrive via messages",
            )


@rule(
    "LOC103",
    "engine-contract-bypass",
    "protocols communicate only through ProtocolApi, never the raw engine",
    scope="protocol",
)
def check_engine_contract_bypass(context: FileContext) -> Iterator[Finding]:
    """Raw engine sends / clock control, or reaching into ``api._*`` privates."""
    for info, name, method in _protocol_methods(context):
        api_names = api_param_names(method, context)
        for node in ast.walk(method):
            if not isinstance(node, ast.Attribute):
                continue
            # api._network / api._finished: private reach-through.
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in api_names
                and node.attr.startswith("_")
            ):
                yield context.finding(
                    node,
                    "LOC103",
                    "engine-contract-bypass",
                    f"{info.name}.{name} reaches into ProtocolApi internals "
                    f"('.{node.attr}'); use the public api surface",
                )
                continue
            # network.send(...) / network.deliver_round() from inside a
            # protocol method: bypasses namespacing and the round driver.
            if name == "__init__":
                continue  # construction-time queries (has_edge, n) are the seam
            if node.attr in ENGINE_CONTROL_METHODS and is_engine_expr(
                node.value, context, method, info
            ):
                yield context.finding(
                    node,
                    "LOC103",
                    "engine-contract-bypass",
                    f"{info.name}.{name} calls the raw engine's "
                    f"'.{node.attr}'; messages go through api.send and the "
                    "clock belongs to run_protocol",
                )


@rule(
    "LOC104",
    "module-global-mutation",
    "protocol code must not mutate module/class globals across vertices",
    scope="protocol",
)
def check_module_global_mutation(context: FileContext) -> Iterator[Finding]:
    """``global`` declarations anywhere in a protocol module.

    State shared through module globals is invisible to the engine's
    message accounting and leaks information between vertices; protocol
    state belongs on the protocol instance, keyed by vertex.
    """
    reported: Set[int] = set()
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Global) and node.lineno not in reported:
            reported.add(node.lineno)
            yield context.finding(
                node,
                "LOC104",
                "module-global-mutation",
                f"'global {', '.join(node.names)}' in protocol code: "
                "module-level state is shared across every simulated vertex; "
                "keep protocol state on the protocol instance, keyed by vertex",
            )
