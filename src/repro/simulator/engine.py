"""The simulation-engine abstraction and the engine registry.

Every algorithm in the library talks to the network through the
:class:`Engine` contract: queue messages with :meth:`Engine.send`,
advance the global clock with :meth:`Engine.deliver_round` (the only
way a round passes), and read costs through the shared
:class:`~repro.simulator.metrics.Metrics` helpers.  Three implementations
ship with the package:

* ``"reference"`` -- :class:`~repro.simulator.network.SyncNetwork`, the
  readable kernel whose code mirrors the model definition (one
  :class:`~repro.simulator.message.Message` object per transmission,
  explicit per-edge dictionaries);
* ``"fast"`` -- :class:`~repro.simulator.fast_network.FastNetwork`, a
  batched kernel with CSR-style edge slots, flat per-edge bandwidth
  counters and one metrics call per delivered round;
* ``"array"`` -- :class:`~repro.simulator.array_network.ArrayNetwork`,
  a numpy structure-of-arrays kernel (CSR adjacency as arrays,
  vectorized neighbourhood broadcasts, array-reduction accounting);
  listed when numpy is installed, but imported -- numpy with it -- only
  when a caller names it, so ``reference`` and ``fast`` runs never load
  numpy.  Without numpy, selecting it raises an actionable
  :class:`~repro.exceptions.ConfigurationError`.

All engines implement the same model, round for round and message for
message: switching engines changes wall-clock time only, never the
reported complexity numbers (``tests/test_engine_equivalence.py``
asserts this on a matrix of algorithms and graph families).

Engines are selected by name through :func:`create_engine`, which is
what :class:`~repro.config.RunConfig.engine` and the CLI's ``--engine``
flag feed into.  Third-party kernels can join via
:func:`register_engine`.
"""

from __future__ import annotations

import abc
import contextlib
import functools
import importlib.util
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import networkx as nx

from ..exceptions import ConfigurationError
from ..types import CostReport, normalize_edge, VertexId
from .metrics import Metrics, MetricsSnapshot
from .node import NodeState


class Engine(abc.ABC):
    """Contract every simulation kernel implements.

    Concrete engines own the communication graph, the global round
    clock, the in-flight message queues and the cost counters.  The
    accounting helpers (checkpointing, totals, edge enumeration) are
    shared here so that every engine reports costs identically.

    Required instance attributes (set by concrete ``__init__``):

    * ``graph`` -- the :class:`networkx.Graph` being simulated;
    * ``bandwidth`` -- the ``b`` of CONGEST(b log n);
    * ``metrics`` -- the kernel-owned :class:`Metrics` counters.
    """

    # Empty slots keep the base abstract; concrete engines may opt into
    # __slots__ for faster attribute access on the send hot path.
    __slots__ = ()

    graph: nx.Graph
    bandwidth: int
    metrics: Metrics

    # ------------------------------------------------------------------ #
    # shared queries (identical across engines)
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.graph.number_of_nodes()

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.graph.number_of_edges()

    @property
    def round(self) -> int:
        """Current value of the global round clock."""
        return self.metrics.rounds

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """True when ``{u, v}`` is an edge of the communication graph."""
        return self.graph.has_edge(u, v)

    def sorted_edges(self) -> List[Tuple[float, VertexId, VertexId]]:
        """All edges as (weight, u, v) triples sorted by the unique-MST order."""
        triples = [
            (data["weight"], *normalize_edge(u, v)) for u, v, data in self.graph.edges(data=True)
        ]
        return sorted(triples)

    # ------------------------------------------------------------------ #
    # shared accounting helpers
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> MetricsSnapshot:
        """Snapshot the cost counters (see :meth:`cost_since`)."""
        return self.metrics.checkpoint()

    def cost_since(self, snapshot: MetricsSnapshot) -> CostReport:
        """Cost accumulated since ``snapshot``."""
        return self.metrics.since(snapshot)

    def total_cost(self) -> CostReport:
        """Total cost accumulated since the engine was created."""
        return self.metrics.as_report()

    # ------------------------------------------------------------------ #
    # kernel contract
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def vertices(self) -> Iterable[VertexId]:
        """Iterate over vertex identities in sorted order."""

    @abc.abstractmethod
    def node(self, vertex: VertexId) -> NodeState:
        """Return the :class:`NodeState` of ``vertex``."""

    def node_lookup(self) -> Callable[[VertexId], NodeState]:
        """A callable that does what :meth:`node` does, fetched once per protocol run.

        The round driver calls it at every visit.  The default is the
        bound :meth:`node`; a kernel may hand out something cheaper with
        the same results and the same :class:`SimulationError` for an
        unknown vertex.
        """
        return self.node

    @abc.abstractmethod
    def send(
        self,
        sender: VertexId,
        receiver: VertexId,
        kind: str,
        payload: Tuple[Any, ...] = (),
        words: int = 1,
    ) -> None:
        """Queue a message for delivery at the start of the next round.

        Must enforce that ``(sender, receiver)`` is a graph edge and that
        the words sent over the directed edge in the current round stay
        within the bandwidth (raising
        :class:`~repro.exceptions.BandwidthExceededError` otherwise).
        """

    def send_to_neighbors(
        self,
        sender: VertexId,
        kind: str,
        payload: Tuple[Any, ...] = (),
        words: int = 1,
        exclude: Optional[VertexId] = None,
    ) -> int:
        """Queue one copy of a message to every neighbour of ``sender``.

        Semantically exactly equivalent to calling :meth:`send` once per
        neighbour of ``sender`` in sorted-neighbour order, skipping
        ``exclude`` -- including the partial-commit behaviour on a
        bandwidth violation (messages to earlier neighbours stay queued,
        the offending send raises).  Engines with vectorized internals
        override this with a bulk implementation; this default keeps the
        reference semantics in exactly one obvious loop.  Returns the
        number of messages queued.
        """
        send = self.send
        count = 0
        for neighbor in self.node(sender).neighbors:
            if neighbor == exclude:
                continue
            send(sender, neighbor, kind, payload, words)
            count += 1
        return count

    @abc.abstractmethod
    def pending_count(self) -> int:
        """Number of messages queued for delivery in the next round."""

    @abc.abstractmethod
    def deliver_round(self) -> Dict[VertexId, List[Any]]:
        """Advance the clock by one round and deliver all queued messages.

        Returns a mapping from receiver vertex to the list of messages it
        receives at the start of the new round (receivers with an empty
        inbox are omitted).  Delivered messages expose the
        :class:`~repro.simulator.message.Message` attribute interface
        (``sender`` / ``receiver`` / ``kind`` / ``payload`` / ``words`` /
        ``sent_in_round``); per-receiver lists preserve global send
        order, and receivers appear in first-message order.
        """


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #

#: An engine factory: ``factory(graph, bandwidth=..., validate=...) -> Engine``.
EngineFactory = Callable[..., Engine]

_REGISTRY: Dict[str, EngineFactory] = {}

#: Engines that exist but cannot run in this environment (name -> why).
#: Selecting one raises a :class:`ConfigurationError` carrying the
#: recorded reason instead of the generic unknown-engine message.
_UNAVAILABLE: Dict[str, str] = {}

#: Name of the engine used when none is requested explicitly.
DEFAULT_ENGINE = "reference"


def register_engine(name: str, factory: EngineFactory) -> None:
    """Register ``factory`` under ``name`` for :func:`create_engine`.

    Registering a name twice replaces the previous factory, which lets
    tests substitute instrumented kernels.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"engine name must be a non-empty string, got {name!r}")
    _UNAVAILABLE.pop(name, None)
    _REGISTRY[name] = factory


def register_unavailable_engine(name: str, reason: str) -> None:
    """Record that engine ``name`` exists but cannot run here.

    Used by optional-dependency kernels (the ``array`` engine needs
    numpy): the name stays out of :func:`available_engines`, and
    selecting it raises an actionable error instead of "unknown engine".
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"engine name must be a non-empty string, got {name!r}")
    _REGISTRY.pop(name, None)
    _UNAVAILABLE[name] = reason


def _ensure_builtin_engines(name: str = "") -> None:
    """Import the built-in kernels so they self-register (idempotent).

    The pure-Python kernels always load.  The numpy ``array`` kernel
    loads only when ``name`` asks for it and nothing is registered or
    recorded under that name yet, so a run on another engine never
    imports numpy and a test's substitute is never overwritten.
    """
    from . import fast_network as _fast_network  # noqa: F401
    from . import network as _network  # noqa: F401

    if name == "array" and name not in _REGISTRY and name not in _UNAVAILABLE:
        from . import array_network as _array_network  # noqa: F401


@functools.lru_cache(maxsize=None)
def _numpy_installed() -> bool:
    """True when numpy can be imported here; finds it without importing it."""
    return importlib.util.find_spec("numpy") is not None


def available_engines() -> List[str]:
    """Names accepted by :func:`create_engine` (and the CLI's ``--engine``).

    ``array`` is listed when numpy is installed and nothing has recorded
    the engine as unavailable; listing it does not import it.
    """
    _ensure_builtin_engines()
    names = set(_REGISTRY)
    if "array" not in _UNAVAILABLE and _numpy_installed():
        names.add("array")
    return sorted(names)


def unavailable_engines() -> Dict[str, str]:
    """Engines that exist but cannot run here, mapped to the reason.

    The ``array`` kernel without numpy is the canonical entry; the CLI's
    ``engines`` subcommand surfaces this mapping so a missing optional
    dependency is diagnosable without triggering the selection error.
    The kernel is imported here only when numpy is missing, to record
    that reason.
    """
    _ensure_builtin_engines("" if _numpy_installed() else "array")
    return dict(_UNAVAILABLE)


def registered_factory(name: str) -> Optional[EngineFactory]:
    """The factory currently registered under ``name`` (``None`` when absent).

    Lets callers that special-case a kernel detect when a test or
    plugin has re-registered the name with something else.
    """
    _ensure_builtin_engines(name)
    return _REGISTRY.get(name)


#: A provider intercepting :func:`create_engine`: returns a prepared
#: engine for ``(graph, bandwidth, engine_name)``, or ``None`` to fall
#: through to the registry.
EngineProvider = Callable[[nx.Graph, int, str], Optional[Engine]]

_PROVIDERS: List[EngineProvider] = []


@contextlib.contextmanager
def engine_provider(provider: EngineProvider) -> Iterator[None]:
    """Intercept :func:`create_engine` calls within the ``with`` block.

    This is how a caller hands algorithms a prepared kernel, or captures
    the kernels a run builds, without changing the runner contract:
    algorithms keep calling ``create_engine(graph, ...)``, and the
    innermost active provider may answer with an engine for that exact
    graph.  A provider returning ``None`` falls through (to outer
    providers, then to the registry), so interception is always safe.
    Providers stack; the mechanism is intentionally not thread-safe (the
    executors are process-parallel, never thread-parallel).
    """
    _PROVIDERS.append(provider)
    try:
        yield
    finally:
        _PROVIDERS.pop()


def active_provider_count() -> int:
    """Number of :func:`engine_provider` interceptors currently installed.

    Providers live in process-local state: ``fork``-started workers
    inherit them, ``spawn``-started workers do not.  The jobs>1
    scheduler consults this count to fail loudly instead of silently
    running worker cells without the parent's provider.
    """
    return len(_PROVIDERS)


#: A wrapper decorating engines :func:`create_engine` hands out:
#: ``wrapper(engine, graph, bandwidth, engine_name) -> Engine``.
EngineWrapper = Callable[[Engine, nx.Graph, int, str], Engine]

_WRAPPERS: List[EngineWrapper] = []


@contextlib.contextmanager
def engine_wrapper(wrapper: EngineWrapper) -> Iterator[None]:
    """Decorate every engine :func:`create_engine` returns in this block.

    Where :func:`engine_provider` *replaces* construction (vending a
    prepared kernel), a wrapper *decorates* whatever construction
    produced -- a registry-built or a provider-vended kernel alike.
    This is the seam :mod:`repro.conditions` installs its
    condition-applying proxy through: algorithms keep calling
    ``create_engine`` and receive the wrapped engine, so no kernel and
    no algorithm knows conditions exist.  Wrappers stack (installation
    order, innermost-installed applied last) and, like providers, are
    intentionally not thread-safe.
    """
    _WRAPPERS.append(wrapper)
    try:
        yield
    finally:
        _WRAPPERS.pop()


def _apply_wrappers(engine_obj: Engine, graph: nx.Graph, bandwidth: int, name: str) -> Engine:
    for wrapper in _WRAPPERS:
        engine_obj = wrapper(engine_obj, graph, bandwidth, name)
    return engine_obj


def create_engine(
    graph: nx.Graph,
    bandwidth: int = 1,
    validate: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> Engine:
    """Instantiate the simulation kernel named ``engine`` over ``graph``.

    Args:
        graph: connected undirected weighted :class:`networkx.Graph`.
        bandwidth: the ``b`` of CONGEST(b log n).
        validate: run input validation (disable in tight loops where the
            caller has already validated the graph).
        engine: registered engine name (``"reference"``, ``"fast"`` or
            -- with numpy installed -- ``"array"`` out of the box).

    Raises:
        ConfigurationError: when ``engine`` is not a registered name.
    """
    if _PROVIDERS:
        for provider in reversed(_PROVIDERS):
            provided = provider(graph, bandwidth, engine)
            if provided is not None:
                return _apply_wrappers(provided, graph, bandwidth, engine)
    _ensure_builtin_engines(engine)
    try:
        factory = _REGISTRY[engine]
    except KeyError:
        reason = _UNAVAILABLE.get(engine)
        if reason is not None:
            raise ConfigurationError(
                f"engine {engine!r} is not available: {reason}"
            ) from None
        raise ConfigurationError(
            f"unknown engine {engine!r}; available: {', '.join(available_engines())}"
        ) from None
    built = factory(graph, bandwidth=bandwidth, validate=validate)
    if _WRAPPERS:
        built = _apply_wrappers(built, graph, bandwidth, engine)
    return built
