"""Per-node protocol abstraction and the synchronous round driver.

A :class:`NodeProtocol` describes what every participating vertex does in
each round: an initialisation step (:meth:`NodeProtocol.on_start`) and a
per-round step (:meth:`NodeProtocol.on_round`) that receives the messages
delivered to the vertex at the beginning of the round.  The driver
(:func:`run_protocol`) executes the protocol on a
:class:`~repro.simulator.engine.Engine` (any kernel), advancing the global clock
once per round, until every participant has declared itself finished and
no messages remain in flight.

A participant is *finished* after :meth:`ProtocolApi.finish`, *waiting*
after :meth:`ProtocolApi.wait` (until its next message arrives), and
*awake* otherwise.  Only the protocol's initiators
(:meth:`NodeProtocol.initiators`) run ``on_start``; every other
participant starts waiting.  A round calls ``on_round`` at the awake
participants and at every participant that received mail; a finished or
waiting vertex with an empty inbox is skipped.

Protocols keep their per-vertex variables on the protocol instance,
keyed by vertex, so composed protocols do not interfere with one
another.
"""

from __future__ import annotations

import abc
from collections.abc import Set as AbstractSet
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..exceptions import ConvergenceError, ProtocolError, SimulationError
from ..types import VertexId
from .engine import Engine
from .message import Message
from .node import NodeState


class ProtocolApi:
    """Restricted view of the network handed to protocol callbacks.

    Protocols use it to send messages and to mark vertices as finished
    or waiting; they never touch the kernel's queues or counters directly.
    :meth:`unfinish` refuses a vertex outside the run's ``participants``.
    """

    def __init__(
        self, network: Engine, protocol_name: str, participants: AbstractSet[VertexId]
    ) -> None:
        self._network = network
        self._protocol_name = protocol_name
        self._participants = participants
        self._send = network.send
        self._send_to_neighbors = network.send_to_neighbors
        #: kind -> namespaced kind, so a run formats each kind once
        self._kinds: Dict[str, str] = {}
        self._finished: Set[VertexId] = set()
        #: unfinished vertices that are not waiting for mail
        self._awake: Set[VertexId] = set()

    @property
    def bandwidth(self) -> int:
        """The ``b`` of the CONGEST(b log n) model."""
        return self._network.bandwidth

    def send(
        self,
        sender: VertexId,
        receiver: VertexId,
        kind: str,
        payload: Tuple[Any, ...] = (),
        words: int = 1,
    ) -> None:
        """Send a message from ``sender`` to its neighbour ``receiver``."""
        try:
            namespaced = self._kinds[kind]
        except KeyError:
            namespaced = self._kinds[kind] = f"{self._protocol_name}:{kind}"
        self._send(sender, receiver, namespaced, payload, words)

    def send_to_neighbors(
        self,
        sender: VertexId,
        kind: str,
        payload: Tuple[Any, ...] = (),
        words: int = 1,
        exclude: Optional[VertexId] = None,
    ) -> int:
        """Send one copy of a message to every neighbour of ``sender``.

        Equivalent to calling :meth:`send` once per neighbour in
        sorted-neighbour order (skipping ``exclude``), but the kind is
        namespaced once and array-backed kernels broadcast with a single
        vectorized scatter.  Returns the number of messages queued.
        """
        try:
            namespaced = self._kinds[kind]
        except KeyError:
            namespaced = self._kinds[kind] = f"{self._protocol_name}:{kind}"
        return self._send_to_neighbors(sender, namespaced, payload, words, exclude)

    def node(self, vertex: VertexId) -> NodeState:
        """Local state of ``vertex`` (protocols must only touch the current vertex)."""
        return self._network.node(vertex)

    def finish(self, vertex: VertexId) -> None:
        """Declare that ``vertex`` has completed its part of the protocol.

        Finishing a vertex that is not a participant makes the run raise
        :class:`ProtocolError` when it would otherwise end.
        """
        self._finished.add(vertex)
        self._awake.discard(vertex)

    def unfinish(self, vertex: VertexId) -> None:
        """Re-activate a vertex (used when a new message re-engages it).

        Raises:
            ProtocolError: when ``vertex`` is not a participant, which
                the driver would otherwise call.
        """
        if vertex not in self._participants:
            raise ProtocolError(
                f"protocol {self._protocol_name!r}: unfinish of vertex {vertex}, "
                "which is not a participant"
            )
        self._finished.discard(vertex)
        self._awake.add(vertex)

    def wait(self, vertex: VertexId) -> None:
        """Declare that ``vertex`` has nothing to do until its next message.

        The driver skips the vertex in every round in which it receives
        nothing; the next delivery to it makes it awake again, and it
        waits once more only if it calls this again.  Call it only when
        an ``on_round`` with an empty inbox would do nothing at
        ``vertex``: skipping such a call then changes no send and no
        metric.

        Waiting is not :meth:`finish`: the vertex stays unfinished and
        still holds off termination.  Under a lossy or crash-stop network
        condition the message it waits for may be dropped; a finished
        vertex would let the protocol end early and fail in ``result``,
        where a waiting one keeps the run going to its round limit.
        """
        self._awake.discard(vertex)


class NodeProtocol(abc.ABC):
    """Base class for synchronous per-node protocols.

    Subclasses define ``name`` (used to namespace message kinds), the
    set of participating vertices, the two callbacks, and a
    :meth:`result` extractor that assembles the protocol's output after
    the driver stops.  Per-vertex state lives on the instance, keyed by
    vertex.

    A subclass may narrow :meth:`initiators` to the participants whose
    ``on_start`` does more than call :meth:`ProtocolApi.wait`; the driver
    then starts only those and lets every other participant wait for
    mail.  ``on_start`` must still be correct at every participant: the
    schedule that starts them all is the reference the narrowed one is
    tested against.
    """

    #: short identifier; must be unique among concurrently-run protocols
    name: str = "protocol"

    def __init__(self, participants: Iterable[VertexId]) -> None:
        self.participants: Tuple[VertexId, ...] = tuple(sorted(set(participants)))
        if not self.participants:
            raise ProtocolError(f"{type(self).__name__} needs at least one participant")

    def max_rounds_hint(self, network: Engine) -> int:
        """Upper bound on rounds; exceeding it raises :class:`ConvergenceError`.

        The default is intentionally generous (it exists to catch
        non-terminating protocol bugs, not to enforce the theorems; the
        theorem bounds are checked separately by the verification layer).
        """
        return 20 * (network.n + network.m) + 100

    def initiators(self) -> Iterable[VertexId]:
        """Participants at which the driver calls :meth:`on_start`.

        The default is every participant.  Narrow it only to a set that
        contains every participant whose ``on_start`` would send, finish,
        or change state: each participant left out starts waiting, which
        is what an ``on_start`` that only calls :meth:`ProtocolApi.wait`
        would leave behind.
        """
        return self.participants

    @abc.abstractmethod
    def on_start(self, vertex: VertexId, node: NodeState, api: ProtocolApi) -> None:
        """Initialisation before the first round (may send messages)."""

    @abc.abstractmethod
    def on_round(
        self, vertex: VertexId, node: NodeState, api: ProtocolApi, inbox: List[Message]
    ) -> None:
        """One synchronous round at ``vertex`` with the freshly delivered ``inbox``."""

    @abc.abstractmethod
    def result(self, network: Engine) -> Any:
        """Assemble the protocol output after termination."""


def run_protocol(
    network: Engine,
    protocol: NodeProtocol,
    max_rounds: Optional[int] = None,
) -> Any:
    """Execute ``protocol`` on ``network`` until quiescence and return its result.

    Termination condition: every participant has called
    :meth:`ProtocolApi.finish` *and* no messages are in flight.  Each
    delivered batch of messages advances the global round clock by one,
    so the rounds charged to the enclosing execution are exactly the
    rounds this protocol used.

    Beyond one set of the participants, a run's work follows its
    initiators, its messages and the vertices it calls, not participants
    x rounds.  ``on_start`` runs only at :meth:`NodeProtocol.initiators`,
    in sorted order; every other participant starts waiting.  A round
    calls ``on_round`` only at the awake participants and at those that
    received mail, in sorted order, which is what keeps message emission
    -- and therefore every reported metric -- deterministic.  A round in
    which no participant is awake calls only its recipients and skips
    the awake-set union; a quiet one calls nobody.  The driver keeps no
    other per-participant state: it looks a vertex's
    :class:`~repro.simulator.node.NodeState` up through
    :meth:`~repro.simulator.engine.Engine.node_lookup` when it calls it.
    The clock still advances one round at a time, quiet rounds included.

    Raises:
        SimulationError: before round 1, when a participant is not a
            vertex of ``network``.
        ProtocolError: before round 1, when an initiator is not a
            participant; when a callback unfinishes a vertex that is not
            a participant; and when the run would end with a
            non-participant among the finished vertices.
        ConvergenceError: when the run exceeds its round limit.
    """
    if max_rounds is not None:
        limit = max_rounds
    else:
        # Condition-applying proxies advertise a round_limit_stretch so
        # the convergence guard scales with the injected asynchrony
        # (deferred/retransmitted traffic legitimately needs more
        # rounds); explicit caller limits are never stretched.
        stretch = int(getattr(network, "round_limit_stretch", 1) or 1)
        limit = protocol.max_rounds_hint(network) * max(stretch, 1)
    # A set, not a frozenset: ``inboxes.keys() & participants`` walks only
    # the inboxes when the right operand is an exact set, but the whole
    # participant set when it is a frozenset.
    participants = set(protocol.participants)
    vertices = network.vertices()
    if not isinstance(vertices, AbstractSet):
        vertices = set(vertices)
    if not participants <= vertices:
        # Checked up front: a waiting participant is never looked up, so
        # a bad one would otherwise surface only at the round limit.
        unknown = min(vertex for vertex in participants if vertex not in vertices)
        raise SimulationError(f"unknown vertex {unknown}")
    initiators = sorted(protocol.initiators())
    if not participants.issuperset(initiators):
        stray = next(vertex for vertex in initiators if vertex not in participants)
        raise ProtocolError(
            f"protocol {protocol.name!r}: initiator {stray} is not a participant"
        )
    api = ProtocolApi(network, protocol.name, participants)
    total = len(participants)
    finished = api._finished
    awake = api._awake
    awake.update(initiators)
    node = network.node_lookup()
    on_start = protocol.on_start
    on_round = protocol.on_round
    # Bound methods resolved once per protocol, not once per round: the
    # attribute walks (instance dict / slots, then class) are pure
    # overhead inside the hottest loop of every simulation.
    deliver_round = network.deliver_round
    pending_count = network.pending_count

    for vertex in initiators:
        on_start(vertex, node(vertex), api)

    rounds_used = 0
    while True:
        if len(finished) >= total and pending_count() == 0:
            # Once per clean run: a finished non-participant would have
            # counted towards the total in place of a participant.
            if finished <= participants:
                break
            raise ProtocolError(
                f"protocol {protocol.name!r}: vertex {min(finished - participants)} "
                "finished, but it is not a participant"
            )
        if rounds_used >= limit:
            error = ConvergenceError(
                f"protocol {protocol.name!r} did not terminate within {limit} rounds "
                f"({len(finished)}/{total} vertices finished, "
                f"{pending_count()} messages pending)"
            )
            error.rounds_limit = limit
            error.finished_participants = len(finished)
            error.pending_messages = pending_count()
            raise error
        inboxes = deliver_round()
        rounds_used += 1
        if not awake:
            # Only this round's recipients act (a quiet round calls
            # nobody): the same visits, in the same order, as below.
            if inboxes:
                recipients = inboxes.keys() & participants
                awake |= recipients - finished
                for vertex in sorted(recipients):
                    on_round(vertex, node(vertex), api, inboxes[vertex])
            continue
        get_inbox = inboxes.get
        # Mail wakes a waiting recipient; a finished one is visited in
        # this round only.  Mail to non-participants is never read.
        recipients = inboxes.keys() & participants
        awake |= recipients - finished
        for vertex in sorted(awake | recipients):
            inbox = get_inbox(vertex)
            # A fresh empty list per quiet vertex: a shared sentinel
            # would let a mutating protocol poison every later round.
            on_round(vertex, node(vertex), api, [] if inbox is None else inbox)

    return protocol.result(network)
