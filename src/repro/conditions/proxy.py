"""The condition-applying engine proxy and its installation scope.

:class:`ConditionedEngine` wraps any :class:`~repro.simulator.engine.Engine`
(reference, ``fast``, ``array``, or a provider-vended kernel) and applies a
:class:`~repro.conditions.spec.NetworkCondition` to the traffic.  The
design constraints, in order:

* **No kernel rewrites.**  Sends pass through untouched -- bandwidth
  enforcement, charging and validation stay the inner kernel's job.
  Conditions act on the *delivery side*: the proxy intercepts
  :meth:`deliver_round` output and decides, per message, whether it is
  delivered now, deferred, or dropped.
* **Determinism.**  Every fate is a pure function of the fault seed and
  a per-message sequence number (assigned in the engines' shared
  deterministic delivery order), computed by counter-based sha256
  hashing -- no RNG state.  Identical ``(instance, condition, seed)``
  therefore replays byte-identically on every kernel and in every
  executor mode.
* **Honest accounting.**  A dropped message was still transmitted (the
  inner kernel charged it at delivery); link-layer retransmissions
  charge one extra message each through the shared
  :class:`~repro.simulator.metrics.Metrics` and add one round of
  latency, but are *not* re-pushed through :meth:`send` -- they model
  the link retrying below the bandwidth scheduler, and re-injecting
  them would falsely trip the per-round bandwidth cap of rounds the
  algorithm already filled.
* **No hangs.**  Deferred messages count as pending (so protocol
  drivers keep driving rounds while the adversary holds traffic), and a
  global round cap converts livelock into a typed
  :class:`~repro.exceptions.NonTerminationError`.

Delivery-order contract under conditions: messages the condition
*released* (deferred earlier, due now) are delivered before the round's
fresh survivors, each group in original send order; receivers appear in
first-delivered-message order.  This refines -- deterministically --
the unconditioned contract instead of replacing it.
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..exceptions import ConfigurationError, NonTerminationError
from ..simulator.engine import Engine, engine_wrapper
from ..simulator.message import Message
from ..types import CostReport, normalize_edge, VertexId
from .spec import NetworkCondition

__all__ = [
    "ConditionedEngine",
    "ConditionScope",
    "condition_scope",
    "require_condition_applied",
]

#: 2^64, the denominator turning an 8-byte hash prefix into a uniform [0, 1).
_HASH_DENOMINATOR = float(1 << 64)

#: The fault counters each :class:`ConditionedEngine` keeps and
#: :meth:`ConditionScope.telemetry` sums, in the order rows report them.
_TELEMETRY_COUNTERS = (
    "delivered",
    "dropped",
    "delayed",
    "retransmits",
    "crash_omissions",
    "adversary_dropped",
    "adversary_delayed",
)


class ConditionedEngine(Engine):
    """Condition-applying proxy around an inner simulation kernel.

    Shares the inner kernel's ``graph``, ``bandwidth`` and ``metrics``
    (so cost accounting and the shared :class:`Engine` helpers read the
    same counters) and delegates the full send-side contract.  All
    condition logic lives in :meth:`deliver_round`.
    """

    def __init__(
        self,
        inner: Engine,
        condition: NetworkCondition,
        run_seed: Optional[int] = None,
    ) -> None:
        self._inner = inner
        self.condition = condition
        self.graph = inner.graph
        self.bandwidth = inner.bandwidth
        self.metrics = inner.metrics
        self._fault_seed = f"{condition.seed}|{'' if run_seed is None else run_seed}"
        self._seq = 0
        #: deferred messages as (due_round, seq, Message copy)
        self._held: List[Tuple[int, int, Message]] = []
        #: per-directed-edge FIFO front: the latest delivery round already
        #: scheduled on that link.  Conditioned links stay FIFO -- a
        #: delayed message blocks later traffic on the same edge from
        #: overtaking it -- because the protocols (pipelined convergecast
        #: in particular) are specified over FIFO CONGEST links.
        self._edge_front: Dict[Tuple[VertexId, VertexId], int] = {}
        self._round_cap = condition.effective_round_cap(inner.n, inner.m)
        #: protocol drivers multiply their round limits by this factor
        self.round_limit_stretch = condition.round_stretch
        self.telemetry: Dict[str, int] = dict.fromkeys(_TELEMETRY_COUNTERS, 0)
        self._crash_windows = self._resolve_crash_windows()
        self._heavy_edges = self._resolve_heavy_edges()
        # Send-side calls are pure delegation under every condition --
        # injection is delivery-side -- so bind the inner kernel's bound
        # methods as instance attributes: the protocols' hot loops skip
        # the proxy frame entirely.  (The class-level defs below remain
        # because the Engine contract declares them abstract.)
        self.send = inner.send
        self.send_to_neighbors = inner.send_to_neighbors
        self.has_edge = inner.has_edge
        self.node = inner.node
        self.node_lookup = inner.node_lookup
        self.vertices = inner.vertices
        self.sorted_edges = inner.sorted_edges
        if condition.is_noop() and condition.round_cap is None:
            # Pure pass-through: no model ever touches a message and the
            # default cap sits far above the protocols' own (stretched)
            # round limits, so the delivery side delegates wholesale too
            # -- a no-op condition costs one extra attribute hop, not a
            # Python frame per round.
            self.deliver_round = inner.deliver_round
            self.pending_count = inner.pending_count

    # -- deterministic hashing -------------------------------------------

    def _uniform(self, *parts: object) -> float:
        """Counter-based uniform draw in [0, 1): pure function of the key."""
        key = self._fault_seed + "|" + "|".join(str(part) for part in parts)
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / _HASH_DENOMINATOR

    # -- model resolution (once per engine) ------------------------------

    def _resolve_crash_windows(self) -> Dict[VertexId, List[Tuple[int, Optional[int]]]]:
        model = self.condition.crash
        if model is None:
            return {}
        windows: Dict[VertexId, List[Tuple[int, Optional[int]]]] = {}
        vertices = set(self._inner.vertices())
        for vertex, start, end in model.schedule:
            if vertex in vertices:
                windows.setdefault(vertex, []).append((start, end))
        if model.rate > 0.0:
            for vertex in sorted(vertices):
                if self._uniform("crash", vertex) >= model.rate:
                    continue
                start = 1 + int(self._uniform("crash-at", vertex) * model.within)
                end = None if model.downtime is None else start + model.downtime
                windows.setdefault(vertex, []).append((start, end))
        return windows

    def _resolve_heavy_edges(self) -> frozenset:
        model = self.condition.adversary
        if model is None or model.heaviest_edges == 0:
            return frozenset()
        # The unique-MST total order (weight, u, v), heaviest first: the
        # edges fragment merging settles last are exactly the targets.
        heaviest = sorted(self._inner.sorted_edges(), reverse=True)
        return frozenset((u, v) for _, u, v in heaviest[: model.heaviest_edges])

    def _is_crashed(self, vertex: VertexId, round_number: int) -> bool:
        for start, end in self._crash_windows.get(vertex, ()):
            if start <= round_number and (end is None or round_number < end):
                return True
        return False

    # -- per-message fate -------------------------------------------------

    def _fate(self, message: Any, now: int, seq: int) -> Optional[int]:
        """Decide a message's fate: ``None`` = dropped, else extra delay rounds."""
        condition = self.condition
        telemetry = self.telemetry
        delay = 0
        if self._crash_windows:
            # Omission window: traffic the crashed vertex sent while
            # down, and traffic arriving while it is down, is lost.
            if self._is_crashed(message.sender, message.sent_in_round) or self._is_crashed(
                message.receiver, now
            ):
                telemetry["crash_omissions"] += 1
                telemetry["dropped"] += 1
                return None
        adversary = condition.adversary
        if adversary is not None:
            if (
                self._heavy_edges
                and normalize_edge(message.sender, message.receiver) in self._heavy_edges
            ):
                telemetry["adversary_delayed"] += 1
                delay += adversary.heavy_delay
            if adversary.drop_kind and adversary.drop_kind in message.kind:
                if (
                    adversary.drop_rate >= 1.0
                    or self._uniform("adrop", seq) < adversary.drop_rate
                ):
                    telemetry["adversary_dropped"] += 1
                    telemetry["dropped"] += 1
                    return None
        loss = condition.loss
        if loss is not None and loss.rate > 0.0:
            failures = 0
            while failures <= loss.retransmit:
                if self._uniform("loss", seq, failures) >= loss.rate:
                    break
                failures += 1
            if failures > loss.retransmit:
                # Every attempt lost; the retries still happened on the
                # wire and are charged like the successful-retry case.
                telemetry["retransmits"] += loss.retransmit
                for _ in range(loss.retransmit):
                    self.metrics.record_message(message.kind, message.words)
                telemetry["dropped"] += 1
                return None
            if failures:
                telemetry["retransmits"] += failures
                for _ in range(failures):
                    self.metrics.record_message(message.kind, message.words)
                delay += failures
        delay_model = condition.delay
        if delay_model is not None:
            if delay_model.rate >= 1.0 or self._uniform("delay", seq) < delay_model.rate:
                drawn = 1 + int(
                    self._uniform("delay-amount", seq) * delay_model.max_delay
                )
                # The draw is uniform over 1..max_delay; the boundary
                # u = 1.0 is unreachable, so drawn <= max_delay holds.
                delay += drawn
        return delay

    @staticmethod
    def _copy_message(message: Any) -> Message:
        """Engine-agnostic copy for deferral (array inboxes are ephemeral)."""
        return Message(
            sender=message.sender,
            receiver=message.receiver,
            kind=message.kind,
            payload=tuple(message.payload),
            words=message.words,
            sent_in_round=message.sent_in_round,
        )

    # -- kernel contract ---------------------------------------------------

    def vertices(self):
        return self._inner.vertices()

    def node(self, vertex: VertexId):
        return self._inner.node(vertex)

    def send(
        self,
        sender: VertexId,
        receiver: VertexId,
        kind: str,
        payload: Tuple[Any, ...] = (),
        words: int = 1,
    ) -> None:
        self._inner.send(sender, receiver, kind, payload, words)

    def pending_count(self) -> int:
        # Held messages are in flight: protocol drivers must keep
        # driving rounds while the condition holds traffic back.
        return self._inner.pending_count() + len(self._held)

    def deliver_round(self) -> Dict[VertexId, List[Any]]:
        if self.metrics.rounds >= self._round_cap:
            raise NonTerminationError(
                f"run exceeded the network-condition round cap {self._round_cap} "
                f"(condition {self.condition.label()!r}); the schedule prevents "
                "termination",
                round_cap=self._round_cap,
                rounds=self.metrics.rounds,
                messages=self.metrics.messages,
                words=self.metrics.words,
            )
        raw = self._inner.deliver_round()
        if self.condition.is_noop():
            return raw
        now = self.metrics.rounds
        delivered: List[Any] = []
        if self._held:
            due = [entry for entry in self._held if entry[0] <= now]
            if due:
                self._held = [entry for entry in self._held if entry[0] > now]
                due.sort(key=lambda entry: (entry[0], entry[1]))
                delivered.extend(message for _, _, message in due)
        edge_front = self._edge_front
        for inbox in raw.values():
            for message in inbox:
                seq = self._seq
                self._seq += 1
                fate = self._fate(message, now, seq)
                if fate is None:
                    continue
                due = now + fate
                edge = (message.sender, message.receiver)
                front = edge_front.get(edge)
                if front is not None and due < front:
                    due = front  # FIFO links: no overtaking on an edge
                edge_front[edge] = due
                if due <= now:
                    delivered.append(message)
                else:
                    self.telemetry["delayed"] += 1
                    self._held.append((due, seq, self._copy_message(message)))
        inboxes: Dict[VertexId, List[Any]] = {}
        for message in delivered:
            inboxes.setdefault(message.receiver, []).append(message)
        self.telemetry["delivered"] += len(delivered)
        return inboxes


class ConditionScope:
    """Everything one :func:`condition_scope` installation observed."""

    def __init__(self, condition: NetworkCondition) -> None:
        self.condition = condition
        self.engines: List[ConditionedEngine] = []

    def cost(self) -> CostReport:
        """Aggregate cost across every engine wrapped in this scope."""
        total = CostReport()
        for engine in self.engines:
            total = total + engine.metrics.as_report()
        return total

    def telemetry(self) -> Dict[str, object]:
        """JSON-safe observed-fault telemetry for result details / rows."""
        counters: Dict[str, int] = dict.fromkeys(_TELEMETRY_COUNTERS, 0)
        crash_events = 0
        for engine in self.engines:
            for key in counters:
                counters[key] += engine.telemetry[key]
            crash_events += sum(
                len(windows) for windows in engine._crash_windows.values()
            )
        payload: Dict[str, object] = {
            "condition": self.condition.label(),
            "condition_key": self.condition.key(),
            "engines_wrapped": len(self.engines),
            "crash_events": crash_events,
        }
        payload.update(counters)
        return payload


@contextlib.contextmanager
def condition_scope(
    condition: NetworkCondition, run_seed: Optional[int] = None
) -> Iterator[ConditionScope]:
    """Wrap every engine created in this block in a :class:`ConditionedEngine`.

    Installed by :func:`repro.algorithms.run_algorithm` when the run's
    config carries a condition; rides the generic
    :func:`~repro.simulator.engine.engine_wrapper` seam, so provider-
    vended engines are wrapped exactly like registry-built ones.  Yields
    a :class:`ConditionScope` that collects the wrapped engines and
    aggregates their fault telemetry.
    """
    scope = ConditionScope(condition)

    def wrapper(engine: Engine, graph, bandwidth: int, name: str) -> Engine:
        wrapped = ConditionedEngine(engine, condition, run_seed=run_seed)
        scope.engines.append(wrapped)
        return wrapped

    with engine_wrapper(wrapper):
        yield scope


def require_condition_applied(
    engine: Engine, condition: Optional[NetworkCondition]
) -> None:
    """Raise :class:`ConfigurationError` unless ``engine`` applies ``condition``.

    A runner that builds a kernel calls this before round 1.  Only
    :func:`condition_scope` wraps a kernel in a :class:`ConditionedEngine`,
    and only :func:`repro.algorithms.run_algorithm` installs it, so a
    runner called directly with ``RunConfig(condition=...)`` would
    otherwise run on a clean network and report clean costs.
    """
    if condition is None or isinstance(engine, ConditionedEngine):
        return
    raise ConfigurationError(
        f"condition {condition.label()!r} is set, but a runner called directly "
        "runs on a clean network; run it through run_single(graph, algorithm=..., "
        "condition=...) or Runner().run(Scenario(..., config=RunConfig(condition=...))), "
        "which apply the condition"
    )
