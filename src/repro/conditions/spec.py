"""Declarative network-condition specs: composable, frozen, content-hashed.

A :class:`NetworkCondition` describes how the network misbehaves during
one run: which messages are lost (:class:`LossModel`), deferred
(:class:`DelayModel`), omitted because an endpoint is down
(:class:`CrashModel`) or targeted by an adversary
(:class:`AdversarialModel`).  Like a
:class:`~repro.campaign.spec.RunSpec`, a condition is pure data -- it
hashes (:meth:`NetworkCondition.key`), serializes
(:meth:`NetworkCondition.to_json_dict`) and round-trips, so a condition
can ride inside run specs, run stores and worker payloads unchanged.

Every model is *deterministic*: fates are decided by counter-based
hashing over ``(condition seed, run seed, message sequence number)``
in :mod:`repro.conditions.proxy`, never by a stateful RNG, so an
identical ``(RunSpec, condition, seed)`` replays byte-identically on
every engine and in every executor mode.

This module is deliberately a leaf (it imports only the exception
hierarchy): the campaign layer imports it to put conditions inside run
specs, so it cannot import the campaign layer back.  The content-hash
helper is therefore a local twin of
:func:`repro.campaign.spec.content_hash` (same canonical-JSON sha256
construction).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ..exceptions import ConfigurationError

__all__ = [
    "LossModel",
    "DelayModel",
    "CrashModel",
    "AdversarialModel",
    "NetworkCondition",
    "CONDITION_PRESETS",
    "available_conditions",
    "parse_condition",
    "normalize_condition",
]


def _condition_hash(payload: object) -> str:
    """16-hex content hash over canonical JSON (mirrors campaign.spec)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _require(check: bool, message: str) -> None:
    if not check:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class LossModel:
    """Per-message Bernoulli loss with optional bounded retransmission.

    Attributes:
        rate: probability a transmission attempt is lost (``0 <= rate < 1``).
        retransmit: bounded link-layer retries per message.  Each failed
            attempt costs one extra round of latency and one extra
            charged message; a message whose ``retransmit + 1`` attempts
            all fail is dropped permanently.
    """

    rate: float
    retransmit: int = 0

    def __post_init__(self) -> None:
        _require(
            isinstance(self.rate, (int, float)) and 0.0 <= float(self.rate) < 1.0,
            f"loss rate must be in [0, 1), got {self.rate!r}",
        )
        _require(
            isinstance(self.retransmit, int)
            and not isinstance(self.retransmit, bool)
            and self.retransmit >= 0,
            f"retransmit must be a non-negative int, got {self.retransmit!r}",
        )
        object.__setattr__(self, "rate", float(self.rate))


@dataclass(frozen=True)
class DelayModel:
    """Bounded asynchrony: defer a fraction of messages by 1..max_delay rounds.

    Attributes:
        max_delay: largest deferral in rounds (``>= 1``).
        rate: fraction of messages subject to a delay draw.
    """

    max_delay: int
    rate: float = 1.0

    def __post_init__(self) -> None:
        _require(
            isinstance(self.max_delay, int)
            and not isinstance(self.max_delay, bool)
            and self.max_delay >= 1,
            f"max_delay must be an int >= 1, got {self.max_delay!r}",
        )
        _require(
            isinstance(self.rate, (int, float)) and 0.0 < float(self.rate) <= 1.0,
            f"delay rate must be in (0, 1], got {self.rate!r}",
        )
        object.__setattr__(self, "rate", float(self.rate))


@dataclass(frozen=True)
class CrashModel:
    """Node crash / crash-restart schedules, explicit or generated.

    A crashed vertex is modelled as a network-layer omission window:
    messages it sent while down and messages arriving while it is down
    are dropped.  (The simulator is centralized, so local computation is
    not suspended -- the observable effect of a crash in a
    message-passing model is exactly the omitted traffic.)

    Attributes:
        schedule: explicit events ``(vertex, start_round, end_round)``;
            ``end_round = None`` means crash-stop (never restarts), and
            the window covers rounds ``start_round <= r < end_round``.
        rate: generated schedules -- per-vertex crash probability
            (decided by the deterministic hash, per vertex).
        within: generated crashes start in rounds ``[1, within]``.
        downtime: generated crash duration in rounds; ``None`` = crash-stop.
    """

    schedule: Tuple[Tuple[int, int, Optional[int]], ...] = ()
    rate: float = 0.0
    within: int = 32
    downtime: Optional[int] = None

    def __post_init__(self) -> None:
        normalized = []
        for event in self.schedule:
            _require(
                len(tuple(event)) == 3,
                f"crash events are (vertex, start, end) triples, got {event!r}",
            )
            vertex, start, end = event
            _require(
                isinstance(vertex, int) and isinstance(start, int) and start >= 1,
                f"crash event needs an int vertex and start round >= 1, got {event!r}",
            )
            _require(
                end is None or (isinstance(end, int) and end > start),
                f"crash end round must be None or > start, got {event!r}",
            )
            normalized.append((vertex, start, end))
        object.__setattr__(self, "schedule", tuple(normalized))
        _require(
            isinstance(self.rate, (int, float)) and 0.0 <= float(self.rate) <= 1.0,
            f"crash rate must be in [0, 1], got {self.rate!r}",
        )
        _require(
            isinstance(self.within, int) and self.within >= 1,
            f"crash window 'within' must be an int >= 1, got {self.within!r}",
        )
        _require(
            self.downtime is None or (isinstance(self.downtime, int) and self.downtime >= 1),
            f"crash downtime must be None or an int >= 1, got {self.downtime!r}",
        )
        object.__setattr__(self, "rate", float(self.rate))


@dataclass(frozen=True)
class AdversarialModel:
    """Structure-aware schedules targeting specific edges or traffic kinds.

    Attributes:
        heaviest_edges: delay every message crossing the ``K`` heaviest
            edges of the instance (the edges fragment merging fights
            over last).
        heavy_delay: rounds of extra latency on those edges.
        drop_kind: drop messages whose kind contains this substring
            (e.g. convergecast/upcast traffic near the root).
        drop_rate: probability such a message is dropped.
    """

    heaviest_edges: int = 0
    heavy_delay: int = 0
    drop_kind: str = ""
    drop_rate: float = 1.0

    def __post_init__(self) -> None:
        _require(
            isinstance(self.heaviest_edges, int) and self.heaviest_edges >= 0,
            f"heaviest_edges must be a non-negative int, got {self.heaviest_edges!r}",
        )
        _require(
            isinstance(self.heavy_delay, int) and self.heavy_delay >= 0,
            f"heavy_delay must be a non-negative int, got {self.heavy_delay!r}",
        )
        _require(
            self.heaviest_edges == 0 or self.heavy_delay >= 1,
            "heaviest_edges without heavy_delay has no effect; set heavy_delay >= 1",
        )
        _require(
            isinstance(self.drop_kind, str),
            f"drop_kind must be a string, got {self.drop_kind!r}",
        )
        _require(
            isinstance(self.drop_rate, (int, float)) and 0.0 < float(self.drop_rate) <= 1.0,
            f"drop_rate must be in (0, 1], got {self.drop_rate!r}",
        )
        object.__setattr__(self, "drop_rate", float(self.drop_rate))


@dataclass(frozen=True)
class NetworkCondition:
    """One fully-specified fault & asynchrony schedule for a run.

    Composes the four independent models; a model left at ``None`` is
    inactive.  ``name`` is presentation-only (like a
    :class:`~repro.campaign.spec.RunSpec` label): it is excluded from
    the identity hash, so naming a condition never invalidates stored
    runs that used the same schedule.

    Attributes:
        seed: fault seed, mixed with the run's generator seed into the
            deterministic per-message hash.
        loss / delay / crash / adversary: the component models.
        round_stretch: factor applied to protocol round limits (and to
            the Theorem bound audit in degradation mode) -- degraded
            runs legitimately take longer, and the stock limits would
            misreport them as non-terminating.
        round_cap: explicit global round cap for the whole run; ``None``
            derives ``round_stretch * (200 * (n + m) + 1000)`` from the
            instance.  Reaching the cap raises
            :class:`~repro.exceptions.NonTerminationError`.
    """

    seed: int = 0
    loss: Optional[LossModel] = None
    delay: Optional[DelayModel] = None
    crash: Optional[CrashModel] = None
    adversary: Optional[AdversarialModel] = None
    round_stretch: int = 4
    round_cap: Optional[int] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0,
            f"condition seed must be a non-negative int, got {self.seed!r}",
        )
        _require(
            isinstance(self.round_stretch, int) and self.round_stretch >= 1,
            f"round_stretch must be an int >= 1, got {self.round_stretch!r}",
        )
        _require(
            self.round_cap is None
            or (isinstance(self.round_cap, int) and self.round_cap >= 1),
            f"round_cap must be None or an int >= 1, got {self.round_cap!r}",
        )

    # -- behaviour queries ------------------------------------------------

    def is_noop(self) -> bool:
        """True when no model is active (a pure pass-through wrapper)."""
        return (
            self.loss is None
            and self.delay is None
            and self.crash is None
            and self.adversary is None
        )

    def effective_round_cap(self, n: int, m: int) -> int:
        """The global round cap for an ``(n, m)`` instance."""
        if self.round_cap is not None:
            return self.round_cap
        return self.round_stretch * (200 * (n + m) + 1000)

    def time_stretch(self) -> float:
        """Round-bound relaxation factor for the degradation audit."""
        return float(self.round_stretch)

    def message_stretch(self) -> float:
        """Message-bound relaxation factor (each message may be re-sent)."""
        if self.loss is None:
            return 1.0
        return 1.0 + self.loss.retransmit

    # -- identity & serialization ----------------------------------------

    def identity(self) -> Dict[str, object]:
        """JSON-safe identity payload (``name`` deliberately excluded)."""
        payload: Dict[str, object] = {"seed": self.seed}
        if self.loss is not None:
            payload["loss"] = {"rate": self.loss.rate, "retransmit": self.loss.retransmit}
        if self.delay is not None:
            payload["delay"] = {"max_delay": self.delay.max_delay, "rate": self.delay.rate}
        if self.crash is not None:
            payload["crash"] = {
                "schedule": [list(event) for event in self.crash.schedule],
                "rate": self.crash.rate,
                "within": self.crash.within,
                "downtime": self.crash.downtime,
            }
        if self.adversary is not None:
            payload["adversary"] = {
                "heaviest_edges": self.adversary.heaviest_edges,
                "heavy_delay": self.adversary.heavy_delay,
                "drop_kind": self.adversary.drop_kind,
                "drop_rate": self.adversary.drop_rate,
            }
        if self.round_stretch != 4:
            payload["round_stretch"] = self.round_stretch
        if self.round_cap is not None:
            payload["round_cap"] = self.round_cap
        return payload

    def key(self) -> str:
        """Content hash identifying this schedule (``name``-independent)."""
        return _condition_hash(self.identity())

    def label(self) -> str:
        """Presentation label: the name when given, else the compact form."""
        return self.name or self.describe()

    def describe(self) -> str:
        """Compact clause form (re-parseable by :func:`parse_condition`)."""
        clauses = []
        if self.loss is not None:
            clause = f"loss(rate={self.loss.rate:g}"
            if self.loss.retransmit:
                clause += f",retransmit={self.loss.retransmit}"
            clauses.append(clause + ")")
        if self.delay is not None:
            clause = f"delay(max={self.delay.max_delay}"
            if self.delay.rate != 1.0:
                clause += f",rate={self.delay.rate:g}"
            clauses.append(clause + ")")
        if self.crash is not None:
            for vertex, start, end in self.crash.schedule:
                clause = f"crash(v={vertex},at={start}"
                if end is not None:
                    clause += f",down={end - start}"
                clauses.append(clause + ")")
            if self.crash.rate:
                clause = f"crash(rate={self.crash.rate:g},within={self.crash.within}"
                if self.crash.downtime is not None:
                    clause += f",down={self.crash.downtime}"
                clauses.append(clause + ")")
        if self.adversary is not None:
            parts = []
            if self.adversary.heaviest_edges:
                parts.append(f"heavy={self.adversary.heaviest_edges}")
                parts.append(f"delay={self.adversary.heavy_delay}")
            if self.adversary.drop_kind:
                parts.append(f"drop={self.adversary.drop_kind}")
                if self.adversary.drop_rate != 1.0:
                    parts.append(f"rate={self.adversary.drop_rate:g}")
            clauses.append(f"adversary({','.join(parts)})")
        if self.seed:
            clauses.append(f"seed={self.seed}")
        if self.round_stretch != 4:
            clauses.append(f"stretch={self.round_stretch}")
        if self.round_cap is not None:
            clauses.append(f"cap={self.round_cap}")
        return "+".join(clauses) if clauses else "passthrough"

    def to_json_dict(self) -> Dict[str, object]:
        payload = self.identity()
        # Serialization carries presentation and explicit defaults the
        # identity omits, so round-trips are exact.
        payload["round_stretch"] = self.round_stretch
        if self.name is not None:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "NetworkCondition":
        loss = payload.get("loss")
        delay = payload.get("delay")
        crash = payload.get("crash")
        adversary = payload.get("adversary")
        return cls(
            seed=int(payload.get("seed", 0)),
            loss=None
            if loss is None
            else LossModel(
                rate=float(loss["rate"]), retransmit=int(loss.get("retransmit", 0))
            ),
            delay=None
            if delay is None
            else DelayModel(
                max_delay=int(delay["max_delay"]), rate=float(delay.get("rate", 1.0))
            ),
            crash=None
            if crash is None
            else CrashModel(
                schedule=tuple(
                    (int(v), int(start), None if end is None else int(end))
                    for v, start, end in crash.get("schedule", ())
                ),
                rate=float(crash.get("rate", 0.0)),
                within=int(crash.get("within", 32)),
                downtime=(
                    None if crash.get("downtime") is None else int(crash["downtime"])
                ),
            ),
            adversary=None
            if adversary is None
            else AdversarialModel(
                heaviest_edges=int(adversary.get("heaviest_edges", 0)),
                heavy_delay=int(adversary.get("heavy_delay", 0)),
                drop_kind=str(adversary.get("drop_kind", "")),
                drop_rate=float(adversary.get("drop_rate", 1.0)),
            ),
            round_stretch=int(payload.get("round_stretch", 4)),
            round_cap=(
                None if payload.get("round_cap") is None else int(payload["round_cap"])
            ),
            name=payload.get("name"),
        )


# -- named presets --------------------------------------------------------

#: Named conditions accepted everywhere a condition is (CLI ``--condition``,
#: :class:`~repro.config.RunConfig`, :class:`~repro.campaign.spec.RunSpec`).
#: The eventual-delivery presets (loss with generous retransmit, bounded
#: delay) keep every algorithm terminating and oracle-correct; the crash
#: presets exercise the :class:`~repro.exceptions.NonTerminationError`
#: path on purpose.
CONDITION_PRESETS: Dict[str, NetworkCondition] = {
    "lossy": NetworkCondition(name="lossy", loss=LossModel(rate=0.05, retransmit=8)),
    "flaky": NetworkCondition(name="flaky", loss=LossModel(rate=0.15, retransmit=10)),
    "delayed": NetworkCondition(name="delayed", delay=DelayModel(max_delay=3)),
    "jittery": NetworkCondition(
        name="jittery",
        loss=LossModel(rate=0.05, retransmit=8),
        delay=DelayModel(max_delay=2, rate=0.5),
    ),
    "heavy-delay": NetworkCondition(
        name="heavy-delay",
        adversary=AdversarialModel(heaviest_edges=4, heavy_delay=3),
    ),
    "crash-stop": NetworkCondition(
        name="crash-stop",
        crash=CrashModel(schedule=((0, 5, None),)),
        round_stretch=1,
    ),
    "crash-restart": NetworkCondition(
        name="crash-restart",
        crash=CrashModel(schedule=((0, 5, 9), (1, 8, 12))),
    ),
}


def available_conditions() -> Tuple[str, ...]:
    """Sorted preset names accepted by :func:`parse_condition`."""
    return tuple(sorted(CONDITION_PRESETS))


_CLAUSE = re.compile(r"^(?P<model>[a-z]+)\((?P<args>[^)]*)\)$")
_SCALAR = re.compile(r"^(?P<key>seed|stretch|cap)=(?P<value>-?\d+)$")


def _parse_args(model: str, text: str) -> Dict[str, str]:
    args: Dict[str, str] = {}
    for part in filter(None, (piece.strip() for piece in text.split(","))):
        if "=" not in part:
            raise ConfigurationError(
                f"malformed {model} argument {part!r}; expected key=value"
            )
        key, value = part.split("=", 1)
        args[key.strip()] = value.strip()
    return args


def _number(
    model: str,
    args: Dict[str, str],
    key: str,
    cast: Callable[[str], object],
    default: object,
) -> object:
    if key not in args:
        return default
    try:
        return cast(args.pop(key))
    except ValueError:
        raise ConfigurationError(
            f"{model} argument {key!r} must be a {getattr(cast, '__name__', 'number')}"
        ) from None


def parse_condition(text: str) -> NetworkCondition:
    """Parse a condition from a preset name or the compact clause syntax.

    Preset names (see :data:`CONDITION_PRESETS`) resolve directly:
    ``parse_condition("lossy")``.  Otherwise the text is ``+``-separated
    clauses, one per model, plus scalar knobs::

        loss(rate=0.1,retransmit=4)+delay(max=2)+seed=7
        crash(v=0,at=5)+crash(v=3,at=8,down=4)+stretch=2
        adversary(heavy=4,delay=3)+adversary(drop=convergecast,rate=0.5)

    Crash events (``crash(v=...)``) accumulate.  Anything else set twice
    -- a model, the generated ``crash(rate=...)``, one ``adversary`` key
    or a scalar knob -- raises rather than silently keeping the last.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigurationError(f"condition must be a non-empty string, got {text!r}")
    text = text.strip()
    if text in CONDITION_PRESETS:
        return CONDITION_PRESETS[text]

    loss = delay = None
    crash_events = []
    crash_kwargs: Dict[str, object] = {}
    adversary_kwargs: Dict[str, object] = {}
    scalars: Dict[str, int] = {}
    seen: Set[str] = set()

    def once(what: str) -> None:
        if what in seen:
            raise ConfigurationError(f"condition {text!r} sets {what} twice")
        seen.add(what)

    for clause in filter(None, (piece.strip() for piece in text.split("+"))):
        scalar = _SCALAR.match(clause)
        if scalar:
            once(scalar.group("key") + "=")
            scalars[scalar.group("key")] = int(scalar.group("value"))
            continue
        match = _CLAUSE.match(clause)
        if not match:
            raise ConfigurationError(
                f"malformed condition clause {clause!r}; expected a preset name "
                f"({', '.join(available_conditions())}), model(key=value,...) "
                "or seed=/stretch=/cap=N"
            )
        model, args = match.group("model"), _parse_args(match.group("model"), match.group("args"))
        if model == "loss":
            once("loss(...)")
            loss = LossModel(
                rate=_number("loss", args, "rate", float, 0.0),
                retransmit=_number("loss", args, "retransmit", int, 0),
            )
        elif model == "delay":
            once("delay(...)")
            delay = DelayModel(
                max_delay=_number("delay", args, "max", int, 1),
                rate=_number("delay", args, "rate", float, 1.0),
            )
        elif model == "crash":
            if "v" in args:
                vertex = _number("crash", args, "v", int, 0)
                start = _number("crash", args, "at", int, 1)
                down = _number("crash", args, "down", int, None)
                crash_events.append(
                    (vertex, start, None if down is None else start + down)
                )
            else:
                once("crash(rate=...)")
                crash_kwargs["rate"] = _number("crash", args, "rate", float, 0.0)
                crash_kwargs["within"] = _number("crash", args, "within", int, 32)
                crash_kwargs["downtime"] = _number("crash", args, "down", int, None)
        elif model == "adversary":
            for key in sorted(args.keys() & {"heavy", "drop"}):
                once(f"adversary({key}=...)")
            if "heavy" in args:
                adversary_kwargs["heaviest_edges"] = _number("adversary", args, "heavy", int, 0)
                adversary_kwargs["heavy_delay"] = _number("adversary", args, "delay", int, 1)
            if "drop" in args:
                adversary_kwargs["drop_kind"] = args.pop("drop")
                adversary_kwargs["drop_rate"] = _number("adversary", args, "rate", float, 1.0)
        else:
            raise ConfigurationError(
                f"unknown condition model {model!r}; known: loss, delay, crash, adversary"
            )
        if args:
            raise ConfigurationError(
                f"unknown {model} arguments: {', '.join(sorted(args))}"
            )
    crash = None
    if crash_events or crash_kwargs:
        crash = CrashModel(schedule=tuple(crash_events), **crash_kwargs)
    adversary = AdversarialModel(**adversary_kwargs) if adversary_kwargs else None
    condition = NetworkCondition(
        seed=scalars.get("seed", 0),
        loss=loss,
        delay=delay,
        crash=crash,
        adversary=adversary,
        round_stretch=scalars.get("stretch", 4),
        round_cap=scalars.get("cap"),
    )
    if condition.is_noop() and not scalars:
        raise ConfigurationError(
            f"condition {text!r} activates no model; use a preset "
            f"({', '.join(available_conditions())}) or at least one clause"
        )
    return condition


def normalize_condition(value: object) -> Optional[NetworkCondition]:
    """The one way every layer turns its ``condition`` input into a spec.

    Accepts ``None`` (no condition), a :class:`NetworkCondition`, a
    preset name / compact clause string, or a :meth:`to_json_dict`
    payload (how conditions come back out of run stores).
    """
    if value is None:
        return None
    if isinstance(value, NetworkCondition):
        return value
    if isinstance(value, str):
        return parse_condition(value)
    if isinstance(value, dict):
        return NetworkCondition.from_json_dict(value)
    raise ConfigurationError(
        f"condition must be None, a NetworkCondition, a preset/clause string "
        f"or a JSON dict, got {type(value).__name__}: {value!r}"
    )
