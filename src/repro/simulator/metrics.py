"""Round and message accounting.

The two quantities the paper bounds -- the number of synchronous rounds
and the total number of messages -- are tracked here.  A
:class:`Metrics` instance belongs to a :class:`~repro.simulator.network.SyncNetwork`
and is advanced by the kernel only, which keeps the accounting honest:
algorithms cannot forget to charge a transmission because every
transmission goes through the kernel.

:meth:`Metrics.checkpoint` / :meth:`Metrics.since` allow callers to
attribute costs to individual sub-operations (e.g. "phase 3 of Boruvka"),
which the benchmarks and the telemetry use.
"""

from __future__ import annotations

from collections import _count_elements, Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..types import CostReport


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable copy of the counters at some instant."""

    rounds: int
    messages: int
    words: int


@dataclass
class Metrics:
    """Mutable counters owned by the simulator kernel."""

    rounds: int = 0
    messages: int = 0
    words: int = 0
    messages_by_kind: Counter = field(default_factory=Counter)

    def record_round(self) -> None:
        """Advance the round counter by one (called once per delivered round)."""
        self.rounds += 1

    def record_message(self, kind: str, words: int) -> None:
        """Record one transmitted message carrying ``words`` machine words."""
        self.messages += 1
        self.words += words
        self.messages_by_kind[kind] += 1

    def record_bulk(
        self,
        messages: int,
        words: int,
        *,
        kind: str | None = None,
        kinds: Iterable[str] | Counter | None = None,
    ) -> None:
        """Record ``messages`` transmissions totalling ``words`` words at once.

        The batched engines charge a whole delivery round in one call
        instead of ``messages`` calls to :meth:`record_message`.  The
        per-kind tally comes either from ``kind`` (all messages share
        one kind), or ``kinds`` (one kind per message, or a
        pre-aggregated Counter); both may be omitted when the caller
        tallies kinds separately.
        """
        self.messages += messages
        self.words += words
        if kind is not None:
            self.messages_by_kind[kind] += messages
        if kinds is not None:
            self.messages_by_kind.update(kinds)

    def record_delivered_round(self, messages: int, words: int, kinds: Iterable[str]) -> None:
        """Charge one delivered round: the clock, its messages, words and kinds.

        The fast kernel's one call per round, in place of
        :meth:`record_round` plus :meth:`record_bulk`.  ``kinds`` holds
        one kind per message and is tallied through the C helper that
        :meth:`Counter.update` itself calls for a non-mapping, so the
        histogram's key order is the one ``update`` would give.
        """
        self.rounds += 1
        self.messages += messages
        self.words += words
        _count_elements(self.messages_by_kind, kinds)

    def checkpoint(self) -> MetricsSnapshot:
        """Return an immutable snapshot of the current counters."""
        return MetricsSnapshot(rounds=self.rounds, messages=self.messages, words=self.words)

    def since(self, snapshot: MetricsSnapshot) -> CostReport:
        """Return the cost accumulated since ``snapshot`` was taken."""
        return CostReport(
            rounds=self.rounds - snapshot.rounds,
            messages=self.messages - snapshot.messages,
            words=self.words - snapshot.words,
        )

    def as_report(self) -> CostReport:
        """Return the total cost accumulated so far as a :class:`CostReport`."""
        return CostReport(rounds=self.rounds, messages=self.messages, words=self.words)
