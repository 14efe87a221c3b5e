"""Message objects exchanged by simulated vertices.

A message models one transmission over one edge in one direction during
one round.  Its ``words`` attribute records how many machine words
(edge weights / identities) it carries; the network kernel enforces that
the words sent over a directed edge within a single round never exceed
the bandwidth parameter ``b`` of the CONGEST(b log n) model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple

from ..types import VertexId


@dataclass(frozen=True)
class Message:
    """One message in flight.

    Attributes:
        sender: vertex that sent the message.
        receiver: vertex that will receive it at the start of the next round.
        kind: short protocol-specific tag (e.g. ``"explore"``, ``"upcast-item"``).
        payload: protocol-specific content; must be small (O(1) words).
        words: number of machine words the payload occupies; used for
            bandwidth enforcement and for the word counter in the metrics.
        sent_in_round: value of the round clock when the message was sent.
    """

    sender: VertexId
    receiver: VertexId
    kind: str
    payload: Tuple[Any, ...] = field(default_factory=tuple)
    words: int = 1
    sent_in_round: int = 0

    def __post_init__(self) -> None:
        if self.words < 1:
            raise ValueError(f"a message must carry at least one word, got {self.words}")
