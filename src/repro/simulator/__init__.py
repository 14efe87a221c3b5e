"""Synchronous CONGEST(b log n) simulator.

The simulator is a faithful executable model of the communication model
the paper analyses (Section 2 of the paper):

* computation proceeds in synchronous rounds;
* in each round every vertex may send, over each incident edge and in
  each direction, a message of at most ``b`` machine words (a word is an
  edge weight or a vertex/fragment identity; ``b = 1`` is the standard
  CONGEST model);
* local computation is free;
* the cost of an execution is its number of rounds and its total number
  of messages.

The kernel behind the model is pluggable
(:class:`~repro.simulator.engine.Engine`): the *reference* kernel
:class:`~repro.simulator.network.SyncNetwork` mirrors the model
definition line by line, while the *fast* kernel
:class:`~repro.simulator.fast_network.FastNetwork` batches the hot path
(flat edge slots, tuple messages, bulk accounting) without changing a
single reported number.  :func:`~repro.simulator.engine.create_engine`
selects one by name.  :mod:`repro.simulator.protocol` drives per-node
protocols; and :mod:`repro.simulator.primitives` contains the classical
building blocks (BFS tree, tree broadcast, convergecast, pipelined
upcast/downcast, interval labelling, neighbour exchange) that the paper
composes.
"""

from .engine import (
    available_engines,
    create_engine,
    DEFAULT_ENGINE,
    Engine,
    engine_provider,
    register_engine,
)
from .fast_network import FastMessage, FastNetwork
from .message import Message
from .metrics import Metrics
from .network import SyncNetwork
from .node import NodeState
from .protocol import NodeProtocol, ProtocolApi, run_protocol

__all__ = [
    "DEFAULT_ENGINE",
    "Engine",
    "available_engines",
    "create_engine",
    "engine_provider",
    "register_engine",
    "FastMessage",
    "FastNetwork",
    "Message",
    "Metrics",
    "SyncNetwork",
    "NodeState",
    "NodeProtocol",
    "ProtocolApi",
    "run_protocol",
]
