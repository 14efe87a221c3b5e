"""The round driver's schedule of ``compute_mst``, pinned call by call.

Golden rows and perfbench's pins see totals only: a driver that visits
a round's vertices in another order, or calls a vertex it should skip,
can keep every total.  This module records every ``on_start`` and
``on_round`` call of an ``elkin`` run -- the round, the protocol, the
vertex, and the inbox as (sender, kind, payload) -- and compares the
sha256 of that trace with a pinned value.  It runs on path, grid and
random graphs of about 20 vertices, on both pure-Python engines, with no
network condition, under ``lossy`` and under ``crash-stop``.  Both
engines must produce the same trace.

The trace holds only ``repr`` of ints, floats, strings, ``None`` and
tuples of these, so it does not depend on the Python version or on
string hashing.  To recompute the pins after a change that is meant to
alter the schedule, run ``PYTHONPATH=src python tests/test_driver_schedule.py``
and paste the printed mapping over ``SCHEDULE_SHA256``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional

import pytest

from repro.analysis.experiments import run_single
from repro.exceptions import SimulationError
from repro.graphs import grid_graph, path_graph, random_connected_graph
from repro.simulator.engine import engine_wrapper
from repro.simulator.protocol import NodeProtocol

FAMILIES = {
    "path": lambda: path_graph(20, seed=1),
    "grid": lambda: grid_graph(4, 5, seed=2),
    "random": lambda: random_connected_graph(20, seed=3),
}

CONDITIONS = (None, "lossy", "crash-stop")

#: (family, condition) -> sha256 of the trace, computed with the
#: recipe in the module docstring.
SCHEDULE_SHA256 = {
    ("grid", None): "27e69a5b6a693ff3c1d2fd4060ef51bd77bb0d256b6a16aa5d8a712135c9b2bb",
    ("grid", "lossy"): "8c4019f586a5ab9ee1c6735ee7ae79ddb2610334538cad18bc662ccd1ccc5323",
    ("grid", "crash-stop"): "c3f82c297b40e28ea5785a0e1d8fdee1abb5d23a85feecb136e2803285dc79e7",
    ("path", None): "590ef915ecc9fd024d4e4ef2ddcd8ee4c54b9db2492229ab87291383a63ddea6",
    ("path", "lossy"): "93e8ddb1fcfd25975c1cdf09c28eaa3fcadda9925cdc2569450ac3db452bf67e",
    ("path", "crash-stop"): "cc8a4e9eabd52cadcdc652fb0c2d4058b9a4bca4f7cad85b0ac64fa56f0388bf",
    ("random", None): "5fdf1b06fd0ed04ceaa1cfab44b1079e3199018dc57ebaccaf712f8fa11932b8",
    ("random", "lossy"): "56c18db928b3a9f1efddab32b658a461dc85d959bd145836cabd2e7f9e7059c3",
    ("random", "crash-stop"): "292f09e66b23b40ed60a925b07b411eb42fa172cfe00aecf14acda20fe4d57b7",
}


def _plain(value: Any) -> str:
    """``repr`` of a payload made of plain values; anything else is an error."""
    if isinstance(value, tuple):
        return "(" + ",".join(_plain(item) for item in value) + ")"
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    raise TypeError(f"payload holds a {type(value).__name__}, which has no stable repr")


def schedule_trace(family: str, condition: Optional[str], engine: str) -> List[str]:
    """Every driver call of one ``elkin`` run, one line each, and its outcome."""
    graph = FAMILIES[family]()
    lines: List[str] = []
    engines: List[Any] = []

    def capture(built, *_):
        engines.append(built)
        return built

    original_init = NodeProtocol.__init__

    def recording_init(self, participants):
        original_init(self, participants)
        name = self.name
        on_start = self.on_start
        on_round = self.on_round

        def recorded_start(vertex, node, api):
            lines.append(f"{engines[-1].metrics.rounds} {name} start {vertex!r}")
            return on_start(vertex, node, api)

        def recorded_round(vertex, node, api, inbox):
            mail = ";".join(
                f"{message.sender!r},{message.kind},{_plain(message.payload)}"
                for message in inbox
            )
            lines.append(f"{engines[-1].metrics.rounds} {name} round {vertex!r} [{mail}]")
            return on_round(vertex, node, api, inbox)

        self.on_start = recorded_start
        self.on_round = recorded_round

    with pytest.MonkeyPatch.context() as patch, engine_wrapper(capture):
        patch.setattr(NodeProtocol, "__init__", recording_init)
        try:
            result = run_single(
                graph, algorithm="elkin", engine=engine, condition=condition, verify=False
            )
            outcome = f"{result.rounds} {result.messages} {sorted(result.edges)!r}"
        except SimulationError as error:
            outcome = type(error).__name__
    lines.append(f"outcome {outcome}")
    return lines


def schedule_sha256(family: str, condition: Optional[str], engine: str) -> str:
    text = "\n".join(schedule_trace(family, condition, engine))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_schedule_matches_pin_on_both_engines(family, condition):
    reference = schedule_trace(family, condition, "reference")
    fast = schedule_trace(family, condition, "fast")
    assert fast == reference
    assert len(reference) > 50
    digest = hashlib.sha256("\n".join(reference).encode("utf-8")).hexdigest()
    assert digest == SCHEDULE_SHA256[family, condition]


def test_crash_stop_ends_runs_with_a_typed_error():
    # The pins cover a failing run too; make sure at least one does fail.
    outcomes = [schedule_trace(family, "crash-stop", "fast")[-1] for family in FAMILIES]
    assert "outcome NonTerminationError" in outcomes


if __name__ == "__main__":
    digests: Dict[Any, str] = {
        (family, condition): schedule_sha256(family, condition, "reference")
        for family in sorted(FAMILIES)
        for condition in CONDITIONS
    }
    print("SCHEDULE_SHA256 = {")
    for (family, condition), digest in digests.items():
        print(f"    ({family!r}, {condition!r}): {digest!r},".replace("'", '"'))
    print("}")
