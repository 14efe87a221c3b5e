"""A run imports only what it runs: numpy for the ``array`` kernel, scipy never.

The CLI parser, a :class:`~repro.api.Scenario` and a ``fast`` sweep
must not load numpy (the ``array`` kernel's optional dependency) or
scipy (which ``nx.random_geometric_graph`` reaches for): together they
are about 44 MB of a zoo sweep's peak memory, spent on code the sweep
never calls.  The check runs in a fresh interpreter, since this test
session has imported both already.  Its scipy half can only fail where
scipy happens to be installed: no declared extra pulls it in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytest.importorskip("numpy")

SCRIPT = """
import json, sys

from repro import compute_mst, GraphSpec, RunConfig
from repro.api import Scenario
from repro.campaign import Campaign, execute_campaign, RunSpec
from repro.campaign.presets import ZOO_REFERENCES
from repro.cli import build_parser
from repro.graphs import random_geometric_connected_graph
from repro.workloads import zoo_coverage_specs

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] in ("numpy", "scipy"))

build_parser()
Scenario(graph=GraphSpec("random_geometric", {"n": 16, "seed": 0}))
specs = [
    RunSpec(graph=graph, algorithm=algorithm, engine="fast", seed=0)
    for graph in zoo_coverage_specs()
    for algorithm in ("elkin",) + ZOO_REFERENCES
]
report = execute_campaign(Campaign("zoo-coverage", specs))
families = sorted({spec.graph.family for spec in specs})
before = loaded()
graph = random_geometric_connected_graph(20, seed=3)
fast = compute_mst(graph, RunConfig(engine="fast"))
array = compute_mst(graph, RunConfig(engine="array"))
print(json.dumps({
    "cells": report.executed,
    "families": families,
    "before": before,
    "numpy_after": "numpy" in sys.modules,
    "same": [fast.rounds, fast.messages, sorted(fast.edges)]
    == [array.rounds, array.messages, sorted(array.edges)],
}))
"""


def test_a_fast_sweep_loads_neither_numpy_nor_scipy_until_array_is_named():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout.strip().splitlines()[-1])
    assert outcome["cells"] == 5 * len(outcome["families"])
    assert "random_geometric" in outcome["families"]
    assert outcome["before"] == []
    assert outcome["numpy_after"]
    assert outcome["same"]
