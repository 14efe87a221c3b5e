"""Golden regression fixtures: canonical run rows pinned against drift.

``golden_rows.jsonl`` holds one row per (algorithm x engine) on three
deterministic workload-zoo instances.  The test recomputes every cell
and fails on *any* drift in the run contract -- instance description
(n, m, D), chosen parameter k, measured rounds and messages, and the
MST weight.  This is the backstop behind every refactor of the
simulator, the kernels and the batched executor: optimizations must
never move a reported number.

Regenerate (only when a drift is intended and understood)::

    PYTHONPATH=src python tests/test_golden_regression.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.algorithms import available_algorithms
from repro.campaign import Campaign, execute_campaign
from repro.campaign.presets import preset_campaign
from repro.campaign.spec import RunSpec
from repro.graphs.generators import GraphSpec

GOLDEN_PATH = Path(__file__).parent / "golden_rows.jsonl"

#: Three deterministic zoo instances spanning the regimes: a planted
#: intermediate-diameter graph, a low-diameter bounded-degree skeleton,
#: and a weight-stress instance.
GOLDEN_GRAPHS = [
    GraphSpec("planted_fragments", {"n": 16, "seed": 3}),
    GraphSpec("hypercube", {"dim": 4, "seed": 5}),
    GraphSpec("duplicate_weight_stress", {"n": 16, "seed": 7}),
]

#: The pinned run contract: identity columns plus every measured number
#: that must never drift.  Presentation-only columns (bound ratios) are
#: deliberately excluded -- recalibrating a bound constant is not a run
#: drift.
PINNED_COLUMNS = (
    "graph",
    "n",
    "m",
    "D",
    "algorithm",
    "bandwidth",
    "engine",
    "seed",
    "k",
    "rounds",
    "messages",
    "weight",
)


def _golden_campaign() -> Campaign:
    specs = [
        RunSpec(graph=graph, algorithm=algorithm, engine=engine)
        for graph in GOLDEN_GRAPHS
        for algorithm in available_algorithms()
        for engine in ("reference", "fast")
    ]
    return Campaign(name="golden", specs=specs)


def _pin(row: dict) -> dict:
    return {column: row.get(column) for column in PINNED_COLUMNS}


def _compute_rows() -> list:
    report = execute_campaign(_golden_campaign())
    return [_pin(row) for row in report.rows]


def _load_golden() -> list:
    with GOLDEN_PATH.open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestGoldenRegression:
    def test_fixture_exists_and_covers_the_matrix(self):
        golden = _load_golden()
        campaign = _golden_campaign()
        assert len(golden) == len(campaign)
        assert len(golden) == len(GOLDEN_GRAPHS) * len(available_algorithms()) * 2

    def test_no_drift_in_weight_rounds_messages(self):
        golden = _load_golden()
        current = _compute_rows()
        assert len(golden) == len(current), (
            "golden fixture is stale: the algorithm/engine matrix changed; "
            "regenerate with: python tests/test_golden_regression.py --regenerate"
        )
        for expected, actual in zip(golden, current):
            # Normalize through JSON so int/float round-trips compare equal.
            expected = json.loads(json.dumps(expected))
            actual = json.loads(json.dumps(actual))
            assert actual == expected, (
                f"golden drift on {expected['graph']} / {expected['algorithm']} "
                f"/ {expected['engine']}: expected {expected}, got {actual}"
            )

    def test_engines_agree_within_the_fixture(self):
        golden = _load_golden()
        by_key = {}
        for row in golden:
            key = (row["graph"], row["algorithm"], row["seed"])
            by_key.setdefault(key, []).append(row)
        for key, rows in by_key.items():
            assert len(rows) == 2, key
            a, b = rows
            assert (a["rounds"], a["messages"], a["weight"]) == (
                b["rounds"],
                b["messages"],
                b["weight"],
            ), f"engines disagree on {key}"


#: preset -> (rows, sha256 of ``json.dumps(rows, sort_keys=True)``).
#: Unlike the golden fixture these pin every column of every row,
#: fault telemetry and the non-terminated crash-stop cells included.
PRESET_ROW_PINS = {
    "zoo": (362, "13ac641ff211035110cccaf97c5ffa0a8784fbb6424f24f91bbab80436573e7f"),
    "zoo-faulty": (24, "abbd43be9c97b5df18eb9cc5d54ea5e983568fbad1c0f4ddc971238b90c5e484"),
}


@pytest.mark.parametrize("name", sorted(PRESET_ROW_PINS))
def test_preset_rows_match_their_pinned_digest(name):
    rows = execute_campaign(preset_campaign(name)).rows
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()
    assert (len(rows), digest) == PRESET_ROW_PINS[name]


try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False


@pytest.mark.skipif(not HAVE_NUMPY, reason="the array engine needs numpy")
class TestGoldenRegressionArrayEngine:
    """The numpy kernel against the same pinned rows.

    The fixture itself stays at (reference, fast) so it also loads on a
    numpy-less interpreter; here every golden cell is recomputed under
    ``engine="array"`` and must match the pinned reference-engine row
    byte for byte (modulo the engine column itself).
    """

    def test_array_rows_match_the_pinned_reference_rows(self):
        golden = [row for row in _load_golden() if row["engine"] == "reference"]
        specs = [
            RunSpec(graph=graph, algorithm=algorithm, engine="array")
            for graph in GOLDEN_GRAPHS
            for algorithm in available_algorithms()
        ]
        report = execute_campaign(Campaign(name="golden-array", specs=specs))
        current = [_pin(row) for row in report.rows]
        assert len(golden) == len(current)
        for expected, actual in zip(golden, current):
            expected = json.loads(json.dumps(dict(expected, engine="array")))
            actual = json.loads(json.dumps(actual))
            assert actual == expected, (
                f"array-engine drift on {expected['graph']} / "
                f"{expected['algorithm']}: expected {expected}, got {actual}"
            )


def _regenerate() -> None:
    rows = _compute_rows()
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=False) + "\n")
    print(f"wrote {len(rows)} golden rows to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
