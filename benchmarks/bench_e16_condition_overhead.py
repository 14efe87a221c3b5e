"""E16 (engineering): overhead of the network-condition wrapper seam.

Like E11/E15, this benchmark measures the harness rather than the
paper: threading ``condition`` through the execution stack must be free
when no condition is active.  Two costs are separated:

* **seam overhead** -- a sweep with ``condition=None`` never installs
  the wrapper at all; its wall-clock must be indistinguishable from
  the pre-conditions executor (this is the row pair asserted on);
* **pass-through overhead** -- a sweep under an installed but *no-op*
  :class:`~repro.conditions.NetworkCondition` wraps every engine in a
  :class:`~repro.conditions.ConditionedEngine` whose ``deliver_round``
  detects ``is_noop()`` and delegates without touching a single
  message.  The proxy indirection (one extra Python frame per round
  plus the delegated send-side calls) must stay within
  ``REPRO_E16_MAX_OVERHEAD`` (default 10%) of the bare sweep.

An active-condition row (the ``lossy`` preset) is recorded for context
-- per-message fate hashing is real work and is *not* bounded here.

Set ``REPRO_E16_WRITE_JSON=path`` to dump the measured rows as JSON
(the checked-in ``BENCH_E16.json`` is produced this way).
"""

from __future__ import annotations

import gc
import json
import os
import time

from conftest import run_once

from repro.campaign import execute_campaign, preset_campaign
from repro.conditions import NetworkCondition

REPETITIONS = 3
#: Hard ceiling for the pass-through (no-op wrapper) overhead ratio.
#: The 10% target holds on controlled hardware; shared CI runners can
#: loosen it (the measured ratio is always recorded in extra_info).
MAX_OVERHEAD = float(os.environ.get("REPRO_E16_MAX_OVERHEAD", "0.10"))

#: A condition that activates no model: the wrapper installs, every
#: deliver_round takes the is_noop() fast path.
NOOP_CONDITION = NetworkCondition(seed=0)


def _sweep(campaign):
    return execute_campaign(campaign, resume=False, compute_diameter=False)


def _best_of(function, *args):
    """Minimum wall-clock over REPETITIONS runs (and the last return value)."""
    best = float("inf")
    value = None
    for _ in range(REPETITIONS):
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            value = function(*args)
            best = min(best, time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
    return best, value


def test_e16_condition_overhead(benchmark, record):
    bare = preset_campaign("zoo")
    assert len(bare) >= 100
    noop = bare.with_condition(NOOP_CONDITION)
    lossy = bare.with_condition("lossy")

    def run():
        _sweep(bare)  # warm imports, generators and the batched path

        bare_seconds, bare_report = _best_of(_sweep, bare)
        noop_seconds, noop_report = _best_of(_sweep, noop)
        lossy_seconds, lossy_report = _best_of(_sweep, lossy)
        return (
            bare_seconds,
            noop_seconds,
            lossy_seconds,
            bare_report,
            noop_report,
            lossy_report,
        )

    (
        bare_seconds,
        noop_seconds,
        lossy_seconds,
        bare_report,
        noop_report,
        lossy_report,
    ) = run_once(benchmark, run)

    overhead = noop_seconds / bare_seconds - 1.0
    rows = [
        {
            "sweep": name,
            "cells": len(report.rows),
            "seconds": round(seconds, 3),
            "cells/s": round(len(report.rows) / seconds, 1),
            "vs bare": f"{seconds / bare_seconds:.3f}x",
        }
        for name, seconds, report in (
            ("bare (condition=None)", bare_seconds, bare_report),
            ("no-op wrapper (pass-through)", noop_seconds, noop_report),
            ("lossy preset (active faults)", lossy_seconds, lossy_report),
        )
    ]
    benchmark.extra_info["cells"] = len(bare)
    benchmark.extra_info["passthrough_overhead"] = round(overhead, 4)
    benchmark.extra_info["max_overhead_ceiling"] = MAX_OVERHEAD
    record("E16: network-condition wrapper overhead on the zoo preset", rows)

    json_path = os.environ.get("REPRO_E16_WRITE_JSON")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "experiment": (
                        "E16: network-condition wrapper overhead on the zoo preset"
                    ),
                    "max_overhead_ceiling": MAX_OVERHEAD,
                    "passthrough_overhead": round(overhead, 4),
                    "rows": rows,
                },
                handle,
                indent=2,
            )
            handle.write("\n")

    # The wrapped sweep still produces correct MSTs (verification ran),
    # and a no-op condition changes no counter: rounds/messages columns
    # match the bare sweep cell for cell.
    for bare_row, noop_row in zip(bare_report.rows, noop_report.rows):
        assert bare_row["rounds"] == noop_row["rounds"]
        assert bare_row["messages"] == noop_row["messages"]
        assert bare_row["weight"] == noop_row["weight"]
    assert len(lossy_report.rows) == len(bare_report.rows)
    assert overhead <= MAX_OVERHEAD, (
        f"pass-through wrapper overhead {overhead:.1%} exceeds the "
        f"{MAX_OVERHEAD:.0%} ceiling (bare {bare_seconds:.3f}s, "
        f"no-op {noop_seconds:.3f}s)"
    )
