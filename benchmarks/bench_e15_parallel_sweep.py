"""E15 (engineering): the batched-parallel scheduler on the workload zoo.

Like E11/E12, this benchmark measures the harness rather than the
paper: a zoo-scale sweep (the ``zoo`` preset, several hundred cells)
run through the scheduler (:mod:`repro.campaign.scheduler`:
graph-affine work units leased to persistent workers) with the batch
runner must be at least 2x faster than with the per-cell runner
(``batch=False``) at the *same* job count, while the rows stay
byte-identical to a serial sweep.  Both legs run on the same
scheduler, so the ratio isolates batching: per-unit graph builds,
oracles and descriptions.  The simulations themselves are identical
executions.

The 2.0 floor assumes ``jobs`` no larger than the host's cores.  With
more workers than cores the workers time-share them and the ratio
mostly measures scheduling noise: at the default ``jobs=4`` on a
2-vCPU host it read 1.68-1.93x in 4 of 12 runs of working code.  On
such a host run it at ``REPRO_E15_JOBS=2``, as CI does (with a 1.2
floor for shared runners).

Set ``REPRO_E15_WRITE_JSON=path`` to also dump the measured rows as
JSON (the checked-in ``BENCH_E15.json`` is produced this way).
"""

from __future__ import annotations

import gc
import json
import os
import time

from conftest import run_once

from repro.campaign import execute_campaign, preset_campaign

REPETITIONS = 2
#: Worker count of the measured parallel paths.
JOBS = int(os.environ.get("REPRO_E15_JOBS", "4"))
#: Hard floor for the scheduler-vs-pool speedup assertion.  The 2x
#: target (the tentpole acceptance bar) holds on controlled hardware;
#: shared CI runners can override it downwards (the measured ratio is
#: always recorded in extra_info either way).
MIN_SPEEDUP = float(os.environ.get("REPRO_E15_MIN_SPEEDUP", "2.0"))


def _sweep(campaign, jobs, batch):
    return execute_campaign(campaign, jobs=jobs, batch=batch, resume=False)


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


def test_e15_parallel_sweep_throughput(benchmark, record):
    campaign = preset_campaign("zoo")
    assert len(campaign) >= 100

    def run():
        # Warm every import and generator path before timing (forked
        # workers inherit the warm state).
        _sweep(campaign, 1, True)

        serial_seconds, serial_report = _best_of(_sweep, campaign, 1, True)
        pool_seconds, pool_report = _best_of(_sweep, campaign, JOBS, False)
        sched_seconds, sched_report = _best_of(_sweep, campaign, JOBS, None)
        rows = [
            {
                "executor": name,
                "jobs": jobs,
                "cells": len(report.rows),
                "seconds": round(seconds, 3),
                "cells/s": round(len(report.rows) / seconds, 1),
            }
            for name, jobs, seconds, report in (
                ("batched in-process", 1, serial_seconds, serial_report),
                (f"per-cell pool-{JOBS}", JOBS, pool_seconds, pool_report),
                (f"scheduler batched-pool-{JOBS}", JOBS, sched_seconds, sched_report),
            )
        ]
        return (
            rows,
            serial_seconds,
            pool_seconds,
            sched_seconds,
            serial_report,
            pool_report,
            sched_report,
        )

    (
        rows,
        serial_seconds,
        pool_seconds,
        sched_seconds,
        serial_report,
        pool_report,
        sched_report,
    ) = run_once(benchmark, run)

    pool_speedup = pool_seconds / sched_seconds
    serial_speedup = serial_seconds / sched_seconds
    rows[1]["speedup vs scheduler"] = round(1 / pool_speedup, 2)
    rows[2]["speedup vs pool"] = round(pool_speedup, 2)
    rows[2]["speedup vs serial"] = round(serial_speedup, 2)
    benchmark.extra_info["cells"] = len(campaign)
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["scheduler_speedup_vs_pool"] = round(pool_speedup, 3)
    benchmark.extra_info["scheduler_speedup_vs_serial"] = round(serial_speedup, 3)
    benchmark.extra_info["worker_stats"] = sched_report.worker_stats
    record(
        f"E15: parallel zoo sweep (scheduler vs per-cell pool at jobs={JOBS})", rows
    )

    json_path = os.environ.get("REPRO_E15_WRITE_JSON")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "experiment": (
                        f"E15: parallel zoo sweep (scheduler vs per-cell pool "
                        f"at jobs={JOBS})"
                    ),
                    "jobs": JOBS,
                    "min_speedup_floor": MIN_SPEEDUP,
                    "worker_stats": sched_report.worker_stats,
                    "rows": rows,
                },
                handle,
                indent=2,
            )
            handle.write("\n")

    # Byte-identical rows: the scheduler buys wall-clock time only.
    assert sched_report.rows == serial_report.rows
    assert sched_report.rows == pool_report.rows
    assert sched_report.workers == JOBS
    assert (
        pool_speedup >= MIN_SPEEDUP
    ), f"scheduler speedup {pool_speedup:.2f}x below the {MIN_SPEEDUP}x floor vs pool-{JOBS}"
