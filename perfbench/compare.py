"""One-shot comparison of the alternatives the workloads run on.

Not part of the regression check: ``python3 perfbench/run.py --compare``
re-measures, end to end and at the default seed,

* ``mst-dense`` and ``mst-deep`` (graph 0) on the ``reference``,
  ``fast`` and ``array`` engines (the E14 claim);
* ``sweep-zoo`` batched at ``jobs=1``, batched-parallel at ``jobs=2``,
  and per-cell (``batch=False``) at ``jobs=1`` and ``jobs=2`` (E15);
* ``store-30k`` on the JSONL and the columnar backend (E17);

and writes ``perfbench/COMPARISON.json`` in the schema
``{path, layer, seconds, baseline, speedup}``.  Every operation passes
the same gate as in a regression run, so every alternative must produce
the pinned rounds, messages, rows and report.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List

from catalog import DEFAULT_SEED
from harness import run_op

#: timed repetitions per alternative (the median is reported)
REPEATS = 3


def _median_seconds(workload: Any) -> Dict[str, float]:
    """Median seconds of ``REPEATS`` gated operations on instance 0."""
    workload.setup()
    gc.collect()
    gc.freeze()  # as in a regression run
    try:
        ops = [run_op(workload, 0, traced=False) for _ in range(REPEATS)]
    finally:
        gc.unfreeze()
    failures = [error for op in ops for error in op.errors]
    if failures:
        raise RuntimeError(f"{workload.name}: {failures[0]}")
    timings = {"op": statistics.median(op.seconds for op in ops)}
    for name in ops[0].phases:
        timings[name] = statistics.median(op.phases[name] for op in ops)
    return timings


def _group(
    rows: List[Dict[str, object]],
    path: str,
    alternatives: Dict[str, Callable[[], Any]],
    baseline: str,
) -> None:
    timings = {label: _median_seconds(make()) for label, make in alternatives.items()}
    for label, measured in timings.items():
        for layer, seconds in measured.items():
            base = timings[baseline][layer]
            rows.append(
                {
                    "path": f"{path} [{label}]",
                    "layer": "end-to-end" if layer == "op" else layer,
                    "seconds": round(seconds, 4),
                    "baseline": baseline,
                    "speedup": round(base / seconds, 3),
                }
            )
            print(
                f"  {path:<10} {label:<20} {rows[-1]['layer']:<10} {seconds:>9.4f} s"
                f"  {rows[-1]['speedup']:>6.2f}x vs {baseline}",
                flush=True,
            )


def main(output: Path, scratch: Path) -> int:
    from wl_mst import MstWorkload
    from wl_store import StoreWorkload
    from wl_sweep import SweepWorkload

    workdir = scratch / f"compare-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rows: List[Dict[str, object]] = []
    try:
        for name in ("mst-dense", "mst-deep"):
            _group(
                rows,
                name,
                {
                    engine: partial(MstWorkload, name, DEFAULT_SEED, "full", engine)
                    for engine in ("reference", "fast", "array")
                },
                baseline="fast",
            )
        sweeps = {
            "batched jobs=1": {"jobs": 1, "batch": None},
            "batched jobs=2": {"jobs": 2, "batch": None},
            "per-cell jobs=1": {"jobs": 1, "batch": False},
            "per-cell jobs=2": {"jobs": 2, "batch": False},
        }
        _group(
            rows,
            "sweep-zoo",
            {
                label: partial(SweepWorkload, "sweep-zoo", DEFAULT_SEED, "full", workdir, **kwargs)
                for label, kwargs in sweeps.items()
            },
            baseline="batched jobs=1",
        )
        _group(
            rows,
            "store-30k",
            {
                backend: partial(StoreWorkload, "store-30k", DEFAULT_SEED, "full", workdir, backend)
                for backend in ("jsonl", "columnar")
            },
            baseline="jsonl",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = {
        "what": "end-to-end re-measurement of E14 (engines), E15 (executors) "
        "and E17 (store backends)",
        "command": "python3 perfbench/run.py --compare",
        "seed": DEFAULT_SEED,
        "repeats": REPEATS,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "rows": rows,
    }
    output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0
