"""The repo benchmark: one workload per run, timed end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mst-dense --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload store-30k --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --compare            # one-shot engine/executor/backend table

Workloads: ``mst-dense``, ``mst-deep``, ``sweep-zoo``, ``store-30k`` (see
``perfbench/README.md``).  Everything runs in this one process at
``jobs=1``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones; either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every
operation passes a correctness gate outside its timed region; an
operation that raises or fails the gate counts as failed.

The program under test is imported from ``src/`` next to this
directory and nowhere else: without it the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch stores live here while a run needs them, removed at exit
WORKDIR = ROOT / ".perfbench_work"


def import_program() -> Optional[str]:
    """Put ``src/`` first on ``sys.path``; an error message if it is unusable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program to measure: {SRC / 'repro'} is missing"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return f"repro imported from {repro.__file__}, not from {SRC}"
    return None


def make_workload(name: str, seed: int, size: str, workdir: Path):
    if name in ("mst-dense", "mst-deep"):
        from wl_mst import MstWorkload

        return MstWorkload(name, seed, size)
    if name == "sweep-zoo":
        from wl_sweep import SweepWorkload

        return SweepWorkload(name, seed, size, workdir)
    from wl_store import StoreWorkload

    return StoreWorkload(name, seed, size, workdir)


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    workdir: Optional[Path] = None,
) -> Dict:
    """Measure one workload; returns the result object and prints the report."""
    from catalog import PER_LAYER, UNITS
    from harness import measure, peak_rss_mb, per_key_mean

    workdir = (workdir or WORKDIR) / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(name, seed, size, workdir)
        measurement = measure(workload, seconds, trace)
        lines: List[str] = []
        if trace:
            metrics, lines = workload.layers(measurement)
            pairs = [
                (untraced, traced)
                for untraced, traced in zip(measurement.ops[::2], measurement.ops[1::2])
                if not untraced.errors and not traced.errors
            ]
            if pairs:
                metrics["trace.overhead_frac"] = (
                    sum(traced.seconds for _, traced in pairs)
                    / sum(untraced.seconds for untraced, _ in pairs)
                    - 1.0
                )
            metrics = {layer: float(metrics.get(layer, 0.0)) for layer, *_ in PER_LAYER}
        ok_untraced = [op for op in measurement.untraced if not op.errors]
        headline = workload.headline(measurement) if ok_untraced else {}
        setup_s = statistics.median(measurement.setup_seconds) * measurement.setup_scale
        op_s = per_key_mean(ok_untraced, lambda op: op.calibrated) if ok_untraced else 0.0
        raw_op_s = per_key_mean(ok_untraced, lambda op: op.seconds) if ok_untraced else 0.0
        if not trace:
            metrics = {"setup_s": setup_s, "op_s": op_s, "peak_rss_mb": peak_rss_mb()}
        bound_lines = workload.bound_lines(measurement) if hasattr(workload, "bound_lines") else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()  # only when empty: another run may be using it

    attempted = len(measurement.ops)
    failed = measurement.failed
    print(f"workload {name}  seed {seed}  size {size}  trace {int(trace)}")
    print("  (times in reference-host seconds; see REFERENCE_CALIBRATION_S in harness.py)")
    print(f"  {'setup_s':<22} {setup_s:.6f} s")
    print(f"  {'op_s':<22} {op_s:.6f} s  (measured {raw_op_s:.6f} s on this host)")
    for key, value in headline.items():
        print(f"  {key:<22} {value:.6f} {'1/s' if key.endswith('per_s') else 's'}")
    if not trace:
        print(f"  {'peak_rss_mb':<22} {metrics['peak_rss_mb']:.1f} MB")
    print(f"  {'failed_frac':<22} {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for line in bound_lines + lines:
        print(line)
    if trace:
        print(f"  {'trace.overhead_frac':<22} {metrics['trace.overhead_frac']:.6f}"
              " (traced over untraced time of the same instances, minus 1)")
    for op in measurement.ops:
        for error in op.errors:
            print(f"  FAILED op on instance {op.key}: {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": UNITS[key]} for key, value in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=("mst-dense", "mst-deep", "sweep-zoo", "store-30k")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "toy"), default="full",
        help="toy: tiny instances for the self-tests (pins differ)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="one-shot engine/executor/backend comparison (not a regression run)",
    )
    args = parser.parse_args(argv)
    if not args.compare and args.workload is None:
        parser.error("--workload is required")
    problem = import_program()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    if args.compare:
        from compare import main as compare_main

        return compare_main(HERE / "COMPARISON.json", WORKDIR)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
