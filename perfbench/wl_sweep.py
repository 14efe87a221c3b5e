"""sweep-zoo: the ``zoo`` then ``zoo-faulty`` presets into one fresh JSONL store.

One operation is what ``repro-mst sweep --preset zoo --output x.jsonl``
followed by the same for ``zoo-faulty`` does: open a fresh on-disk store
at the default durability, ``execute_campaign`` at ``jobs=1`` (the
batched in-process path), close.  The seed shifts every cell's
generator seed by ``2 * seed``, so seed 0 is the presets verbatim.

The traced run wraps graph build (``RunSpec.build_graph``), describe
(the executor's ``_describe_graph``), simulate (the executor's
``run_single`` binding, split by algorithm family), verify
(``MSTOracle`` and the planted-MST check) and the store commit
(``record_run``, ``record_graph``, ``flush``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import statistics
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from catalog import DEFAULT_SEED
from harness import (
    Measurement,
    mean_residual_seconds,
    mean_span_seconds,
    patched,
    per_key_mean,
    Tracer,
)

from repro.algorithms import algorithm_info
from repro.campaign import execute_campaign, open_store, RunStore
from repro.campaign import executor as executor_module
from repro.campaign.presets import preset_campaign
from repro.campaign.spec import Campaign, RunSpec
from repro.verify import planted_checks
from repro.verify.mst_checks import MSTOracle

#: size -> the two presets swept, in order
SIZES = {"full": ("zoo", "zoo-faulty"), "toy": ("smoke", "zoo-faulty")}

#: (preset, rows, sha256 of the rows) at the default seed
PINS: Dict[str, Tuple[int, str]] = {
    "zoo": (362, "13ac641ff211035110cccaf97c5ffa0a8784fbb6424f24f91bbab80436573e7f"),
    "zoo-faulty": (24, "abbd43be9c97b5df18eb9cc5d54ea5e983568fbad1c0f4ddc971238b90c5e484"),
    "smoke": (16, "4db61494ca1f27d716177bc6ae7579e54e572e2f9cf7ec8ca5f95ff9e998a3bc"),
}

#: crash-stop cells of zoo-faulty never terminate (3 graphs x 2 algorithms)
NON_TERMINATED = 6

_SIM_SPANS = ("simulate.distributed", "simulate.sequential")
_VERIFY_SPANS = ("verify.oracle", "verify.check", "verify.planted")
_COMMIT_SPANS = ("commit.run", "commit.graph", "commit.flush")


def rows_digest(rows: List[Dict[str, object]]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


def seeded(campaign: Campaign, seed: int) -> Campaign:
    """``campaign`` with every cell's generator seed shifted by ``2 * seed``."""
    return Campaign(
        name=campaign.name,
        specs=[
            spec if spec.seed is None else replace(spec, seed=spec.seed + 2 * seed)
            for spec in campaign.specs
        ],
        verify=campaign.verify,
    )


@contextlib.contextmanager
def sweep_tracing(tracer: Tracer) -> Iterator[None]:
    run_single = executor_module.run_single

    def traced_run_single(*args: Any, **kwargs: Any) -> Any:
        distributed = algorithm_info(kwargs["algorithm"]).is_distributed
        span = _SIM_SPANS[0] if distributed else _SIM_SPANS[1]
        return tracer.timed(span, run_single, *args, **kwargs)

    with contextlib.ExitStack() as stack:
        for target, attr, span in (
            (RunSpec, "build_graph", "build"),
            (executor_module, "_describe_graph", "describe"),
            (MSTOracle, "__init__", "verify.oracle"),
            (MSTOracle, "verify", "verify.check"),
            (planted_checks, "assert_matches_planted_mst", "verify.planted"),
            (RunStore, "record_run", "commit.run"),
            (RunStore, "record_graph", "commit.graph"),
            (RunStore, "flush", "commit.flush"),
        ):
            original = getattr(target, attr)
            stack.enter_context(patched(target, attr, tracer.wrap(span, original)))
        stack.enter_context(patched(executor_module, "run_single", traced_run_single))
        yield


class SweepWorkload:
    """Two preset sweeps into one fresh on-disk JSONL store per operation."""

    def __init__(
        self,
        name: str,
        seed: int,
        size: str,
        workdir: Path,
        jobs: int = 1,
        batch: Optional[bool] = None,
    ) -> None:
        self.name = name
        self._executor = {"jobs": jobs, "batch": batch}
        self._seed = seed
        self._presets = SIZES[size]
        self._workdir = workdir
        self._check_pins = seed == DEFAULT_SEED
        self._digests: Optional[Tuple[str, ...]] = None
        self._campaigns: List[Campaign] = []

    def instances(self) -> int:
        return 1

    def _campaigns_for_seed(self) -> List[Campaign]:
        return [seeded(preset_campaign(name), self._seed) for name in self._presets]

    def setup(self) -> None:
        self._campaigns = self._campaigns_for_seed()

    def prepare(self, key: int) -> None:
        self._path().parent.mkdir(parents=True, exist_ok=True)
        # Fresh spec objects per operation: run keys are memoized on the
        # spec, and a real sweep pays for hashing them.
        self._campaigns = self._campaigns_for_seed()

    def _path(self) -> Path:
        return self._workdir / "sweep" / "sweep.jsonl"

    def cleanup(self, key: int) -> None:
        shutil.rmtree(self._path().parent, ignore_errors=True)

    def op(self, key: int, tracer: Optional[Tracer]) -> Tuple[Any, Dict[str, float]]:
        path = self._path()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(sweep_tracing(tracer))
            store = open_store(path)
            reports = [
                execute_campaign(campaign, store=store, **self._executor)
                for campaign in self._campaigns
            ]
            store.close()
        return ([report.rows for report in reports], path.stat().st_size), {}

    def check(self, key: int, output: Any) -> List[str]:
        """Row counts, expected non-terminations, determinism and the pins."""
        all_rows, _ = output
        errors = []
        digests = tuple(rows_digest(rows) for rows in all_rows)
        for name, rows, digest in zip(self._presets, all_rows, digests):
            expected_rows, pinned = PINS[name]
            if len(rows) != expected_rows:
                errors.append(f"{name}: {len(rows)} rows, expected {expected_rows}")
            if self._check_pins and digest != pinned:
                errors.append(f"{name}: rows sha256 {digest} differs from the pin")
        stuck = [row for rows in all_rows for row in rows if row.get("status") == "non-terminated"]
        if len(stuck) != NON_TERMINATED or any(row["condition"] != "crash-stop" for row in stuck):
            errors.append(f"{len(stuck)} non-terminated rows, expected {NON_TERMINATED} crash-stop")
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            errors.append("rows differ from the first sweep of this run")
        return errors

    def headline(self, measurement: Measurement) -> Dict[str, float]:
        ops = [op for op in measurement.untraced if not op.errors]
        return {"sweep_s": per_key_mean(ops, lambda op: op.calibrated)}

    def layers(self, measurement: Measurement) -> Tuple[Dict[str, float], List[str]]:
        traced = [op for op in measurement.traced if not op.errors]
        if not traced:
            return {}, ["no traced operation succeeded"]
        first = traced[0].tracer
        faulty_rows = traced[0].output[0][-1]
        metrics: Dict[str, float] = {
            "build.s": mean_span_seconds(traced, "build"),
            "build.graphs": first.calls["build"],
            "describe.s": mean_span_seconds(traced, "describe"),
            "describe.calls": first.calls["describe"],
            "simulate.distributed_s": mean_span_seconds(traced, _SIM_SPANS[0]),
            "simulate.sequential_s": mean_span_seconds(traced, _SIM_SPANS[1]),
            "simulate.cells": sum(first.calls[span] for span in _SIM_SPANS),
            "verify.s": mean_span_seconds(traced, *_VERIFY_SPANS),
            "verify.oracles": first.calls["verify.oracle"],
            "commit.s": mean_span_seconds(traced, *_COMMIT_SPANS),
            "commit.records": first.calls["commit.run"],
            "commit.bytes": traced[0].output[1],
            "sweep.other_s": mean_residual_seconds(traced),
            "conditions.dropped": sum(int(row.get("dropped", 0)) for row in faulty_rows),
            "conditions.retransmits": sum(int(row.get("retransmits", 0)) for row in faulty_rows),
            "conditions.non_terminated": sum(
                1 for row in faulty_rows if row.get("status") == "non-terminated"
            ),
        }
        op_s = statistics.fmean(op.seconds for op in traced)
        lines = ["per layer (traced):"]
        for name in (
            "build.s",
            "describe.s",
            "simulate.distributed_s",
            "simulate.sequential_s",
            "verify.s",
            "commit.s",
            "sweep.other_s",
        ):
            lines.append(f"  {name:<24} {metrics[name]:>9.4f} {metrics[name] / op_s:>7.1%}")
        lines.append(f"  {'traced sweep':<24} {op_s:>9.4f}")
        return metrics, lines
