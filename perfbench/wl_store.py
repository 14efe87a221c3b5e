"""store-30k: append ~30k real run records to a JSONL store, then report on it.

Set-up runs a small real campaign (four families x three sizes x the
paper's algorithm, GHS and Kruskal, generator seed = the run's seed)
into an in-memory store and keeps its records.  One operation:

* ingest -- open a fresh on-disk JSONL store at the default durability
  and ``record_run`` every record, each stamped onto a distinct seed so
  every append is a new run key; close (final flush);
* report -- ``open_store(read_only=True)``, ``analyze_store``,
  ``render_markdown``.

``op_s`` is the two together, so a read-path gain that taxes appends
shows.  The traced run splits ingest into append and flush, and report
into open, scan (``iter_rows``), analyze (``analyze_rows``) and render.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import statistics
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from catalog import DEFAULT_SEED
from harness import (
    Measurement,
    mean_residual_seconds,
    mean_span_seconds,
    patched,
    per_key_mean,
    Tracer,
)

from repro.analysis.report import analyze_rows, analyze_store, render_markdown
from repro.campaign import execute_campaign, graph_spec_for, open_store, RunStore
from repro.campaign.spec import Campaign, RunSpec

#: size -> (records appended, families, sizes, algorithms of the record pool)
SIZES = {
    "full": (
        30_000,
        ("random_connected", "grid", "path", "star"),
        (16, 32, 64),
        ("elkin", "ghs", "kruskal"),
    ),
    "toy": (300, ("random_connected", "path"), (16,), ("elkin", "kruskal")),
}

#: size -> sha256 of the rendered report at the default seed
PINS = {
    "full": "82efe8ed5fc2bbf31e571e9d77d567a55db0071dd84aab496cdb05ea121155de",
    "toy": "4ad9fdd9b6454f121d2444c2ef08803b8cbcc493794b337f00ab65859ed7644b",
}

CLEAN_AUDIT = "bound-violation count: **0**"

#: generator-seed stride between the copies of one pool record
_STRIDE = 1_000_003


class StoreWorkload:
    """Ingest then report, on a fresh JSONL store per operation."""

    def __init__(
        self, name: str, seed: int, size: str, workdir: Path, backend: str = "jsonl"
    ) -> None:
        self.name = name
        self._backend = backend
        self._seed = seed
        self._records, self._families, self._sizes, self._algorithms = SIZES[size]
        self._pin = PINS[size] if seed == DEFAULT_SEED else None
        self._workdir = workdir
        self._pool: List[Tuple[RunSpec, Any, Any, Any]] = []
        self._items: List[Tuple[RunSpec, Any, Any, Any]] = []
        self._digest: Optional[str] = None

    def instances(self) -> int:
        return 1

    def setup(self) -> None:
        specs = [
            RunSpec(
                graph=graph_spec_for(family, n),
                algorithm=algorithm,
                engine="fast",
                seed=self._seed,
            )
            for family in self._families
            for n in self._sizes
            for algorithm in self._algorithms
        ]
        memory = open_store(None)
        execute_campaign(Campaign("store-pool", specs), store=memory)
        self._pool = [
            (
                RunSpec.from_json_dict(record["spec"]),
                record["row"],
                record["result"],
                record["provenance"],
            )
            for record in memory.iter_run_records()
        ]
        self._items = self._stamped()

    def _stamped(self) -> List[Tuple[RunSpec, Any, Any, Any]]:
        """``records`` appends cycling through the pool, each with its own run key."""
        pool, items = self._pool, []
        for index in range(self._records):
            spec, row, result, provenance = pool[index % len(pool)]
            copy = replace(spec, seed=spec.seed + _STRIDE * (1 + index // len(pool)))
            items.append((copy, row, result, provenance))
        return items

    def prepare(self, key: int) -> None:
        self._path().parent.mkdir(parents=True, exist_ok=True)
        # Fresh spec objects per operation: run keys are memoized on the
        # spec, and a real ingest pays for hashing them.
        self._items = self._stamped()

    def _path(self) -> Path:
        name = "runs.sqlite" if self._backend == "columnar" else "runs.jsonl"
        return self._workdir / "store" / name

    def cleanup(self, key: int) -> None:
        shutil.rmtree(self._path().parent, ignore_errors=True)

    def op(self, key: int, tracer: Optional[Tracer]) -> Tuple[Any, Dict[str, float]]:
        path = self._path()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                for attr, span in (("record_run", "append"), ("flush", "flush")):
                    wrapped = tracer.wrap(span, getattr(RunStore, attr))
                    stack.enter_context(patched(RunStore, attr, wrapped))
            start = time.perf_counter()
            store = open_store(path, backend=self._backend)
            for spec, row, result, provenance in self._items:
                store.record_run(spec, row, result, provenance)
            store.close()
            del store
            ingested = time.perf_counter()
            if tracer is None:
                with open_store(path, read_only=True) as reader:
                    document = render_markdown(analyze_store(reader))
            else:
                with tracer.timed("open", open_store, path, read_only=True) as reader:
                    rows = tracer.timed("scan", list, reader.iter_rows())
                    analysis = tracer.timed("analyze", analyze_rows, rows)
                    del rows
                    document = tracer.timed("render", render_markdown, analysis)
                    del analysis
            done = time.perf_counter()
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        output = (digest, document, path.stat().st_size)
        return output, {"ingest_s": ingested - start, "report_s": done - ingested}

    def check(self, key: int, output: Any) -> List[str]:
        digest, document, _ = output
        errors = []
        if CLEAN_AUDIT not in document:
            errors.append(f"report lacks {CLEAN_AUDIT!r}")
        if f"- rows: {self._records}\n" not in document:
            errors.append(f"report does not count {self._records} rows")
        if self._pin is not None and digest != self._pin:
            errors.append(f"report sha256 {digest} differs from the pin")
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            errors.append("report differs from the first report of this run")
        return errors

    def headline(self, measurement: Measurement) -> Dict[str, float]:
        ops = [op for op in measurement.untraced if not op.errors]
        return {
            "ingest_s": per_key_mean(ops, lambda op: op.phases["ingest_s"] * op.scale),
            "report_s": per_key_mean(ops, lambda op: op.phases["report_s"] * op.scale),
        }

    def layers(self, measurement: Measurement) -> Tuple[Dict[str, float], List[str]]:
        traced = [op for op in measurement.traced if not op.errors]
        if not traced:
            return {}, ["no traced operation succeeded"]

        _, document, size = traced[0].output
        spans = ("append", "flush", "open", "scan", "analyze", "render")
        metrics: Dict[str, float] = {f"{span}.s": mean_span_seconds(traced, span) for span in spans}
        metrics["store.bytes"] = size
        metrics["render.bytes"] = len(document.encode("utf-8"))
        metrics["store.other_s"] = mean_residual_seconds(traced)
        op_s = statistics.fmean(op.seconds for op in traced)
        lines = ["per layer (traced):"]
        for name in [f"{span}.s" for span in spans] + ["store.other_s"]:
            lines.append(f"  {name:<16} {metrics[name]:>9.4f} {metrics[name] / op_s:>7.1%}")
        lines.append(f"  {'traced op':<16} {op_s:>9.4f}")
        return metrics, lines
