"""E17 (engineering): report latency, columnar ``run_rows`` vs JSONL.

``repro-mst report`` over a JSONL store must parse every physical
record -- spec, result (with telemetry) and provenance payloads
included -- before the analysis sees a single row.  The columnar
backend stores the report-facing row projection in its own ``run_rows``
table, so the same ``analyze_store`` scan reads only the rows and the
full payloads stay cold on disk.

This benchmark synthesizes a >=10^5-row store (one real simulated
payload per graph size, replicated across distinct seeds so every
record carries a distinct content-hashed key), renders the report from
both backends through ``analyze_store`` + ``render_markdown``, and
asserts:

* the columnar report clears a >=5x latency floor over the JSONL
  report (``REPRO_E17_MIN_SPEEDUP`` overrides; CI relaxes it for shared
  runners -- never lower it locally to make a change pass);
* the analyses are *identical* across the two backends, down to the
  rendered markdown bytes.

``REPRO_E17_WRITE_JSON=<path>`` additionally writes the measured table
(the checked-in ``BENCH_E17.json`` is produced this way).
"""

from __future__ import annotations

import json
import os
import time

from conftest import run_once

from repro.analysis.report import analyze_store, render_markdown
from repro.campaign import ColumnarStore, graph_spec_for, run_spec, RunStore
from repro.campaign.spec import RunSpec

#: Hard floor for the columnar-vs-JSONL report latency ratio.
MIN_SPEEDUP = float(os.environ.get("REPRO_E17_MIN_SPEEDUP", "5.0"))
ROWS = int(os.environ.get("REPRO_E17_ROWS", "100000"))
SIZES = (16, 32, 64)
EXPERIMENT = "E17: report latency, columnar run_rows vs JSONL"


def _payloads():
    """One real (row, result, provenance) payload per graph size.

    Telemetry stays on (the default a sweep records), so the JSONL side
    pays the realistic per-record parse cost.  The bound columns ride
    in the row, so replicating the payload keeps the audit at zero
    violations no matter how many seeds it is stamped onto.
    """
    payloads = []
    for n in SIZES:
        spec = RunSpec(graph=graph_spec_for("random_connected", n, seed=0), algorithm="elkin")
        row, result = run_spec(spec)
        payloads.append((n, row, result.to_json_dict()))
    return payloads


def _populate(store, payloads, count):
    provenance = {"executor": "bench-e17", "verified": True}
    for index in range(count):
        n, row, result_json = payloads[index % len(payloads)]
        spec = RunSpec(
            graph=graph_spec_for("random_connected", n, seed=index),
            algorithm="elkin",
        )
        store.record_run(spec, row, result_json, provenance)
    store.close()


def _timed_report(path, backend_cls):
    start = time.perf_counter()
    with backend_cls(path, read_only=True) as store:
        analysis = analyze_store(store)
        document = render_markdown(analysis)
    return time.perf_counter() - start, analysis, document


def test_e17_columnar_report_latency(benchmark, record, tmp_path):
    payloads = _payloads()
    jsonl_path = tmp_path / "runs.jsonl"
    columnar_path = tmp_path / "runs.sqlite"
    _populate(RunStore(jsonl_path, durability="none"), payloads, ROWS)
    _populate(ColumnarStore(columnar_path, durability="none"), payloads, ROWS)

    def run():
        return {
            "jsonl": _timed_report(jsonl_path, RunStore),
            "columnar": _timed_report(columnar_path, ColumnarStore),
        }

    reports = run_once(benchmark, run)
    jsonl_seconds = reports["jsonl"][0]
    rows = [
        {
            "report path": name,
            "rows": ROWS,
            "seconds": round(seconds, 3),
            "rows/s": int(ROWS / seconds),
            "vs jsonl": f"{jsonl_seconds / seconds:.2f}x",
        }
        for name, (seconds, _, _) in (
            ("jsonl", reports["jsonl"]),
            ("columnar run_rows", reports["columnar"]),
        )
    ]
    speedup = jsonl_seconds / reports["columnar"][0]
    benchmark.extra_info["rows_in_store"] = ROWS
    benchmark.extra_info["columnar_speedup"] = round(speedup, 3)
    record(EXPERIMENT, rows)

    json_path = os.environ.get("REPRO_E17_WRITE_JSON")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "experiment": EXPERIMENT,
                    "min_speedup_floor": MIN_SPEEDUP,
                    "columnar_speedup": round(speedup, 3),
                    "rows": rows,
                },
                handle,
                indent=2,
            )
            handle.write("\n")

    # Correctness before speed: both backends agree to the byte.
    assert reports["columnar"][1] == reports["jsonl"][1]
    assert reports["columnar"][2] == reports["jsonl"][2]
    assert "bound-violation count: **0**" in reports["columnar"][2]
    assert (
        speedup >= MIN_SPEEDUP
    ), f"columnar report speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor"
