"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` at the repository root mirrors these lists; the
self-tests assert the two agree.  A metric a workload does not exercise
reads 0 on that workload (a sweep runs no store report; a store report
simulates nothing).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Default seed of every workload (the one the gate pins outputs for).
DEFAULT_SEED = 0

#: name -> (why it was chosen, the layer it isolates)
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "mst-dense": (
        "compute_mst, fast engine, random_connected n=2000 (k = sqrt n regime)",
        "the kernel and the bcast/cvgc/nbrx primitives",
    ),
    "mst-deep": (
        "compute_mst, fast engine, path n=500 (k = D regime)",
        "the round driver's scan of idle vertices",
    ),
    "sweep-zoo": (
        "execute_campaign on the zoo then zoo-faulty presets into one JSONL store",
        "graph build, sequential references, verification and store commits",
    ),
    "store-30k": (
        "30k real run records appended to a JSONL store, then opened and reported",
        "store append against open/scan/analyze/render",
    ),
}

#: (name, unit, better, bound): measured untraced.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

PROTOCOLS = ("bfs", "ival", "upcast", "downcast", "bcast", "cvgc", "nbrx", "edgemsg")
STAGES = ("bfs", "controlled_ghs", "intervals_and_registration", "boruvka")

#: (name, unit, better, end-to-end metric it should move on which workload)
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("driver.rounds", "count", "lower", "op_s on mst-*"),
    ("driver.visits", "count", "lower", "op_s on mst-deep"),
    ("driver.on_round_calls", "count", "lower", "op_s on mst-*"),
    ("driver.idle_frac", "ratio", "lower", "op_s on mst-deep"),
    ("driver.msgs_per_visit", "ratio", "higher", "op_s on mst-deep"),
    *(
        (f"proto.{ns}.{field}", unit, "lower", "op_s on mst-*")
        for ns in PROTOCOLS
        for field, unit in (("rounds", "count"), ("messages", "count"), ("s", "s"))
    ),
    ("kernel.deliver_s", "s", "lower", "op_s on mst-dense"),
    ("kernel.messages", "count", "lower", "op_s on mst-dense"),
    ("kernel.words", "count", "lower", "op_s on mst-dense"),
    ("kernel.us_per_msg", "us", "lower", "op_s on mst-dense"),
    *(
        (f"stage.{stage}.{field}", "count", "lower", "op_s on mst-*")
        for stage in STAGES
        for field in ("rounds", "messages")
    ),
    ("core.local_s", "s", "lower", "op_s on mst-*"),
    ("mst.other_s", "s", "lower", "op_s on mst-*"),
    ("bound.message_ratio", "ratio", "lower", "none: a count, identical under speed-only changes"),
    ("bound.round_ratio", "ratio", "lower", "none: a count, identical under speed-only changes"),
    ("bound.m_log_n_share", "ratio", "lower", "none: a property of the instance"),
    ("build.s", "s", "lower", "op_s on sweep-zoo"),
    ("build.graphs", "count", "lower", "op_s on sweep-zoo"),
    ("describe.s", "s", "lower", "op_s on sweep-zoo"),
    ("describe.calls", "count", "lower", "op_s on sweep-zoo"),
    ("simulate.distributed_s", "s", "lower", "op_s on sweep-zoo"),
    ("simulate.sequential_s", "s", "lower", "op_s on sweep-zoo"),
    ("simulate.cells", "count", "lower", "op_s on sweep-zoo"),
    ("verify.s", "s", "lower", "op_s on sweep-zoo"),
    ("verify.oracles", "count", "lower", "op_s on sweep-zoo"),
    ("sweep.other_s", "s", "lower", "op_s on sweep-zoo"),
    ("conditions.dropped", "count", "lower", "op_s on sweep-zoo"),
    ("conditions.retransmits", "count", "lower", "op_s on sweep-zoo"),
    ("conditions.non_terminated", "count", "lower", "op_s on sweep-zoo"),
    ("commit.s", "s", "lower", "op_s on sweep-zoo"),
    ("commit.records", "count", "lower", "op_s on sweep-zoo"),
    ("commit.bytes", "B", "lower", "op_s on sweep-zoo"),
    ("append.s", "s", "lower", "op_s (ingest) on store-30k"),
    ("flush.s", "s", "lower", "op_s (ingest) on store-30k"),
    ("store.bytes", "B", "lower", "op_s (ingest) on store-30k"),
    ("open.s", "s", "lower", "op_s (report) and peak_rss_mb on store-30k"),
    ("scan.s", "s", "lower", "op_s (report) and peak_rss_mb on store-30k"),
    ("analyze.s", "s", "lower", "op_s (report) on store-30k"),
    ("render.s", "s", "lower", "op_s (report) on store-30k"),
    ("render.bytes", "B", "lower", "op_s (report) on store-30k"),
    ("store.other_s", "s", "lower", "op_s on store-30k"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced over untraced time, minus 1"),
]

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    **{name: unit for name, unit, _, _ in PER_LAYER},
}


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document these lists describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [
            {
                "name": name,
                "why": f"{why}; default seed {DEFAULT_SEED}; isolates {layer}",
            }
            for name, (why, layer) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }
