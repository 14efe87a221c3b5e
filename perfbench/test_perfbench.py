"""Self-tests of the repo benchmark, on toy-size instances.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.  They check the benchmark, not the program's speed:
every workload prints every metric it names, the gate turns a perturbed
pin into a failed operation, ``BENCHMARK.json`` matches the metric
catalog, and without the program the command fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import run  # noqa: E402

assert run.import_program() is None

import wl_mst  # noqa: E402
import wl_store  # noqa: E402
import wl_sweep  # noqa: E402

WORKLOADS = tuple(catalog.WORKLOADS)

#: human-readable end-to-end lines each workload prints
HEADLINES = {
    "mst-dense": ("mst_s", "sim_msgs_per_s"),
    "mst-deep": ("mst_s", "sim_msgs_per_s"),
    "sweep-zoo": ("sweep_s",),
    "store-30k": ("ingest_s", "report_s"),
}


def toy_run(name, trace, workdir):
    return run.run(name, catalog.DEFAULT_SEED, 0.0, trace, size="toy", workdir=workdir)


def test_benchmark_json_matches_catalog():
    document = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert document == catalog.benchmark_json()


@pytest.mark.parametrize("trace", (False, True), ids=("e2e", "traced"))
@pytest.mark.parametrize("name", WORKLOADS)
def test_toy_run_prints_every_metric(name, trace, tmp_path, capsys):
    result = toy_run(name, trace, tmp_path)
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert list(result["metrics"]) == [metric[0] for metric in expected]
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    for headline in ("setup_s", "failed_frac", *HEADLINES[name]):
        assert f"  {headline} " in printed
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize(
    "name, pins, key, perturbed",
    [
        ("mst-dense", wl_mst.PINS, ("mst-dense", "toy"), (190, 4113)),
        ("sweep-zoo", wl_sweep.PINS, "smoke", (16, "0" * 64)),
        ("store-30k", wl_store.PINS, "toy", "f" * 64),
    ],
)
def test_perturbed_pin_fails_the_gate(name, pins, key, perturbed, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(pins, key, perturbed)
    result = toy_run(name, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "FAILED" in capsys.readouterr().out


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mst-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
