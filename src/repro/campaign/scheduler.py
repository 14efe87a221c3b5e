"""Batched-parallel campaign scheduler: graph-affine units on persistent workers.

This module composes the two fast execution paths that used to be
mutually exclusive -- batching (:class:`~repro.campaign.executor._BatchRunner`)
and multiprocessing (the ``jobs > 1`` pool) -- into one scheduler:

* the pending cells are partitioned into **graph-affine work units**
  (:func:`partition_units`): cells sharing a ``graph_key`` always land
  in the same unit, so whichever worker leases the unit builds each
  graph and its verification oracle exactly once, like the in-process
  batch runner does;
* units are leased from a shared task queue to **persistent worker
  processes** -- one process lifecycle per campaign, not one pool per
  phase; a worker that finishes a unit immediately leases the next, so
  stragglers self-balance;
* each worker runs a local :class:`_BatchRunner` over its unit
  and appends the finished cells to its own **worker-local shard
  store** (``durability="batch"``, one commit per completed lease),
  so no two processes ever contend on one file;
* the parent streams lifecycle events off a result queue -- observers
  (:class:`repro.api.hooks.RunObserver`) see ``on_run_start`` /
  ``on_phase`` / ``on_result`` live, in completion order -- and folds
  every shard into the caller's store with the idempotent
  :meth:`~repro.campaign.store.RunStore.merge_from`.

Rows, store records and resume semantics are byte-identical to the
serial, batched and legacy pool paths; only wall-clock time and the
provenance ``executor`` tag (``"batched-pool-<jobs>"``) differ.  A
worker that dies mid-campaign loses only its uncommitted lease: every
shard it flushed is still folded in, the campaign raises, and a
``--resume`` completes exactly the missing cells.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.results import MSTRunResult
from ..exceptions import ConfigurationError, SimulationError
from .spec import content_hash, RunSpec
from .store import GraphDescription, open_store, RunStore

#: Target number of work units leased per worker over a campaign.
#: More units per worker means finer-grained load balancing; fewer
#: means less per-lease overhead (one queue round trip and one shard
#: commit per unit).  Four leaves enough slack for stragglers without
#: fragmenting the graph groups of small sweeps.
UNITS_PER_WORKER = 4


@dataclass(frozen=True)
class WorkUnit:
    """One lease: a run of campaign cells covering whole graph groups.

    ``cells`` carries, per cell, its campaign index, the JSON form of
    its spec (specs cross process boundaries as data) and the cached
    instance description when the parent store already held a usable
    one.  ``unit_key`` content-hashes the member run keys, so a unit's
    identity -- like every other identity of the campaign layer --
    agrees across processes, hosts and sessions.
    """

    unit_key: str
    cells: Tuple[Tuple[int, Dict[str, object], Optional[GraphDescription]], ...]


def partition_units(
    pending: Sequence[Tuple[int, RunSpec, str]],
    descriptions: Dict[str, GraphDescription],
    jobs: int,
) -> List[WorkUnit]:
    """Split the pending cells into graph-affine work units.

    Cells are grouped by ``graph_key`` in first-occurrence (campaign)
    order, and whole groups are packed greedily into units of about
    ``len(pending) / (jobs * UNITS_PER_WORKER)`` cells.  A group is
    never split: every cell sharing a graph lands in one unit, so the
    worker leasing it pays one graph build, one oracle and one
    description for the whole group.  The partition is a pure function
    of the pending cells (keys are content hashes), so re-running a
    campaign leases identical units.
    """
    groups: Dict[str, List[Tuple[int, RunSpec, str]]] = {}
    for index, spec, key in pending:
        groups.setdefault(spec.graph_key(), []).append((index, spec, key))
    target = max(1, round(len(pending) / (max(1, jobs) * UNITS_PER_WORKER)))
    units: List[WorkUnit] = []
    bucket: List[Tuple[int, RunSpec, str]] = []

    def emit() -> None:
        if not bucket:
            return
        units.append(
            WorkUnit(
                unit_key=content_hash([key for _, _, key in bucket]),
                cells=tuple(
                    (index, spec.to_json_dict(), descriptions.get(spec.graph_key()))
                    for index, spec, _ in bucket
                ),
            )
        )
        bucket.clear()

    for members in groups.values():
        bucket.extend(members)
        if len(bucket) >= target:
            emit()
    emit()
    return units


def _shard_path(shard_root: str, worker_id: int, backend: str = "jsonl") -> Path:
    """Worker-local shard store path; the backend follows the fold target.

    JSONL shards are sharded directories, columnar shards single sqlite
    files -- keeping each worker on the same backend as the caller's
    store exercises one code path end to end and keeps the fold a
    same-backend merge.
    """
    name = f"worker-{worker_id:02d}"
    if backend == "columnar":
        name += ".sqlite"
    return Path(shard_root) / name


def _transportable(error: BaseException) -> Optional[BaseException]:
    # The result queue pickles in a background feeder thread, where a
    # pickling failure would vanish silently; probe here and fall back
    # to the traceback text the parent always receives.
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return None


def _worker_main(
    worker_id: int,
    tasks: "multiprocessing.Queue",
    results: "multiprocessing.Queue",
    abort: "multiprocessing.Event",
    shard_root: str,
    shard_backend: str,
    executor_name: str,
    do_verify: bool,
    compute_diameter: bool,
    want_results: bool,
) -> None:
    """Persistent worker: lease units until the sentinel, commit per lease."""
    from .executor import _BatchRunner, _provenance

    store = open_store(
        _shard_path(shard_root, worker_id, shard_backend),
        backend=shard_backend,
        durability="batch",
    )
    busy = 0.0
    units = cells = 0
    try:
        while True:
            unit = tasks.get()
            if unit is None:
                break
            if abort.is_set():
                continue  # keep draining so every worker reaches a sentinel
            started = time.perf_counter()
            pending = [
                (index, RunSpec.from_json_dict(spec_json), "")
                for index, spec_json, _ in unit.cells
            ]
            runner = _BatchRunner(pending, do_verify, compute_diameter)
            for (index, spec, _), (_, _, description) in zip(pending, unit.cells):
                results.put(("start", worker_id, index))
                _, row, result_json, used = runner.run(index, spec, description)
                store.record_run(
                    spec, row, result_json, _provenance(spec, executor_name, do_verify)
                )
                cells += 1
                results.put(
                    ("result", worker_id, index, row,
                     result_json if want_results else None, used)
                )
            store.flush()  # group commit: one fsync per completed lease
            units += 1
            busy += time.perf_counter() - started
    except BaseException as error:
        store.flush()  # finished cells of the failing lease still count
        results.put(("error", worker_id, _transportable(error), traceback.format_exc()))
    finally:
        store.close()
        results.put(
            ("done", worker_id, {"units": units, "cells": cells, "busy_seconds": busy})
        )


def run_scheduled(
    pending: Sequence[Tuple[int, RunSpec, str]],
    descriptions: Dict[str, GraphDescription],
    store: RunStore,
    jobs: int,
    executor_name: str,
    do_verify: bool,
    compute_diameter: bool,
    observers: Sequence[object],
    record_description: Callable[[RunSpec, GraphDescription], bool],
) -> Tuple[Dict[int, Dict[str, object]], int, int, List[Dict[str, object]]]:
    """Run the pending cells on persistent workers; fold shards into ``store``.

    Returns ``(fresh, described, workers, worker_stats)``: the freshly
    simulated rows by campaign index, the number of graph descriptions
    recorded via ``record_description``, the worker count, and one
    stats dict per worker (units/cells executed, busy seconds, and
    utilization -- busy time over campaign wall time).

    The shard fold runs in a ``finally``: a worker crash or an
    interrupt still merges every committed lease before the error
    propagates, so a subsequent ``--resume`` re-runs only what was
    genuinely lost.
    """
    from .executor import _notify
    from ..simulator.engine import active_provider_count

    methods = multiprocessing.get_all_start_methods()
    if active_provider_count() and "fork" not in methods:
        # Spawned workers start from a fresh interpreter: a caller's
        # engine_provider (a live closure) cannot cross that boundary,
        # so cells would silently run on different engines than the
        # parent process intended.  Fail loudly instead.
        raise ConfigurationError(
            f"{active_provider_count()} engine provider(s) are installed but this "
            "platform cannot fork worker processes; providers do not survive "
            "spawn -- run with jobs=1 (or batch=False) inside engine_provider"
        )
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    units = partition_units(pending, descriptions, jobs)
    worker_count = min(jobs, len(units))
    tasks = context.Queue()
    results = context.Queue()
    abort = context.Event()
    for unit in units:
        tasks.put(unit)
    for _ in range(worker_count):
        tasks.put(None)  # one sentinel per worker, after every unit

    shard_root = tempfile.mkdtemp(prefix="repro-campaign-shards-")
    shard_backend = getattr(store, "backend_name", "jsonl")
    specs_by_index = {index: spec for index, spec, _ in pending}
    fresh: Dict[int, Dict[str, object]] = {}
    described = 0
    stats: Dict[int, Dict[str, object]] = {}
    finished: Set[int] = set()
    failure: Optional[Tuple[Optional[BaseException], str]] = None
    workers: List[multiprocessing.Process] = []
    started = time.perf_counter()
    try:
        for worker_id in range(worker_count):
            process = context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    tasks,
                    results,
                    abort,
                    shard_root,
                    shard_backend,
                    executor_name,
                    do_verify,
                    compute_diameter,
                    bool(observers),
                ),
                daemon=True,
            )
            process.start()
            workers.append(process)
        while len(finished) < worker_count:
            try:
                event = results.get(timeout=0.1)
            except queue.Empty:
                for worker_id, process in enumerate(workers):
                    if worker_id in finished or process.exitcode is None:
                        continue
                    # Exited without a "done" event: a hard crash.  Its
                    # committed leases are still on disk and folded in
                    # below; only the uncommitted lease is lost.
                    finished.add(worker_id)
                    abort.set()
                    if failure is None:
                        failure = (
                            None,
                            f"campaign worker {worker_id} died with exit code "
                            f"{process.exitcode}; committed leases were kept and "
                            f"resume completes the rest",
                        )
                continue
            kind = event[0]
            if kind == "start":
                _notify(observers, "on_run_start", specs_by_index[event[2]])
            elif kind == "result":
                _, _, index, row, result_json, used = event
                spec = specs_by_index[index]
                fresh[index] = row
                if record_description(spec, used):
                    described += 1
                if observers and result_json is not None:
                    result = MSTRunResult.from_json_dict(result_json)
                    for phase in result.phases:
                        _notify(observers, "on_phase", spec, phase)
                    _notify(observers, "on_result", spec, result, row)
            elif kind == "error":
                _, _, error, text = event
                abort.set()
                if failure is None:
                    failure = (error, text)
            else:  # "done"
                _, worker_id, info = event
                stats[worker_id] = info
                finished.add(worker_id)
    except BaseException:
        abort.set()
        raise
    finally:
        wall = max(time.perf_counter() - started, 1e-9)
        for process in workers:
            process.join(timeout=10.0)
        for process in workers:
            if process.is_alive():
                process.terminate()
                process.join(timeout=10.0)
        for channel in (tasks, results):
            channel.close()
            channel.cancel_join_thread()
        # Fold every shard -- including a crashed worker's committed
        # leases -- into the caller's store.  merge_from skips keys the
        # store already holds, so the fold is idempotent.
        for worker_id in range(worker_count):
            shard = _shard_path(shard_root, worker_id, shard_backend)
            if shard.exists():
                store.merge_from(shard)
        shutil.rmtree(shard_root, ignore_errors=True)
    if failure is not None:
        error, text = failure
        if isinstance(error, BaseException):
            raise error
        raise SimulationError(f"parallel campaign execution failed: {text}")
    worker_stats = []
    for worker_id in range(worker_count):
        info = stats.get(worker_id, {})
        busy = float(info.get("busy_seconds", 0.0))
        worker_stats.append(
            {
                "worker": worker_id,
                "units": int(info.get("units", 0)),
                "cells": int(info.get("cells", 0)),
                "busy_seconds": round(busy, 6),
                "utilization": round(busy / wall, 4),
            }
        )
    return fresh, described, worker_count, worker_stats
