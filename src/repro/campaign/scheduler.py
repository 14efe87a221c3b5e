"""Campaign scheduler: graph-affine units on persistent workers.

This is where every ``jobs > 1`` campaign runs, whichever cell runner
the parent names -- the batch runner
(:class:`~repro.campaign.executor._BatchRunner`, the default) or the
per-cell one (:class:`~repro.campaign.executor._CellRunner`,
``batch=False``):

* the pending cells are partitioned into **graph-affine work units**
  (:func:`partition_units`): cells sharing a ``graph_key`` always land
  in the same unit, so a worker batching the unit builds each graph
  and its verification oracle exactly once, like the in-process batch
  runner does;
* units are leased from a shared task queue to **persistent worker
  processes** -- one process lifecycle per campaign; a worker that
  finishes a unit immediately leases the next, so stragglers
  self-balance;
* each worker builds the named runner over its unit and reports every
  finished cell (row, result JSON, used description) on a result
  queue; workers never open a store;
* the parent is the campaign store's only writer: it commits each
  reported cell with :meth:`~repro.campaign.store.RunStore.record_run`
  at the store's own durability, then fires the observers
  (:class:`repro.api.hooks.RunObserver`) -- ``on_run_start`` /
  ``on_phase`` / ``on_result`` stream live, in completion order.

Rows, store records and resume semantics are byte-identical to the
in-process paths; only wall-clock time, the store's record order
(completion order) and the provenance ``executor`` tag
(``"batched-pool-<jobs>"``, or ``"pool-<jobs>"`` per cell) differ.  A
worker that dies mid-campaign loses only the cells it had not
reported: every reported cell is committed, the campaign raises, and a
``--resume`` completes exactly the missing cells.  Workers whose
parent died stop before their next lease.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import ConfigurationError, SimulationError
from .spec import content_hash, RunSpec
from .store import GraphDescription, RunStore

#: Target number of work units leased per worker over a campaign.
#: More units per worker means finer-grained load balancing; fewer
#: means less per-lease overhead (one queue round trip per unit).
#: Four leaves enough slack for stragglers without fragmenting the
#: graph groups of small sweeps.
UNITS_PER_WORKER = 4

#: Seconds a queue read waits before the reader looks around: a worker
#: re-checks that its parent is alive, the parent polls worker exits.
_POLL_SECONDS = 0.1


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
    never split: every cell sharing a graph lands in one unit, so a
    worker batching it pays one graph build, one oracle and one
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


def _transportable(error: BaseException) -> Optional[BaseException]:
    # The result queue pickles in a background feeder thread, where a
    # pickling failure would vanish silently; probe here and fall back
    # to the traceback text the parent always receives.
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return None


def _parent_gone() -> bool:
    parent = multiprocessing.parent_process()
    return parent is not None and not parent.is_alive()


def _worker_main(
    worker_id: int,
    tasks: "multiprocessing.Queue",
    results: "multiprocessing.Queue",
    abort: "multiprocessing.Event",
    make_runner: Callable[[Sequence[RunSpec]], Any],
) -> None:
    """Persistent worker: lease units until the sentinel, report every cell."""
    busy = 0.0
    units = cells = 0
    try:
        while not _parent_gone():
            try:
                unit = tasks.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue
            if unit is None:
                break
            if abort.is_set():
                continue  # keep draining so every worker reaches a sentinel
            started = time.perf_counter()
            specs = [RunSpec.from_json_dict(spec_json) for _, spec_json, _ in unit.cells]
            runner = make_runner(specs)
            # The description each deterministic graph's first cell used
            # serves its later cells in the unit, as the parent's store
            # serves them in-process, so a per-cell runner too describes
            # each graph once per unit.
            described: Dict[str, GraphDescription] = {}
            for spec, (index, _, description) in zip(specs, unit.cells):
                results.put(("start", worker_id, index))
                deterministic = spec.is_deterministic()
                if description is None and deterministic:
                    description = described.get(spec.graph_key())
                row, result_json, used = runner.run(spec, description)
                if deterministic:
                    described.setdefault(spec.graph_key(), used)
                cells += 1
                results.put(("result", worker_id, index, row, result_json, used))
            units += 1
            busy += time.perf_counter() - started
    except BaseException as error:
        results.put(("error", worker_id, _transportable(error), traceback.format_exc()))
    results.put(("done", worker_id, {"units": units, "cells": cells, "busy_seconds": busy}))
    if _parent_gone():
        # Nobody drains the result queue any more: exit without flushing
        # it, or this process would block forever on a full pipe.
        results.cancel_join_thread()


def run_scheduled(
    pending: Sequence[Tuple[int, RunSpec, str]],
    descriptions: Dict[str, GraphDescription],
    store: RunStore,
    jobs: int,
    make_runner: Callable[[Sequence[RunSpec]], Any],
    executor_name: str,
    do_verify: bool,
    observers: Sequence[object],
    record_description: Callable[[RunSpec, GraphDescription], bool],
) -> Tuple[Dict[int, Dict[str, object]], int, int, List[Dict[str, object]]]:
    """Run the pending cells on persistent workers, committing each to ``store``.

    Each worker builds ``make_runner(specs)`` over the cells of every
    unit it leases and calls its ``run(spec, description)`` per cell.

    Returns ``(fresh, described, workers, worker_stats)``: the freshly
    simulated rows by campaign index, the number of graph descriptions
    recorded via ``record_description``, the worker count, and one
    stats dict per worker (units/cells executed, busy seconds, and
    utilization -- busy time over campaign wall time).

    The parent is the store's only writer.  Each reported cell is
    committed with ``store.record_run`` before its ``on_result`` fires,
    so a crash of the parent or of a worker loses no cell an observer
    saw, and a subsequent ``--resume`` re-runs only uncommitted cells.
    """
    from .executor import _commit, _notify
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
            "spawn -- run with jobs=1 inside engine_provider"
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

    specs_by_index = {index: spec for index, spec, _ in pending}
    fresh: Dict[int, Dict[str, object]] = {}
    described = 0
    stats: Dict[int, Dict[str, object]] = {}
    finished: Set[int] = set()
    exited: Set[int] = set()
    failure: Optional[Tuple[Optional[BaseException], str]] = None
    workers: List[multiprocessing.Process] = []
    started = time.perf_counter()
    try:
        for worker_id in range(worker_count):
            process = context.Process(
                target=_worker_main,
                args=(worker_id, tasks, results, abort, make_runner),
                daemon=True,
            )
            process.start()
            workers.append(process)
        while len(finished) < worker_count:
            try:
                event = results.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                for worker_id, process in enumerate(workers):
                    if worker_id in finished or process.exitcode is None:
                        continue
                    if worker_id not in exited:
                        # An exited process has written every event it
                        # sent into the pipe, so the next poll drains
                        # them, its "done" included, before it can come
                        # back empty.
                        exited.add(worker_id)
                        continue
                    # Exited, and a whole empty poll later still no
                    # "done": a hard crash.  Every cell it reported is
                    # committed; only its unreported cells are lost.
                    finished.add(worker_id)
                    abort.set()
                    if failure is None:
                        failure = (
                            None,
                            f"campaign worker {worker_id} died with exit code "
                            f"{process.exitcode}; committed cells were kept and "
                            f"resume completes the rest",
                        )
                continue
            kind = event[0]
            if kind == "start":
                _notify(observers, "on_run_start", specs_by_index[event[2]])
            elif kind == "result":
                _, _, index, row, result_json, used = event
                spec = specs_by_index[index]
                if record_description(spec, used):
                    described += 1
                _commit(store, spec, row, result_json, executor_name, do_verify, observers)
                fresh[index] = row
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
