"""Execution layer: serial, multiprocessing and batched campaign executors.

Every execution mode drives each cell through the same single-cell
contract (:func:`repro.analysis.experiments.run_single`), so all of them
produce *row-for-row identical* output -- the mode only changes
wall-clock time:

* serial (``jobs=1, batch=False``): one cell at a time, in-process;
* legacy pool (``jobs>1, batch=False``): a process pool created once
  per campaign and shared by the describe and run passes; graphs are
  constructed inside the worker that runs the cell (specs are data, so
  nothing heavyweight crosses process boundaries);
* batched (``jobs=1``, the default): the in-process
  :class:`_BatchRunner` builds, describes and verifies against each
  distinct deterministic graph of the sweep once instead of once per
  cell; every cell still builds its own kernel, like a standalone run;
* batched-parallel (``jobs>1``, the default): the
  :mod:`~repro.campaign.scheduler` leases graph-affine work units to
  persistent worker processes, each running the batch runner locally
  and reporting finished cells to the parent, which commits them.

Only the calling process writes the run store: in campaign order, or
in completion order on the scheduler.  Instance descriptions (n, m,
hop-diameter) are computed once per distinct graph and cached in the
store.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..analysis.bounds import elkin_bounds
from ..analysis.experiments import run_single
from ..core.results import MSTRunResult
from ..exceptions import ConfigurationError, NonTerminationError
from ..graphs.properties import hop_diameter
from ..types import CostReport
from .spec import Campaign, RunSpec
from .store import GraphDescription, RunStore

#: One flat output row (column name -> JSON-safe value).
Row = Dict[str, object]


def _describe_graph(graph, compute_diameter: bool) -> GraphDescription:
    description: GraphDescription = {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
    }
    if compute_diameter:
        description["D"] = hop_diameter(graph)
    return description


def describe_instance(spec: RunSpec, compute_diameter: bool = True) -> GraphDescription:
    """Instance description (n, m and optionally hop-diameter) for a spec."""
    return _describe_graph(spec.build_graph(), compute_diameter)


def _build_row(spec: RunSpec, description: GraphDescription, result: MSTRunResult) -> Row:
    """Assemble the flat output row for one completed cell.

    The columns are the instance description, ``engine`` and ``seed``
    for provenance, the measured costs and, for the paper's algorithm,
    the theorem-bound ratio columns (:func:`elkin_bounds`).  Conditioned
    cells additionally carry the condition label/key, a ``status``
    column (``"ok"`` / ``"non-terminated"``) and the observed-fault
    telemetry; unconditioned rows keep the exact pre-existing column
    set, so old stores and row hashes stay comparable.
    """
    row: Row = {"graph": spec.display_label()}
    row.update(description)
    row.update(
        {
            "algorithm": spec.algorithm,
            "bandwidth": spec.bandwidth,
            "engine": spec.engine,
            "seed": spec.seed,
            "k": result.details.get("k"),
            "rounds": result.rounds,
            "messages": result.messages,
            "weight": round(result.total_weight, 6),
        }
    )
    condition = spec.condition
    non_terminated = bool(result.details.get("non_terminated"))
    if condition is not None:
        telemetry = result.details.get("condition") or {}
        row.update(
            {
                "condition": condition.label(),
                "condition_key": condition.key(),
                "status": "non-terminated" if non_terminated else "ok",
                "dropped": telemetry.get("dropped", 0),
                "delayed": telemetry.get("delayed", 0),
                "retransmits": telemetry.get("retransmits", 0),
                "crash_omissions": telemetry.get("crash_omissions", 0),
            }
        )
        if non_terminated:
            row["round_cap"] = result.details.get("round_cap")
    if spec.algorithm == "elkin" and not non_terminated:
        # A conditioned run gets the condition-stretched bounds, so the
        # ratio columns never flag fault-model artifacts.
        round_bound, message_bound = elkin_bounds(
            result.n,
            result.m,
            spec.bandwidth,
            diameter=row.get("D"),
            bfs_depth=result.details.get("bfs_depth"),
            condition=condition,
        )
        if round_bound is not None:
            row["round_bound"] = round(round_bound)
            row["round_ratio"] = round(result.rounds / round_bound, 3)
        row["message_bound"] = round(message_bound)
        row["message_ratio"] = round(result.messages / message_bound, 3)
    return row


def _non_terminated_result(
    spec: RunSpec, graph: nx.Graph, error: NonTerminationError
) -> MSTRunResult:
    """Synthetic result recording a condition-induced non-termination.

    The cell produced no tree; the row still needs to exist (with the
    round cap and partial costs) so sweeps over crash schedules resume
    and report deterministically instead of hanging or dying.
    """
    return MSTRunResult(
        algorithm=spec.algorithm,
        edges=set(),
        total_weight=0.0,
        cost=CostReport(
            rounds=error.rounds or 0,
            messages=error.messages or 0,
            words=error.words or 0,
        ),
        n=graph.number_of_nodes(),
        m=graph.number_of_edges(),
        bandwidth=spec.bandwidth,
        details={
            "non_terminated": True,
            "round_cap": error.round_cap,
            "condition": getattr(error, "condition_telemetry", None),
            "error": str(error),
            **({} if spec.seed is None else {"seed": spec.seed}),
        },
    )


def run_spec(
    spec: RunSpec,
    description: Optional[GraphDescription] = None,
    verify: bool = True,
    compute_diameter: bool = True,
) -> Tuple[Row, MSTRunResult]:
    """Run one cell: build the graph, simulate, verify, build the row.

    Delegates the single-execution contract (RunConfig assembly, seed
    provenance, deferred verification) to
    :func:`repro.analysis.experiments.run_single` so campaign cells and
    direct calls can never diverge.
    """
    graph = spec.build_graph()
    if description is None:
        description = _describe_graph(graph, compute_diameter)
    result = _simulate(spec, graph, verify)
    return _build_row(spec, description, result), result


def _simulate(spec: RunSpec, graph: nx.Graph, verify: bool) -> MSTRunResult:
    """Simulate one cell on ``graph``; a conditioned non-termination becomes a result."""
    try:
        return run_single(
            graph,
            algorithm=spec.algorithm,
            bandwidth=spec.bandwidth,
            verify=verify,
            base_forest_k=spec.base_forest_k,
            engine=spec.engine,
            seed=spec.seed,
            collect_telemetry=spec.collect_telemetry,
            strict_bounds=spec.strict_bounds,
            condition=spec.condition,
        )
    except NonTerminationError as error:
        if spec.condition is None:
            raise
        return _non_terminated_result(spec, graph, error)


class _BatchRunner:
    """In-process batched cell runner (the ``batch=True`` execution path).

    Serial per-cell execution rebuilds the graph, its description and
    the verification references for every cell.  The batch runner
    hoists all of that to per-distinct-graph cost:

    * every distinct *deterministic* graph of the pending cells is built
      exactly once, up front;
    * verification runs against one cached
      :class:`~repro.verify.mst_checks.MSTOracle` per graph (planted
      tree included) instead of recomputing the references per cell;
    * instance descriptions are computed once per graph.

    Each cell still builds its own kernel through
    :func:`~repro.simulator.engine.create_engine`, exactly as a
    standalone run does: construction is O(n + m), under 1% of a zoo
    sweep (DESIGN.md, Section 10).  Non-deterministic cells (no pinned
    seed) keep the serial contract: a fresh graph per cell, described
    and verified individually, so their rows remain self-consistent
    samples.
    """

    def __init__(
        self,
        pending: Sequence[Tuple[int, RunSpec, str]],
        do_verify: bool,
        compute_diameter: bool,
    ) -> None:
        self._do_verify = do_verify
        self._compute_diameter = compute_diameter
        self._graphs: Dict[str, nx.Graph] = {}
        self._oracles: Dict[str, object] = {}
        self._descriptions: Dict[str, GraphDescription] = {}
        for _, spec, _ in pending:
            graph_key = spec.graph_key()
            if spec.is_deterministic() and graph_key not in self._graphs:
                self._graphs[graph_key] = spec.build_graph()

    def run(
        self,
        index: int,
        spec: RunSpec,
        description: Optional[GraphDescription],
    ) -> Tuple[int, Row, Dict[str, object], GraphDescription]:
        """Run one cell; same outcome contract as :func:`_run_worker`."""
        deterministic = spec.is_deterministic()
        graph_key = spec.graph_key()
        graph = self._graphs.get(graph_key) if deterministic else None
        if graph is None:
            graph = spec.build_graph()
        if description is None and deterministic:
            description = self._descriptions.get(graph_key)
        if description is None:
            description = _describe_graph(graph, self._compute_diameter)
            if deterministic:
                self._descriptions[graph_key] = description
        # verify=False: the cell is verified below against the cached
        # per-graph MSTOracle, the verifier run_single builds per call.
        result = _simulate(spec, graph, verify=False)
        if self._do_verify and not result.details.get("non_terminated"):
            oracle = self._oracles.get(graph_key) if deterministic else None
            if oracle is None:
                from ..verify.mst_checks import MSTOracle

                oracle = MSTOracle(graph)
                if deterministic:
                    self._oracles[graph_key] = oracle
            oracle.verify(result)
        row = _build_row(spec, description, result)
        used = {key: row[key] for key in ("n", "m", "D") if key in row}
        return index, row, result.to_json_dict(), used


# -- picklable worker entry points (top level for multiprocessing) -------


def _describe_worker(
    payload: Tuple[str, Dict[str, object], bool],
) -> Tuple[str, GraphDescription]:
    graph_key, spec_json, compute_diameter = payload
    spec = RunSpec.from_json_dict(spec_json)
    return graph_key, describe_instance(spec, compute_diameter=compute_diameter)


def _run_worker(
    payload: Tuple[int, Dict[str, object], Optional[GraphDescription], bool, bool],
) -> Tuple[int, Row, Dict[str, object], GraphDescription]:
    index, spec_json, description, verify, compute_diameter = payload
    spec = RunSpec.from_json_dict(spec_json)
    row, result = run_spec(
        spec, description=description, verify=verify, compute_diameter=compute_diameter
    )
    used = {key: row[key] for key in ("n", "m", "D") if key in row}
    return index, row, result.to_json_dict(), used


def _map_payloads(worker, payloads: Sequence[object], jobs: int, pool=None) -> List[object]:
    """Run ``worker`` over payloads, serially or on the campaign's pool.

    The pool, when one is passed, was created once by
    :func:`execute_campaign` and is shared by the describe and run
    passes -- one worker lifecycle per campaign, not one per phase.
    ``chunksize=1`` keeps scheduling deterministic-agnostic: results are
    returned in payload order either way, so output never depends on
    which worker finished first.
    """
    if pool is None or jobs <= 1 or len(payloads) <= 1:
        return [worker(payload) for payload in payloads]
    return pool.map(worker, payloads, chunksize=1)


def _notify(observers: Sequence[object], method: str, *args: object) -> None:
    """Dispatch a lifecycle event to every observer implementing it.

    Observers follow the :class:`repro.api.hooks.RunObserver` protocol
    (``on_run_start`` / ``on_phase`` / ``on_result``); each method is
    optional, so plain objects implementing a subset work too.  The
    executor duck-types the dispatch to stay importable without the api
    layer.
    """
    for observer in observers:
        hook = getattr(observer, method, None)
        if hook is not None:
            hook(*args)


def _commit(
    store: RunStore,
    spec: RunSpec,
    row: Row,
    result_json: Dict[str, object],
    executor: str,
    verified: bool,
    observers: Sequence[object],
) -> None:
    """Commit one finished cell to ``store``, then fire its result events.

    Committing first means that at ``durability="record"`` no crash can
    lose a cell an observer has already seen.
    """
    store.record_run(spec, row, result_json, _provenance(spec, executor, verified))
    if observers:
        result = MSTRunResult.from_json_dict(result_json)
        for phase in result.phases:
            _notify(observers, "on_phase", spec, phase)
        _notify(observers, "on_result", spec, result, row)


def _provenance(spec: RunSpec, executor: str, verified: bool) -> Dict[str, object]:
    from .. import __version__

    return {
        "package_version": __version__,
        "algorithm": spec.algorithm,
        "engine": spec.engine,
        "seed": spec.seed,
        "executor": executor,
        "verified": verified,
        # Non-deterministic cells (no pinned seed) record *a* sample;
        # resuming them replays that sample rather than a fresh draw.
        "deterministic": spec.is_deterministic(),
    }


@dataclass
class CampaignReport:
    """Outcome of one :func:`execute_campaign` call.

    Attributes:
        campaign: the campaign that was executed.
        rows: one flat row per cell, in campaign (grid) order --
            regardless of which cells were freshly simulated and which
            were reused from the store.
        executed: number of cells simulated by this call.
        reused: number of cells skipped because the store already held
            their run key (resume).
        described: number of instance descriptions computed by this
            call (cache misses of the graph-description cache).
        reused_indexes: campaign indexes of the cells answered from the
            store (sorted); ``reused == len(reused_indexes)``.
        store: the run store the campaign was executed against.
        workers: persistent worker processes used by the batched-parallel
            scheduler (``0`` for in-process and legacy pool execution).
        worker_stats: one dict per scheduler worker -- ``worker``,
            ``units`` and ``cells`` executed, ``busy_seconds``, and
            ``utilization`` (busy time over campaign wall time).
    """

    campaign: Campaign
    rows: List[Row] = field(default_factory=list)
    executed: int = 0
    reused: int = 0
    described: int = 0
    reused_indexes: List[int] = field(default_factory=list)
    store: Optional[RunStore] = None
    workers: int = 0
    worker_stats: List[Dict[str, object]] = field(default_factory=list)

    def summary(self) -> str:
        text = (
            f"campaign {self.campaign.name!r}: {len(self.rows)} cells "
            f"({self.executed} executed, {self.reused} reused)"
        )
        if self.workers:
            utilization = ", ".join(
                f"w{stat['worker']} {float(stat['utilization']):.0%}"
                for stat in self.worker_stats
            )
            text += f" on {self.workers} workers ({utilization})"
        return text


def execute_campaign(
    campaign: Campaign,
    store: Optional[RunStore] = None,
    jobs: int = 1,
    resume: bool = True,
    verify: Optional[bool] = None,
    compute_diameter: bool = True,
    observers: Sequence[object] = (),
    batch: Optional[bool] = None,
) -> CampaignReport:
    """Execute every cell of ``campaign`` and return the ordered rows.

    Args:
        campaign: the grid to run.
        store: run store for persistence and resume; ``None`` uses a
            fresh in-memory store (everything is recomputed).
        jobs: worker processes; ``1`` runs in-process.  Every parallel
            path produces rows identical to the in-process one.
        resume: when True (the default), cells whose run key is already
            in the store are *not* re-simulated; their stored rows are
            returned in place.  When False every cell is re-run and the
            store records are overwritten.
        verify: override of ``campaign.verify`` (checks every MST
            against the sequential oracle inside the worker).
        compute_diameter: include the hop-diameter ``D`` in instance
            descriptions (the one expensive description field).
        observers: lifecycle hooks (see
            :class:`repro.api.hooks.RunObserver`).  In-process execution
            interleaves events with the cells; the batched-parallel
            scheduler streams every event live, in completion order; the
            legacy pool fires every ``on_run_start`` at dispatch time
            and the ``on_phase`` / ``on_result`` events in campaign
            order once the pool drains.  Resumed cells fire no events.
        batch: batched execution (see :class:`_BatchRunner`): distinct
            graphs are built, described and verified against one cached
            oracle each -- several times faster on many-small-cell
            sweeps, with rows byte-identical to the per-cell path.  With
            ``jobs > 1`` batching composes with multiprocessing: the
            :mod:`~repro.campaign.scheduler` leases graph-affine work
            units to persistent workers, each batching its units
            locally.  ``None`` (the default) batches everywhere;
            ``False`` forces the per-cell paths (serial, or the legacy
            process pool when ``jobs > 1``).
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    store = store if store is not None else RunStore(None)
    do_verify = campaign.verify if verify is None else verify

    keys = campaign.run_keys()
    pending: List[Tuple[int, RunSpec, str]] = []
    reused_keys: Dict[int, str] = {}
    for index, (spec, key) in enumerate(zip(campaign.specs, keys)):
        # A stored cell satisfies this call only if it was verified at
        # least as strongly: when this sweep wants verification, an
        # unverified record (e.g. from an earlier --no-verify run) is
        # re-simulated rather than silently replayed.
        reusable = (
            resume
            and store.has_run(key)
            and (not do_verify or store.get_provenance(key).get("verified", False))
        )
        if reusable:
            reused_keys[index] = key
        else:
            pending.append((index, spec, key))

    # Instance descriptions, computed once per distinct graph.  Only
    # deterministic specs (pinned seed or verbatim edge list) may share
    # a description across cells or reuse the store cache; every other
    # cell derives its description inside the run worker from the very
    # graph it simulates, so rows are always self-consistent.  A cached
    # description computed without the hop-diameter does not satisfy a
    # compute_diameter=True sweep -- it is recomputed and overwritten.
    def _usable(cached: Optional[GraphDescription]) -> bool:
        return cached is not None and (not compute_diameter or "D" in cached)

    # Pending cells run in-process (one at a time) unless a pool is both
    # requested and worthwhile; execution batches by default, composing
    # with multiprocessing through the graph-affine scheduler.
    in_process = jobs <= 1 or len(pending) <= 1
    use_batch = in_process and batch is not False and bool(pending)
    use_scheduler = not in_process and batch is not False

    described = 0
    descriptions: Dict[str, GraphDescription] = {}
    describe_payloads: List[Tuple[str, Dict[str, object], bool]] = []
    if pending:
        groups: Dict[str, List[RunSpec]] = {}
        for _, spec, _ in pending:
            groups.setdefault(spec.graph_key(), []).append(spec)
        for graph_key, members in groups.items():
            if not members[0].is_deterministic():
                continue
            cached = store.graph_description(graph_key)
            if _usable(cached):
                descriptions[graph_key] = cached
            elif len(members) > 1 and not use_batch and not use_scheduler:
                # Worth a dedicated pass: one description serves many
                # cells.  The batch runner -- in-process or inside a
                # scheduler worker -- instead describes the graph it
                # already built, so those paths never take this pass.
                describe_payloads.append(
                    (graph_key, members[0].to_json_dict(), compute_diameter)
                )
            # Single-cell graphs: the run worker describes the graph it
            # builds anyway; the result is recorded into the cache below.

    def _record_description(spec: RunSpec, used: GraphDescription) -> bool:
        """Cache a description a run produced; True when it was news."""
        graph_key = spec.graph_key()
        if (
            spec.is_deterministic()
            and graph_key not in descriptions
            and not _usable(store.graph_description(graph_key))
        ):
            store.record_graph(graph_key, used)
            descriptions[graph_key] = used
            return True
        return False

    # Simulate the pending cells (graphs are built inside each worker).
    if use_batch:
        executor_name = "batched"
    elif use_scheduler:
        executor_name = f"batched-pool-{jobs}"
    else:
        executor_name = "serial" if jobs <= 1 else f"pool-{jobs}"
    fresh: Dict[int, Row] = {}
    workers = 0
    worker_stats: List[Dict[str, object]] = []
    pool = None
    try:
        if not in_process and not use_scheduler:
            # One worker lifecycle per campaign: the legacy pool path
            # shares this pool across the describe and run passes
            # instead of spawning a throwaway pool for each phase.
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
            pool = multiprocessing.get_context(method).Pool(
                processes=min(jobs, len(pending))
            )
        for graph_key, description in _map_payloads(
            _describe_worker, describe_payloads, jobs, pool=pool
        ):
            store.record_graph(graph_key, description)
            descriptions[graph_key] = description
            described += 1
        if use_scheduler:
            from .scheduler import run_scheduled

            fresh, described_in_units, workers, worker_stats = run_scheduled(
                pending,
                descriptions,
                store,
                jobs=jobs,
                executor_name=executor_name,
                do_verify=do_verify,
                compute_diameter=compute_diameter,
                observers=observers,
                record_description=_record_description,
            )
            described += described_in_units
        else:
            # The batch runner consumes specs directly; only the worker
            # path needs the JSON form (it crosses a process boundary).
            payloads = [
                (
                    index,
                    None if use_batch else spec.to_json_dict(),
                    descriptions.get(spec.graph_key()),
                    do_verify,
                    compute_diameter,
                )
                for index, spec, _ in pending
            ]
            runner = (
                _BatchRunner(pending, do_verify, compute_diameter) if use_batch else None
            )
            if in_process:
                # Run inline below so observers see each cell's events live.
                outcomes: List[object] = [None] * len(payloads)
            else:
                for _, spec, _ in pending:
                    _notify(observers, "on_run_start", spec)
                outcomes = _map_payloads(_run_worker, payloads, jobs, pool=pool)
            for (index, spec, _), payload, outcome in zip(pending, payloads, outcomes):
                if in_process:
                    _notify(observers, "on_run_start", spec)
                    outcome = (
                        runner.run(index, spec, payload[2])
                        if runner is not None
                        else _run_worker(payload)
                    )
                out_index, row, result_json, used = outcome
                assert index == out_index
                if _record_description(spec, used):
                    described += 1
                _commit(store, spec, row, result_json, executor_name, do_verify, observers)
                fresh[index] = row
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
        # Group-commit contract: whatever durability level the store
        # runs at, a campaign that returned has all of its records on
        # disk -- and one that *raised* (verification failure, Ctrl-C,
        # a dead scheduler worker) still persists every completed cell,
        # exactly as the v1 per-record store did, so --resume re-runs
        # nothing finished.
        store.flush()
    rows = [
        fresh[index] if index in fresh else store.get_row(reused_keys[index])
        for index in range(len(campaign.specs))
    ]
    return CampaignReport(
        campaign=campaign,
        rows=rows,
        executed=len(fresh),
        reused=len(reused_keys),
        described=described,
        reused_indexes=sorted(reused_keys),
        store=store,
        workers=workers,
        worker_stats=worker_stats,
    )
