"""Execution layer: two cell runners, each in-process or on the scheduler.

Every execution mode drives each cell through the same single-cell
contract (:func:`repro.analysis.experiments.run_single`), so all of them
produce *row-for-row identical* output -- the mode only changes
wall-clock time.  A mode is two independent choices:

* ``batch`` picks the cell runner.  :class:`_BatchRunner` (the default)
  builds, describes and verifies against each distinct deterministic
  graph of the sweep once instead of once per cell.
  :class:`_CellRunner` (``batch=False``) is the per-cell oracle: it
  wraps :func:`run_spec`, so each cell builds its own graph and
  verifies inside ``run_single``.  Every cell builds its own kernel
  either way, like a standalone run.
* ``jobs`` picks where the runner runs: one cell at a time in-process
  (``jobs=1``), or on the :mod:`~repro.campaign.scheduler`'s persistent
  worker processes (``jobs>1``), which lease graph-affine work units,
  run the runner the parent names over them and report each finished
  cell to the parent.

Only the calling process writes the run store: in campaign order
in-process, in completion order on the scheduler.  Instance
descriptions (n, m, hop-diameter) are computed once per distinct
deterministic graph and cached in the store.
"""

from __future__ import annotations

import functools
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

#: A cell runner's report of one cell: its row, its result as JSON and
#: the instance description the row used.
Outcome = Tuple[Row, Dict[str, object], GraphDescription]


def _describe_graph(graph, compute_diameter: bool) -> GraphDescription:
    description: GraphDescription = {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
    }
    if compute_diameter:
        description["D"] = hop_diameter(graph)
    return description


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


def _outcome(row: Row, result: MSTRunResult) -> Outcome:
    return row, result.to_json_dict(), {key: row[key] for key in ("n", "m", "D") if key in row}


class _CellRunner:
    """Per-cell runner (``batch=False``): :func:`run_spec` for every cell.

    Each cell builds its own graph, describes it unless it is handed a
    cached description, and verifies inside ``run_single`` -- the
    reference the batch runner's rows must match byte for byte.  It
    takes the batch runner's arguments, so the scheduler builds either
    one the same way; it needs no ``specs`` up front.
    """

    def __init__(
        self, specs: Sequence[RunSpec], do_verify: bool, compute_diameter: bool
    ) -> None:
        self._do_verify = do_verify
        self._compute_diameter = compute_diameter

    def run(self, spec: RunSpec, description: Optional[GraphDescription]) -> Outcome:
        """Run one cell; return its row, result JSON and the description it used."""
        return _outcome(*run_spec(spec, description, self._do_verify, self._compute_diameter))


class _BatchRunner:
    """Batched cell runner (the default, ``batch`` not ``False``).

    Per-cell execution rebuilds the graph, its description and the
    verification references for every cell.  The batch runner hoists
    all of that to per-distinct-graph cost:

    * every distinct *deterministic* graph of its cells is built
      exactly once, up front;
    * verification runs against one cached
      :class:`~repro.verify.mst_checks.MSTOracle` per graph (planted
      tree included) instead of recomputing the references per cell;
    * instance descriptions are computed once per graph.

    Each cell still builds its own kernel through
    :func:`~repro.simulator.engine.create_engine`, exactly as a
    standalone run does: construction is O(n + m), under 1% of a zoo
    sweep (DESIGN.md, Section 10).  Non-deterministic cells (no pinned
    seed) keep the per-cell contract: a fresh graph per cell, described
    and verified individually, so their rows remain self-consistent
    samples.
    """

    def __init__(
        self, specs: Sequence[RunSpec], do_verify: bool, compute_diameter: bool
    ) -> None:
        self._do_verify = do_verify
        self._compute_diameter = compute_diameter
        self._graphs: Dict[str, nx.Graph] = {}
        self._oracles: Dict[str, object] = {}
        self._descriptions: Dict[str, GraphDescription] = {}
        for spec in specs:
            graph_key = spec.graph_key()
            if spec.is_deterministic() and graph_key not in self._graphs:
                self._graphs[graph_key] = spec.build_graph()

    def run(self, spec: RunSpec, description: Optional[GraphDescription]) -> Outcome:
        """Run one cell; same outcome contract as :meth:`_CellRunner.run`."""
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
        return _outcome(_build_row(spec, description, result), result)


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
        workers: persistent worker processes used by the scheduler
            (``0`` for in-process execution).
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
            interleaves events with the cells; the scheduler streams
            every event live, in completion order.  Resumed cells fire
            no events.
        batch: picks the cell runner.  ``None`` (the default) batches
            (see :class:`_BatchRunner`): distinct graphs are built,
            described and verified against one cached oracle each --
            several times faster on many-small-cell sweeps, with rows
            byte-identical to the per-cell path.  ``False`` runs every
            cell on its own (see :class:`_CellRunner`).  Either runner
            runs in-process at ``jobs == 1`` and on the
            :mod:`~repro.campaign.scheduler`'s persistent workers at
            ``jobs > 1``.
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

    # Instance descriptions, one per distinct graph.  Only deterministic
    # specs (pinned seed or verbatim edge list) may share a description
    # across cells or reuse the store cache; every other cell describes
    # the very graph it simulates, so rows are always self-consistent.
    # A cached description computed without the hop-diameter does not
    # satisfy a compute_diameter=True sweep -- it is recomputed and
    # overwritten.
    def _usable(cached: Optional[GraphDescription]) -> bool:
        return cached is not None and (not compute_diameter or "D" in cached)

    descriptions: Dict[str, GraphDescription] = {}
    for graph_key, spec in {spec.graph_key(): spec for _, spec, _ in pending}.items():
        if spec.is_deterministic():
            cached = store.graph_description(graph_key)
            if _usable(cached):
                descriptions[graph_key] = cached

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

    per_cell = batch is False
    make_runner = functools.partial(
        _CellRunner if per_cell else _BatchRunner,
        do_verify=do_verify,
        compute_diameter=compute_diameter,
    )
    scheduled = jobs > 1 and len(pending) > 1
    if scheduled:
        executor_name = f"pool-{jobs}" if per_cell else f"batched-pool-{jobs}"
    else:
        executor_name = "serial" if per_cell else "batched"
    fresh: Dict[int, Row] = {}
    described = 0
    workers = 0
    worker_stats: List[Dict[str, object]] = []
    try:
        if scheduled:
            from .scheduler import run_scheduled

            fresh, described, workers, worker_stats = run_scheduled(
                pending,
                descriptions,
                store,
                jobs=jobs,
                make_runner=make_runner,
                executor_name=executor_name,
                do_verify=do_verify,
                observers=observers,
                record_description=_record_description,
            )
        else:
            runner = make_runner([spec for _, spec, _ in pending])
            for index, spec, _ in pending:
                _notify(observers, "on_run_start", spec)
                # Looked up as the cell runs: the first cell of a graph
                # describes it, and its record serves the later cells.
                row, result_json, used = runner.run(spec, descriptions.get(spec.graph_key()))
                if _record_description(spec, used):
                    described += 1
                _commit(store, spec, row, result_json, executor_name, do_verify, observers)
                fresh[index] = row
    finally:
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
