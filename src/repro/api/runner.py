"""The :class:`Runner` facade: the one execution path for every scenario.

``Runner.run`` (one scenario), ``Runner.run_many`` (a batch, optionally
on a worker pool) and ``Runner.stream`` (lazy iteration) all route
through the campaign executor, so a one-off call gets exactly the
services a 10k-cell sweep gets: verification against the sequential
oracles, provenance stamping, run-store persistence with resume, the
graph-description cache and lifecycle hooks.  There is deliberately no
second code path -- the CLI is a shim over this facade, and
``run_single`` is the single-cell contract the executor calls for every
cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..campaign.executor import CampaignReport, execute_campaign
from ..campaign.spec import Campaign
from ..campaign.store import open_store, RunStore
from ..core.results import MSTRunResult
from ..exceptions import ConfigurationError
from .scenario import Scenario

__all__ = ["Runner", "ScenarioOutcome"]


@dataclass
class ScenarioOutcome:
    """Everything one executed scenario produced.

    Attributes:
        scenario: the scenario that ran.
        row: the flat, JSON-safe output row (same columns a campaign
            sweep reports: instance description, measured costs and --
            for the paper's algorithm -- the theorem-bound ratios).
        result: the full :class:`~repro.core.results.MSTRunResult`.
        reused: True when the run store already held the cell and the
            execution was skipped (resume).
    """

    scenario: Scenario
    row: Dict[str, object]
    result: MSTRunResult
    reused: bool = False


class Runner:
    """Scenario executor with a persistent store and lifecycle hooks.

    Args:
        store: a run store instance (any backend -- JSONL
            :class:`~repro.campaign.store.RunStore` or columnar
            :class:`~repro.campaign.columnar.ColumnarStore`), a store
            path (backend auto-detected, see
            :func:`~repro.campaign.store.open_store`), or ``None`` for
            a private in-memory store.  A store the Runner opens from a
            path is the Runner's to close: call :meth:`close`, or use
            the Runner as a context manager.
        resume: when True (default), scenarios whose content hash is
            already in the store are answered from it without
            re-simulating.
        hooks: lifecycle observers (see :mod:`repro.api.hooks`).
        compute_diameter: include the hop-diameter in instance
            descriptions (the one expensive description column).
    """

    def __init__(
        self,
        store: Union[RunStore, str, None] = None,
        resume: bool = True,
        hooks: Sequence[object] = (),
        compute_diameter: bool = True,
    ) -> None:
        self._owns_store = store is None or isinstance(store, (str, Path))
        if self._owns_store:
            self.store = open_store(store)
        else:
            self.store = store
        self.resume = resume
        self.hooks: List[object] = list(hooks)
        self.compute_diameter = compute_diameter

    def close(self) -> None:
        """Flush and close the store if this Runner opened it.

        A store instance passed in by the caller stays open: its owner
        closes it.
        """
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution -------------------------------------------------------

    def run(self, scenario: Scenario) -> ScenarioOutcome:
        """Execute one scenario and return its outcome."""
        return self.run_many([scenario])[0]

    def run_many(
        self, scenarios: Iterable[Scenario], jobs: int = 1, batch: Optional[bool] = None
    ) -> List[ScenarioOutcome]:
        """Execute a batch of scenarios, batched and optionally parallel.

        Scenarios may disagree on their ``verify`` policy; the batch is
        partitioned into at most two campaigns (verified / unverified)
        and the outcomes are returned in input order either way.  With
        ``jobs > 1`` rows are identical to the in-process ones -- more
        processes only change wall-clock time.  ``batch`` selects
        batched execution (graphs, oracles and descriptions shared
        across the cells of each distinct graph; rows byte-identical to
        the per-cell path): ``None`` (the default)
        batches everywhere -- in-process at ``jobs == 1``, and through
        the graph-affine scheduler of
        :mod:`repro.campaign.scheduler` at ``jobs > 1``, where each
        persistent worker batches the work units it leases.  ``False``
        forces the per-cell paths (serial, or the legacy process pool).
        """
        scenarios = list(scenarios)
        for position, scenario in enumerate(scenarios):
            if not isinstance(scenario, Scenario):
                raise ConfigurationError(
                    f"run_many expects Scenario instances, got "
                    f"{type(scenario).__name__} at position {position}"
                )
        outcomes: List[Optional[ScenarioOutcome]] = [None] * len(scenarios)
        for verify in (True, False):
            # Scenario coerces verify to a bool, so the two partitions
            # cover every input.
            positions = [
                index for index, s in enumerate(scenarios) if s.verify is verify
            ]
            if not positions:
                continue
            report = self._execute(
                [scenarios[index] for index in positions],
                verify=verify,
                jobs=jobs,
                batch=batch,
            )
            for index, outcome in zip(positions, self._outcomes_of(report)):
                outcomes[index] = outcome
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def report(
        self,
        output: Optional[str] = None,
        title: str = "EXPERIMENTS",
    ) -> str:
        """Render the campaign analysis report over this runner's store.

        Aggregates every row the store holds -- across all ``run`` /
        ``run_many`` calls that shared it -- into per-family tables,
        power-law scaling fits and the Theorem 3.1/3.2 bound audit (see
        :mod:`repro.analysis.report`).  When ``output`` is given the
        markdown document is also written to that path.  Returns the
        rendered markdown.
        """
        from ..analysis.report import write_report

        return write_report(self.store, output=output, title=title)

    def stream(self, scenarios: Iterable[Scenario]) -> Iterator[ScenarioOutcome]:
        """Lazily execute scenarios one by one, yielding each outcome.

        The scenarios share this runner's store, so repeated graphs hit
        the description cache and duplicate scenarios resume instead of
        re-simulating.  Useful for driving a sweep from a generator or
        reacting to outcomes mid-flight.
        """
        for scenario in scenarios:
            yield self.run(scenario)

    # -- internals -------------------------------------------------------

    def _execute(
        self,
        scenarios: List[Scenario],
        verify: bool,
        jobs: int,
        batch: Optional[bool] = None,
    ) -> CampaignReport:
        campaign = Campaign(
            name="api-runner",
            specs=[scenario.to_run_spec() for scenario in scenarios],
            verify=verify,
        )
        return execute_campaign(
            campaign,
            store=self.store,
            jobs=jobs,
            resume=self.resume,
            compute_diameter=self.compute_diameter,
            observers=self.hooks,
            batch=batch,
        )

    def _outcomes_of(self, report: CampaignReport) -> List[ScenarioOutcome]:
        store = report.store
        assert store is not None
        reused = set(report.reused_indexes)
        outcomes = []
        for index, (spec, row) in enumerate(zip(report.campaign.specs, report.rows)):
            outcomes.append(
                ScenarioOutcome(
                    scenario=Scenario.from_run_spec(spec, verify=report.campaign.verify),
                    row=row,
                    result=store.get_result(spec.run_key()),
                    reused=index in reused,
                )
            )
        return outcomes
