"""Batched execution: byte-identity with the per-cell path, and what it saves.

The contract under test: ``execute_campaign(batch=True)`` (and the
default in-process batching) produces rows, store records and resume
behaviour *byte-identical* to the per-cell serial executor over the same
grid -- batching buys wall-clock time only, by building, describing and
verifying against each distinct graph once while every cell still
builds its own kernel.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
import queue
import signal
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.algorithms import run_algorithm
from repro.campaign import Campaign, execute_campaign, executor, RunStore
from repro.campaign.scheduler import _worker_main, partition_units, WorkUnit
from repro.campaign.spec import graph_spec_for, RunSpec
from repro.exceptions import (
    ConfigurationError,
    SimulationError,
    VerificationError,
)
from repro.graphs.generators import GraphSpec, make_graph
from repro.simulator.engine import (
    active_provider_count,
    create_engine,
    engine_provider,
    register_engine,
)
from repro.simulator.fast_network import FastNetwork
from repro.verify.mst_checks import MSTOracle


def _sixteen_cell_grid() -> Campaign:
    """2 graphs x 2 algorithms x 2 bandwidths x 2 seeds on the fast kernel."""
    graphs = [
        graph_spec_for("random_connected", 20),
        graph_spec_for("planted_fragments", 16),
    ]
    return Campaign.from_grid(
        "batched-eq",
        graphs,
        algorithms=("elkin", "boruvka_seq"),
        bandwidths=(1, 2),
        engines=("fast",),
        seeds=(0, 1),
    )


def _shared_and_single_cell_grid() -> Campaign:
    """The sixteen-cell grid plus two graphs that serve one cell each."""
    singles = [
        RunSpec(graph=graph_spec_for(family, 14), algorithm="elkin", engine="fast", seed=0)
        for family in ("path", "grid")
    ]
    return Campaign("shared-and-single", _sixteen_cell_grid().specs + singles)


def _execute_into(path, campaign, **kwargs):
    """``execute_campaign`` into the JSONL store at ``path``, then close it."""
    with RunStore(path) as store:
        return execute_campaign(campaign, store=store, **kwargs)


def _untagged_records(path):
    """The store's records in file order, without the provenance ``executor`` tag."""
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    for record in records:
        record.get("provenance", {}).pop("executor", None)
    return records


class TestBatchedEquivalence:
    def test_rows_and_store_records_byte_identical(self, tmp_path):
        campaign = _sixteen_cell_grid()
        assert len(campaign) == 16
        serial = _execute_into(tmp_path / "serial.jsonl", campaign, batch=False)
        batched = _execute_into(tmp_path / "batched.jsonl", campaign, batch=True)
        serial_store, batched_store = serial.store, batched.store

        assert serial.rows == batched.rows
        assert serial_store.run_keys() == batched_store.run_keys()
        for spec in campaign.specs:
            key = spec.run_key()
            assert json.dumps(serial_store.get_row(key), sort_keys=True) == json.dumps(
                batched_store.get_row(key), sort_keys=True
            )
            assert (
                serial_store.get_result(key).to_json_dict()
                == batched_store.get_result(key).to_json_dict()
            )
            assert serial_store.get_spec(key) == batched_store.get_spec(key)

    def test_per_cell_store_matches_the_batched_store_line_for_line(self, tmp_path):
        """Each cell looks its graph's description up as it runs, so the
        first cell of a graph writes its description, whichever runner
        ran it; a describe pass used to write the shared graphs first."""
        campaign = _shared_and_single_cell_grid()
        per_cell = _execute_into(tmp_path / "per-cell.jsonl", campaign, batch=False)
        batched = _execute_into(tmp_path / "batched.jsonl", campaign)
        assert per_cell.described == batched.described == 6
        assert _untagged_records(tmp_path / "per-cell.jsonl") == _untagged_records(
            tmp_path / "batched.jsonl"
        )

    def test_resume_across_execution_modes(self, tmp_path):
        campaign = _sixteen_cell_grid()
        store_path = tmp_path / "store.jsonl"
        first = _execute_into(store_path, campaign, batch=False)
        assert first.executed == 16
        # A batched run resumes every per-cell record...
        resumed = _execute_into(store_path, campaign, batch=True)
        assert resumed.executed == 0
        assert resumed.reused == 16
        assert resumed.rows == first.rows
        # ... and vice versa: per-cell execution resumes batched records.
        batched_path = tmp_path / "batched.jsonl"
        second = _execute_into(batched_path, campaign, batch=True)
        reresumed = _execute_into(batched_path, campaign, batch=False)
        assert reresumed.executed == 0
        assert reresumed.rows == second.rows

    def test_default_in_process_execution_batches(self, tmp_path):
        campaign = _sixteen_cell_grid()
        report = _execute_into(tmp_path / "s.jsonl", campaign)
        provenance = report.store.get_provenance(campaign.specs[0].run_key())
        assert provenance["executor"] == "batched"
        explicit = execute_campaign(campaign, batch=False)
        assert report.rows == explicit.rows

    def test_parallel_rows_match_batched_rows(self):
        campaign = _sixteen_cell_grid()
        batched = execute_campaign(campaign, batch=True)
        pooled = execute_campaign(campaign, jobs=2)
        assert batched.rows == pooled.rows

    def test_nondeterministic_cells_stay_self_consistent(self):
        # No pinned seed: every cell must draw its own instance, and the
        # row's instance description must match the simulated graph.
        campaign = Campaign.from_grid(
            "nondet",
            [GraphSpec("random_connected", {"n": 18})],
            algorithms=("elkin",),
            seeds=(None,),
        )
        report = execute_campaign(campaign, batch=True)
        row = report.rows[0]
        result = report.store.get_result(campaign.specs[0].run_key())
        assert row["n"] == result.n and row["m"] == result.m

    def test_batched_verification_still_catches_wrong_results(self):
        from repro.algorithms import AlgorithmInfo, register_algorithm, _REGISTRY

        def broken(graph, config=None):
            result = run_algorithm(graph, "kruskal", config)
            result.edges = set(list(result.edges)[:-1])  # drop an edge
            result.algorithm = "broken"
            return result

        register_algorithm(
            AlgorithmInfo(
                name="broken",
                runner=broken,
                family="sequential-baseline",
                is_distributed=False,
            )
        )
        try:
            campaign = Campaign.from_grid(
                "broken",
                [graph_spec_for("random_connected", 16)],
                algorithms=("broken",),
                seeds=(0,),
            )
            with pytest.raises(VerificationError):
                execute_campaign(campaign, batch=True)
        finally:
            _REGISTRY.pop("broken", None)

    def test_batched_stands_down_when_fast_engine_is_replaced(self):
        # A re-registered "fast" kernel must be honoured: the batch
        # runner builds every cell's kernel through the registry.
        created = []

        class CountingFast(FastNetwork):
            __slots__ = ()

            def __init__(self, graph, bandwidth=1, validate=True):
                created.append(id(graph))
                super().__init__(graph, bandwidth=bandwidth, validate=validate)

        register_engine("fast", CountingFast)
        try:
            campaign = Campaign.from_grid(
                "swapped",
                [graph_spec_for("random_connected", 16)],
                algorithms=("elkin",),
                engines=("fast",),
                seeds=(0,),
            )
            report = execute_campaign(campaign, batch=True)
            assert created, "replacement engine was never constructed"
            assert report.executed == 1
        finally:
            register_engine("fast", FastNetwork)


class TestWhatBatchingShares:
    """What the batch runner saves over per-cell execution, by count.

    ``_sixteen_cell_grid`` has 4 distinct graphs (2 specs x 2 seeds),
    each serving 2 algorithms x 2 bandwidths.  Batched, every graph is
    built, described and given an oracle once; every ``elkin`` cell
    still builds a fresh kernel of its own.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            RunSpec, "build_graph", counting("build_graph", RunSpec.build_graph)
        )
        monkeypatch.setattr(MSTOracle, "__init__", counting("oracle", MSTOracle.__init__))
        monkeypatch.setattr(
            executor, "_describe_graph", counting("describe", executor._describe_graph)
        )

        class CountingFast(FastNetwork):
            __slots__ = ()

            def __init__(self, graph, bandwidth=1, validate=True):
                counts["fast"] += 1
                super().__init__(graph, bandwidth=bandwidth, validate=validate)

        register_engine("fast", CountingFast)
        try:
            yield counts
        finally:
            register_engine("fast", FastNetwork)

    def test_batched_builds_describes_and_verifies_once_per_graph(self, calls):
        report = execute_campaign(_sixteen_cell_grid(), batch=True)
        assert report.executed == 16
        assert dict(calls) == {"build_graph": 4, "oracle": 4, "describe": 4, "fast": 8}

    def test_per_cell_execution_builds_a_graph_per_cell(self, calls):
        report = execute_campaign(_sixteen_cell_grid(), batch=False)
        assert report.executed == 16
        assert calls["build_graph"] >= 16


class TestScheduledEquivalence:
    """``jobs>1 x batch``: the graph-affine scheduler joins the matrix.

    Same contract as in-process batching, one axis further out: rows,
    per-key store records and resume behaviour must be byte-identical
    to the serial executor, whichever mix of batching and processes
    produced them.  (Store *insertion order* is the one legitimate
    difference: the parent commits cells in completion order.)
    """

    def _store_records(self, store, campaign):
        return {
            key: (
                json.dumps(store.get_row(key), sort_keys=True),
                json.dumps(store.get_result(key).to_json_dict(), sort_keys=True),
                store.get_spec(key),
            )
            for key in campaign.run_keys()
        }

    def test_scheduled_rows_and_store_records_byte_identical(self, tmp_path):
        campaign = _sixteen_cell_grid()
        assert len(campaign) == 16
        serial = _execute_into(tmp_path / "serial.jsonl", campaign, batch=False)
        scheduled = _execute_into(tmp_path / "sched.jsonl", campaign, jobs=2, batch=True)
        serial_store, sched_store = serial.store, scheduled.store

        assert serial.rows == scheduled.rows
        assert sorted(serial_store.run_keys()) == sorted(sched_store.run_keys())
        assert self._store_records(serial_store, campaign) == self._store_records(
            sched_store, campaign
        )

    def test_parallel_batching_is_the_default_and_tagged(self, tmp_path):
        campaign = _sixteen_cell_grid()
        report = _execute_into(tmp_path / "s.jsonl", campaign, jobs=2)
        provenance = report.store.get_provenance(campaign.specs[0].run_key())
        assert provenance["executor"] == "batched-pool-2"
        assert report.workers == 2
        assert sum(stat["cells"] for stat in report.worker_stats) == report.executed
        assert "workers" in report.summary()
        per_cell = execute_campaign(campaign, jobs=2, batch=False)
        assert per_cell.workers == 2
        assert report.rows == per_cell.rows

    def test_per_cell_runner_runs_on_the_scheduler(self, tmp_path):
        campaign = _shared_and_single_cell_grid()
        serial = _execute_into(tmp_path / "serial.jsonl", campaign, batch=False)
        events = []

        class Recorder:
            def on_run_start(self, spec):
                events.append(("start", spec.run_key()))

            def on_result(self, spec, result, row):
                events.append(("result", spec.run_key()))

        scheduled = _execute_into(
            tmp_path / "sched.jsonl", campaign, jobs=2, batch=False, observers=[Recorder()]
        )
        assert scheduled.rows == serial.rows
        assert scheduled.workers == 2
        assert sum(stat["cells"] for stat in scheduled.worker_stats) == len(campaign)
        assert "on 2 workers" in scheduled.summary()
        with RunStore(tmp_path / "sched.jsonl", read_only=True) as store:
            assert {store.get_provenance(key)["executor"] for key in store.run_keys()} == {
                "pool-2"
            }

        def sorted_records(path):
            return sorted(json.dumps(r, sort_keys=True) for r in _untagged_records(path))

        assert sorted_records(tmp_path / "sched.jsonl") == sorted_records(tmp_path / "serial.jsonl")
        for key in campaign.run_keys():
            assert events.count(("start", key)) == events.count(("result", key)) == 1
            assert events.index(("start", key)) < events.index(("result", key))

    def test_resume_across_scheduled_and_serial(self, tmp_path):
        campaign = _sixteen_cell_grid()
        # Serial records satisfy a scheduled resume...
        serial_path = tmp_path / "serial.jsonl"
        first = _execute_into(serial_path, campaign, batch=False)
        resumed = _execute_into(serial_path, campaign, jobs=2)
        assert resumed.executed == 0
        assert resumed.reused == 16
        assert resumed.rows == first.rows
        # ... and scheduled records satisfy serial and batched resumes.
        sched_path = tmp_path / "sched.jsonl"
        second = _execute_into(sched_path, campaign, jobs=2)
        for kwargs in ({"batch": False}, {"batch": True}, {"jobs": 3}):
            reresumed = _execute_into(sched_path, campaign, **kwargs)
            assert reresumed.executed == 0
            assert reresumed.rows == second.rows

    def test_scheduled_rerun_supersedes_stored_records_like_serial(self, tmp_path):
        """Bugfix: worker shards were folded in skipping keys the store
        already held, so a ``jobs>1`` re-run never replaced a record:
        a verified sweep over unverified records re-ran them on every
        later resume."""
        campaign = _sixteen_cell_grid()
        path = tmp_path / "s.jsonl"
        _execute_into(path, campaign, verify=False, jobs=2)
        upgraded = _execute_into(path, campaign, jobs=2)
        assert upgraded.executed == len(campaign)
        with RunStore(path) as store:
            assert all(store.get_provenance(key)["verified"] for key in campaign.run_keys())
            assert execute_campaign(campaign, store=store, jobs=2).executed == 0

    def test_scheduler_streams_observer_events(self):
        campaign = _sixteen_cell_grid()
        events = []

        class Recorder:
            def on_run_start(self, spec):
                events.append(("start", spec.run_key()))

            def on_phase(self, spec, phase):
                events.append(("phase", spec.run_key()))

            def on_result(self, spec, result, row):
                events.append(("result", spec.run_key()))

        report = execute_campaign(campaign, jobs=2, observers=[Recorder()])
        starts = [key for kind, key in events if kind == "start"]
        results = [key for kind, key in events if kind == "result"]
        assert sorted(starts) == sorted(results) == sorted(campaign.run_keys())
        assert report.executed == 16
        assert any(kind == "phase" for kind, _ in events)

    def test_scheduled_verification_failure_propagates(self):
        from repro.algorithms import AlgorithmInfo, register_algorithm, _REGISTRY

        def broken(graph, config=None):
            result = run_algorithm(graph, "kruskal", config)
            result.edges = set(list(result.edges)[:-1])
            result.algorithm = "broken"
            return result

        register_algorithm(
            AlgorithmInfo(
                name="broken",
                runner=broken,
                family="sequential-baseline",
                is_distributed=False,
            )
        )
        try:
            campaign = Campaign.from_grid(
                "broken-par",
                [graph_spec_for("random_connected", 16)],
                algorithms=("broken", "kruskal"),
                seeds=(0, 1),
            )
            with pytest.raises(VerificationError):
                execute_campaign(campaign, jobs=2)
        finally:
            _REGISTRY.pop("broken", None)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the crash is injected through an env var inherited via fork",
    )
    def test_worker_death_keeps_committed_leases_and_resume_completes(
        self, tmp_path, monkeypatch
    ):
        """Kill one worker mid-campaign: the store must stay consistent.

        The kamikaze algorithm hard-exits the worker whose lease covers
        the 20-vertex graph group; graph-affinity puts that whole group
        in one unit, so the other group's cells are reported and
        committed normally.  The campaign raises, the store holds
        exactly a subset of the serial records, and a resume finishes
        the rest.
        """
        from repro.algorithms import AlgorithmInfo, register_algorithm, _REGISTRY

        def kamikaze(graph, config=None):
            if (
                os.environ.get("REPRO_TEST_KAMIKAZE") == "1"
                and graph.number_of_nodes() == 20
            ):
                os._exit(3)
            return run_algorithm(graph, "kruskal", config)

        register_algorithm(
            AlgorithmInfo(
                name="kamikaze",
                runner=kamikaze,
                family="sequential-baseline",
                is_distributed=False,
            )
        )
        try:
            campaign = Campaign.from_grid(
                "kamikaze",
                [
                    graph_spec_for("random_connected", 16),
                    graph_spec_for("random_connected", 20),
                ],
                algorithms=("kamikaze",),
                seeds=(0, 1, 2),
            )
            store_path = tmp_path / "kamikaze.jsonl"
            monkeypatch.setenv("REPRO_TEST_KAMIKAZE", "1")
            with pytest.raises(SimulationError, match="died with exit code 3"):
                _execute_into(store_path, campaign, jobs=2)

            # Every cell reported before the crash was committed: each
            # surviving record is byte-identical to serial output.
            monkeypatch.delenv("REPRO_TEST_KAMIKAZE")
            reference = _execute_into(tmp_path / "ref.jsonl", campaign, batch=False)
            survivor = RunStore(store_path)
            campaign_keys = set(campaign.run_keys())
            assert set(survivor.run_keys()) < campaign_keys
            for key in survivor.run_keys():
                assert json.dumps(survivor.get_row(key), sort_keys=True) == json.dumps(
                    reference.store.get_row(key), sort_keys=True
                )

            # Resume completes exactly the missing cells, byte-identically.
            with survivor:
                resumed = execute_campaign(campaign, store=survivor, jobs=2)
            assert resumed.executed == len(campaign) - resumed.reused
            assert resumed.rows == reference.rows
        finally:
            _REGISTRY.pop("kamikaze", None)


def _session_members(session: int) -> list:
    """Live (not zombie) processes in session ``session``, from ``/proc``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                # "pid (comm) state ppid pgrp session ..."; comm may hold ")".
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] not in ("Z", "X") and int(fields[3]) == session:
            members.append(int(entry))
    return members


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the failures are injected into forked workers",
)
class TestSchedulerFailureModes:
    """The parent is the store's only writer; no failure is silent or sticky."""

    def test_an_empty_poll_after_clean_exits_is_not_a_worker_death(self, monkeypatch):
        """Bugfix: one empty 0.1 s poll that expired just after a worker
        sent its last events and exited cleanly failed a finished
        campaign with ``campaign worker 0 died with exit code 0``."""
        real = multiprocessing.get_context("fork")
        parent = os.getpid()
        processes = []
        injected = []

        class EmptyOnceAfterExits:
            """The parent's first ``get`` reports empty once every worker
            has exited, holding back the events it read meanwhile."""

            def __init__(self, inner):
                self._inner = inner
                self._held = []

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def get(self, timeout=None):
                if os.getpid() == parent and not injected:
                    injected.append(True)
                    while any(process.exitcode is None for process in processes):
                        with contextlib.suppress(queue.Empty):
                            self._held.append(self._inner.get(timeout=0.05))
                    raise queue.Empty
                if self._held:
                    return self._held.pop(0)
                return self._inner.get(timeout=timeout)

        class Context:
            def Queue(self):
                return EmptyOnceAfterExits(real.Queue())

            def Event(self):
                return real.Event()

            def Process(self, **kwargs):
                processes.append(real.Process(**kwargs))
                return processes[-1]

        monkeypatch.setattr(
            "repro.campaign.scheduler.multiprocessing.get_context", lambda method: Context()
        )
        campaign = _sixteen_cell_grid()
        report = execute_campaign(campaign, jobs=2)
        assert injected and len(processes) == 2
        assert all(process.exitcode == 0 for process in processes)
        assert report.executed == len(campaign)
        assert sum(stat["cells"] for stat in report.worker_stats) == len(campaign)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads sessions from /proc")
    def test_a_killed_parent_keeps_reported_cells_and_leaves_no_worker(self, tmp_path):
        """SIGKILL the parent after its k-th ``on_result``.

        Every reported cell was committed at ``durability="record"``
        before its ``on_result`` fired, so the store holds at least k
        runs; no temporary store directory is left behind; and the
        orphaned workers notice the dead parent and exit, so no process
        of its session survives 10 s.
        """
        k = 5
        store_path = tmp_path / "killed.jsonl"
        temp = tmp_path / "tmp"
        temp.mkdir()
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.campaign import RunStore, execute_campaign, preset_campaign

            class KillParent:
                results = 0

                def on_result(self, spec, result, row):
                    KillParent.results += 1
                    if KillParent.results == {k}:
                        os.kill(os.getpid(), signal.SIGKILL)

            execute_campaign(
                preset_campaign("zoo"),
                store=RunStore({str(store_path)!r}, durability="record"),
                jobs=2,
                observers=[KillParent()],
            )
            """
        )
        env = dict(
            os.environ,
            TMPDIR=str(temp),
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script], env=env, start_new_session=True
        )
        try:
            assert process.wait(timeout=120) == -signal.SIGKILL
            with RunStore(store_path, read_only=True) as store:
                assert len(store) >= k
            assert list(temp.glob("repro-campaign-shards-*")) == []
            deadline = time.monotonic() + 10.0
            while _session_members(process.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert _session_members(process.pid) == []
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)


class TestWorkUnits:
    def test_units_are_graph_affine_and_cover_everything(self):
        campaign = _sixteen_cell_grid()
        pending = [
            (index, spec, spec.run_key()) for index, spec in enumerate(campaign.specs)
        ]
        units = partition_units(pending, {}, jobs=2)
        unit_of_graph = {}
        seen = []
        for unit_index, unit in enumerate(units):
            for index, spec_json, _ in unit.cells:
                seen.append(index)
                graph_key = campaign.specs[index].graph_key()
                unit_of_graph.setdefault(graph_key, unit_index)
                # A graph group is never split across units.
                assert unit_of_graph[graph_key] == unit_index
        assert sorted(seen) == list(range(len(campaign)))

    def test_partition_is_deterministic(self):
        campaign = _sixteen_cell_grid()
        pending = [
            (index, spec, spec.run_key()) for index, spec in enumerate(campaign.specs)
        ]
        first = partition_units(pending, {}, jobs=3)
        second = partition_units(pending, {}, jobs=3)
        assert [unit.unit_key for unit in first] == [unit.unit_key for unit in second]

    def test_unit_cells_cap_is_respected_per_group(self):
        def sizes(campaign, jobs):
            pending = [
                (index, spec, spec.run_key()) for index, spec in enumerate(campaign.specs)
            ]
            return [len(unit.cells) for unit in partition_units(pending, {}, jobs=jobs)]

        # The seed axis is part of the graph identity, so the grid has
        # four graph groups of 4 cells.  The target is cells / (jobs x 4):
        # 4 cells at jobs=1 and 2 at jobs=2, and a group is never split,
        # so each group fills exactly one unit either way.
        assert sizes(_sixteen_cell_grid(), jobs=1) == [4, 4, 4, 4]
        assert sizes(_sixteen_cell_grid(), jobs=2) == [4, 4, 4, 4]
        # Four seeds: eight groups of 4 cells, packed in pairs at the
        # jobs=1 target of 32 / 4 = 8 cells.
        four_seeds = Campaign.from_grid(
            "batched-units",
            [graph_spec_for("random_connected", 20), graph_spec_for("planted_fragments", 16)],
            algorithms=("elkin", "boruvka_seq"),
            bandwidths=(1, 2),
            engines=("fast",),
            seeds=(0, 1, 2, 3),
        )
        assert len(four_seeds) == 32
        assert sizes(four_seeds, jobs=1) == [8, 8, 8, 8]


class TestConditionedExecutionEquivalence:
    """The condition axis joins the byte-identity matrix.

    Network conditions are delivery-side state inside the run, so the
    executor contract is unchanged: serial, in-process batched and
    jobs>1 scheduled execution of a conditioned grid -- including cells
    whose crash schedule ends in a typed non-termination -- produce
    byte-identical rows and store records.
    """

    def _conditioned_grid(self) -> Campaign:
        return Campaign.from_grid(
            "batched-cond",
            [
                graph_spec_for("random_connected", 20),
                graph_spec_for("grid", 16),
            ],
            algorithms=("elkin", "ghs"),
            engines=("fast",),
            seeds=(0,),
            conditions=(None, "lossy", "crash-stop"),
        )

    def test_rows_byte_identical_across_execution_modes(self, tmp_path):
        campaign = self._conditioned_grid()
        assert len(campaign) == 12
        serial = _execute_into(tmp_path / "serial.jsonl", campaign, batch=False)
        batched = _execute_into(tmp_path / "batched.jsonl", campaign, batch=True)
        pooled = _execute_into(tmp_path / "pooled.jsonl", campaign, jobs=2)
        assert serial.rows == batched.rows == pooled.rows
        statuses = {row["status"] for row in serial.rows if "status" in row}
        assert statuses == {"ok", "non-terminated"}

    def test_store_records_and_resume_with_conditions(self, tmp_path):
        campaign = self._conditioned_grid()
        store_path = tmp_path / "store.jsonl"
        first = _execute_into(store_path, campaign, batch=False)
        for kwargs in ({"batch": True}, {"jobs": 2}):
            resumed = _execute_into(store_path, campaign, **kwargs)
            assert resumed.executed == 0
            assert resumed.reused == len(campaign)
            assert resumed.rows == first.rows
        # Non-terminated records round-trip: the stored synthetic result
        # keeps the typed outcome.
        crash_keys = [
            spec.run_key()
            for spec in campaign.specs
            if spec.condition is not None and spec.condition.crash is not None
        ]
        store = RunStore(store_path)
        for key in crash_keys:
            assert store.get_result(key).details["non_terminated"] is True


class TestProviderEdgeCases:
    """engine_provider under nesting, failure, and the jobs>1 scheduler."""

    def test_nested_providers_innermost_wins(self):
        graph = make_graph("path", n=4, seed=0)
        outer_engine = FastNetwork(graph)
        inner_engine = FastNetwork(graph)
        consulted = []

        def outer(g, b, name):
            consulted.append("outer")
            return outer_engine

        def inner(g, b, name):
            consulted.append("inner")
            return inner_engine

        with engine_provider(outer):
            with engine_provider(inner):
                assert create_engine(graph, engine="fast") is inner_engine
                assert consulted == ["inner"]  # outer never reached
            assert create_engine(graph, engine="fast") is outer_engine

    def test_nested_provider_none_falls_through_to_outer(self):
        graph = make_graph("path", n=4, seed=0)
        outer_engine = FastNetwork(graph)
        with engine_provider(lambda g, b, name: outer_engine):
            with engine_provider(lambda g, b, name: None):
                assert create_engine(graph, engine="fast") is outer_engine

    def test_provider_fallthrough_reaches_registry(self):
        graph = make_graph("path", n=4, seed=0)
        with engine_provider(lambda g, b, name: None):
            engine = create_engine(graph, engine="fast")
        assert isinstance(engine, FastNetwork)

    def test_provider_raising_mid_campaign_propagates_and_unwinds(self):
        campaign = Campaign.from_grid(
            "provider-raises",
            [graph_spec_for("random_connected", 16)],
            algorithms=("elkin",),
            seeds=(0, 1, 2),
        )
        calls = []

        def flaky(graph, bandwidth, name):
            calls.append(name)
            if len(calls) >= 2:
                raise RuntimeError("provider backend went away")
            return None

        with pytest.raises(RuntimeError, match="went away"):
            with engine_provider(flaky):
                execute_campaign(campaign, batch=False)
        assert len(calls) >= 2
        # The stack unwound: later runs are provider-free and succeed.
        assert active_provider_count() == 0
        report = execute_campaign(campaign, batch=False)
        assert report.executed == len(campaign)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="provider inheritance into workers requires fork",
    )
    def test_scheduler_workers_see_the_parents_provider(self, tmp_path):
        # The provider substitutes a bandwidth-4 kernel whenever the
        # campaign asks for the reference engine at bandwidth 1 -- an
        # observable change (round counts drop).  Forked workers must
        # consult the same provider, so the scheduled rows match the
        # serial rows produced under the provider and differ from the
        # provider-free baseline.
        campaign = Campaign.from_grid(
            "provider-jobs",
            [
                graph_spec_for("random_connected", 20),
                graph_spec_for("random_connected", 24),
            ],
            algorithms=("elkin",),
            engines=("reference",),
            seeds=(0,),
        )
        bare = execute_campaign(campaign, batch=False)

        def provider(graph, bandwidth, name):
            if name == "reference" and bandwidth == 1:
                return FastNetwork(graph, bandwidth=4)
            return None

        with engine_provider(provider):
            serial = execute_campaign(campaign, batch=False)
            pooled = execute_campaign(campaign, jobs=2)
        assert serial.rows == pooled.rows
        assert [row["rounds"] for row in serial.rows] != [
            row["rounds"] for row in bare.rows
        ]

    @pytest.mark.parametrize("batch", [None, False])
    def test_scheduler_fails_loudly_without_fork(self, monkeypatch, batch):
        """Bugfix: ``batch=False`` ran ``jobs>1`` on a spawned pool that
        silently dropped the provider; it now takes the scheduler's guard."""
        campaign = _sixteen_cell_grid()
        monkeypatch.setattr(
            "repro.campaign.scheduler.multiprocessing.get_all_start_methods",
            lambda: ["spawn"],
        )
        with engine_provider(lambda g, b, name: None):
            with pytest.raises(ConfigurationError, match="cannot fork"):
                execute_campaign(campaign, jobs=2, batch=batch)


class TestMSTOracle:
    def test_oracle_matches_full_verification(self):
        graph = make_graph("random_connected", n=24, seed=2)
        oracle = MSTOracle(graph)
        result = run_algorithm(graph, "kruskal")
        oracle.verify(result)  # no raise

    def test_oracle_rejects_wrong_edge_set(self):
        graph = make_graph("random_connected", n=24, seed=2)
        oracle = MSTOracle(graph)
        result = run_algorithm(graph, "kruskal")
        result.edges = set(list(result.edges)[:-1])
        with pytest.raises(VerificationError, match="MST mismatch"):
            oracle.verify(result)

    def test_oracle_rejects_wrong_weight(self):
        graph = make_graph("random_connected", n=24, seed=2)
        oracle = MSTOracle(graph)
        result = run_algorithm(graph, "kruskal")
        result.total_weight += 5.0
        with pytest.raises(VerificationError, match="does not match"):
            oracle.verify(result)


class TestSchedulerWorker:
    def test_a_per_cell_worker_describes_each_graph_once_per_unit(self, monkeypatch):
        """Bugfix: a per-cell runner on the scheduler was handed only the
        descriptions the parent's store held when the units were cut, so
        it described its graph once per cell instead of once per graph."""
        specs = [
            RunSpec(graph=graph_spec_for(family, 16, seed=0), algorithm=algorithm)
            for family in ("random_connected", "path")
            for algorithm in ("elkin", "kruskal")
        ]
        assert all(spec.is_deterministic() for spec in specs)
        expected = execute_campaign(Campaign("worker", specs), batch=False).rows
        cells = tuple((index, spec.to_json_dict(), None) for index, spec in enumerate(specs))
        unit = WorkUnit("unit", cells)
        tasks, results = queue.Queue(), queue.Queue()
        tasks.put(unit)
        tasks.put(None)
        described = []
        describe = executor._describe_graph

        def counting(graph, compute_diameter):
            described.append(graph)
            return describe(graph, compute_diameter)

        monkeypatch.setattr(executor, "_describe_graph", counting)
        make_runner = functools.partial(
            executor._CellRunner, do_verify=True, compute_diameter=True
        )
        _worker_main(0, tasks, results, threading.Event(), make_runner)
        events = []
        while not results.empty():
            events.append(results.get_nowait())
        rows = {event[2]: event[3] for event in events if event[0] == "result"}
        assert [event[0] for event in events if event[0] in ("error", "done")] == ["done"]
        assert len(described) == 2  # one per graph
        assert [rows[index] for index in range(len(specs))] == expected
