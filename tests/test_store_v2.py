"""Store v2: group commit, durability matrix, crash recovery, compact and merge.

The contract under test (DESIGN.md, Section 11): whatever the
durability level, a campaign that returned has all of its records on
disk, resume semantics are exact, and the final rows are byte-identical
to the original per-record-fsync store.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import os
import re
import tracemalloc
import warnings

import pytest

from repro.campaign import (
    Campaign,
    convert_store,
    execute_campaign,
    graph_spec_for,
    open_store,
    RunStore,
)
from repro.campaign.presets import preset_campaign
from repro.campaign.spec import RunSpec
from repro.campaign.store import DURABILITY_LEVELS, make_run_record, merge_stores
from repro.exceptions import ConfigurationError


def _spec(index: int) -> RunSpec:
    return RunSpec(graph=graph_spec_for("random_connected", 16, seed=index), algorithm="elkin")


def _memory_state(store) -> tuple:
    return len(store), store.run_keys(), store.graph_keys(), list(store.iter_rows())


def _campaign(cells: int = 4) -> Campaign:
    graphs = [graph_spec_for("random_connected", 16), graph_spec_for("grid", 16)]
    return Campaign.from_grid(
        "store-v2",
        graphs,
        algorithms=("elkin", "ghs") if cells >= 4 else ("elkin",),
        seeds=(0,),
    )


class TestDurabilityMatrix:
    @pytest.mark.parametrize("durability", DURABILITY_LEVELS)
    def test_sweep_persists_and_reloads_under_every_level(self, tmp_path, durability):
        store = RunStore(tmp_path / "store", durability=durability)
        report = execute_campaign(_campaign(), store=store)
        store.close()
        reloaded = RunStore(tmp_path / "store")
        assert len(reloaded) == len(report.rows)
        for key in store.run_keys():
            assert reloaded.get_row(key) == store.get_row(key)

    def test_batch_mode_fsyncs_once_per_commit_not_per_record(self, tmp_path):
        record = RunStore(tmp_path / "record.jsonl", durability="record")
        batch = RunStore(tmp_path / "batch.jsonl", durability="batch")
        execute_campaign(_campaign(), store=record)
        execute_campaign(_campaign(), store=batch)
        record.close(), batch.close()
        assert record.stats["fsyncs"] == record.stats["appends"]
        assert batch.stats["fsyncs"] < record.stats["fsyncs"]
        assert batch.stats["fsyncs"] == batch.stats["commits"]

    def test_none_durability_never_fsyncs(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl", durability="none")
        execute_campaign(_campaign(), store=store)
        store.close()
        assert store.stats["fsyncs"] == 0
        assert len(RunStore(tmp_path / "store.jsonl")) == len(_campaign())

    def test_unknown_durability_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="durability"):
            RunStore(tmp_path / "store.jsonl", durability="paranoid")

    def test_rows_byte_identical_to_v1_per_record_mode(self, tmp_path):
        """Acceptance: batched v2 rows == per-record-fsync v1-style rows."""
        campaign = _campaign()
        v1 = RunStore(tmp_path / "v1.jsonl", durability="record", batch_size=1)
        v2 = RunStore(tmp_path / "v2.jsonl", durability="batch")
        execute_campaign(campaign, store=v1)
        execute_campaign(campaign, store=v2)
        v1.close(), v2.close()
        for key in campaign.run_keys():
            assert json.dumps(v1.get_row(key), sort_keys=True) == json.dumps(
                v2.get_row(key), sort_keys=True
            )
            assert v1.get_result(key).to_json_dict() == v2.get_result(key).to_json_dict()
        # ... and the run records on disk parse to the same payloads.
        reload_v1, reload_v2 = RunStore(tmp_path / "v1.jsonl"), RunStore(tmp_path / "v2.jsonl")
        for key in campaign.run_keys():
            assert reload_v1.get_row(key) == reload_v2.get_row(key)
            assert reload_v1.get_provenance(key)["verified"] is True


class TestGroupCommit:
    def test_appends_are_buffered_until_flush(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with RunStore(path, durability="batch", batch_size=1000) as store:
            store.record_graph("g1", {"n": 4, "m": 3})
            assert not path.exists() or path.read_text() == ""
            store.flush()
            assert path.read_text().count("\n") == 1

    def test_batch_size_triggers_automatic_commit(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with RunStore(path, durability="batch", batch_size=2) as store:
            store.record_graph("g1", {"n": 4, "m": 3})
            assert not path.exists()
            store.record_graph("g2", {"n": 5, "m": 4})
            assert path.read_text().count("\n") == 2
            assert store.stats["commits"] == 1

    def test_context_manager_flushes_on_exit(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with RunStore(path, durability="batch", batch_size=1000) as store:
            store.record_graph("g1", {"n": 4, "m": 3})
        assert path.read_text().count("\n") == 1

    def test_campaign_execution_flushes_before_returning(self, tmp_path):
        with RunStore(tmp_path / "store.jsonl", durability="batch", batch_size=1000) as store:
            execute_campaign(_campaign(), store=store)
            # Before the store closes: everything already on disk.
            assert len(RunStore(tmp_path / "store.jsonl")) == len(_campaign())

    def test_interrupted_campaign_still_persists_completed_cells(self, tmp_path):
        """An exception mid-campaign must not discard the buffered tail."""
        from unittest.mock import patch

        from repro.campaign import executor as executor_module

        campaign = _campaign()
        calls = {"n": 0}
        original = executor_module.run_single

        def explode_on_third(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return original(*args, **kwargs)

        store = RunStore(tmp_path / "store.jsonl", durability="batch", batch_size=1000)
        with patch.object(executor_module, "run_single", explode_on_third):
            with pytest.raises(KeyboardInterrupt):
                execute_campaign(campaign, store=store, batch=False)
        store.close()
        # The two completed cells reached disk despite the interrupt...
        with RunStore(tmp_path / "store.jsonl") as reloaded:
            assert len(reloaded) == 2
            # ... so resume re-runs only the remaining cells.
            resumed = execute_campaign(campaign, store=reloaded)
        assert resumed.reused == 2
        assert resumed.executed == len(campaign) - 2


class TestCrashRecovery:
    def test_torn_final_line_is_dropped_on_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = RunStore(path, durability="record")
        execute_campaign(_campaign(), store=store)
        store.close()
        intact = len(RunStore(path))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "run", "key": "torn", "sp')  # no newline: torn write
        recovered = RunStore(path)
        assert recovered.stats["recovered_lines"] == 1
        assert len(recovered) == intact
        assert not recovered.has_run("torn")

    def test_torn_tail_is_truncated_so_later_appends_stay_clean(self, tmp_path):
        """Recovery must cut the half-record, not just skip it in memory."""
        path = tmp_path / "store.jsonl"
        store = RunStore(path, durability="record")
        store.record_graph("g1", {"n": 4, "m": 3})
        store.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "gr')
        recovered = RunStore(path, durability="record")
        assert recovered.stats["recovered_lines"] == 1
        assert path.read_text().endswith("\n")  # tail physically removed
        recovered.record_graph("g2", {"n": 5, "m": 4})
        recovered.close()
        # A third open parses every line: nothing concatenated onto garbage.
        final = RunStore(path)
        assert final.stats["recovered_lines"] == 0
        assert sorted(final.graph_keys()) == ["g1", "g2"]

    def test_resume_re_runs_only_the_lost_tail(self, tmp_path):
        """Crash mid-batch: the uncommitted tail re-runs, nothing else."""
        path = tmp_path / "store.jsonl"
        campaign = _campaign()
        store = RunStore(path, durability="record")
        execute_campaign(campaign, store=store)
        store.close()
        # Simulate the crash: drop the last committed run record plus a
        # torn half-line, as an interrupted group commit would leave.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + '{"kind": "ru')
        with RunStore(path) as recovered:
            resumed = execute_campaign(campaign, store=recovered)
        assert resumed.executed == 1
        assert resumed.reused == len(campaign) - 1
        # The re-run row matches the one the crash destroyed.
        original = json.loads(lines[-1])
        assert resumed.rows[-1] == original["row"]

    def test_unterminated_but_parseable_tail_is_kept_and_reterminated(self, tmp_path):
        """A tear exactly before the newline leaves a complete record.

        The record must be kept -- and the file re-terminated, or the
        next append would concatenate onto the line and corrupt the
        whole store for every later reader.
        """
        path = tmp_path / "store.jsonl"
        store = RunStore(path, durability="record")
        store.record_graph("g1", {"n": 4, "m": 3})
        store.close()
        path.write_bytes(path.read_bytes().rstrip(b"\n"))  # tear off the newline
        recovered = RunStore(path, durability="record")
        assert recovered.graph_keys() == ["g1"]  # complete record kept
        assert path.read_text().endswith("\n")  # file re-terminated
        recovered.record_graph("g2", {"n": 5, "m": 4})
        recovered.close()
        final = RunStore(path)
        assert sorted(final.graph_keys()) == ["g1", "g2"]
        assert final.stats["recovered_lines"] == 0

    def test_terminated_corruption_still_raises(self, tmp_path):
        """A *complete* bad line is damage, not truncation: hard error."""
        path = tmp_path / "store.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            RunStore(path)

    @pytest.mark.parametrize("line", ["5", "[1]", "null"])
    def test_a_json_line_that_is_not_an_object_is_corruption(self, tmp_path, line):
        path = tmp_path / "store.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ConfigurationError, match=rf"store\.jsonl:1: corrupt.*not a JSON object"):
            RunStore(path, read_only=True)
        assert path.read_text() == line + "\n"

    @pytest.mark.parametrize("line", ["5", "[1]"])
    def test_appending_a_line_that_is_not_an_object_raises(self, tmp_path, line):
        path = tmp_path / "store.jsonl"
        with RunStore(path) as store:
            with pytest.raises(ConfigurationError, match="not a JSON object"):
                store.append_record_line(line)
            assert len(store) == 0 and store.graph_keys() == []
        assert not path.exists() or path.read_bytes() == b""

    def test_mid_file_corruption_raises_even_without_final_newline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('garbage\n{"kind": "graph", "key": "g", "description"')
        with pytest.raises(ConfigurationError, match="corrupt"):
            RunStore(path)

    @pytest.mark.parametrize("name", ["store.jsonl"])
    def test_terminated_damage_inside_result_raises(self, tmp_path, name):
        """Open keeps only row and provenance, but must still parse the
        whole line: damage after a well-formed ``row`` is corruption."""
        path = tmp_path / name
        with RunStore(path) as store:
            execute_campaign(_campaign(2), store=store)
            record = next(store.iter_run_records())
        line = json.dumps(record)
        assert line.index('"row"') < line.index('"result"')
        damaged = line.replace('"result": {', '"result": {,', 1)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(damaged + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            RunStore(path)

    @pytest.mark.parametrize("name", ["store.jsonl"])
    def test_a_tear_at_any_byte_of_the_last_record_loses_at_most_that_record(
        self, tmp_path, name
    ):
        path = tmp_path / name
        campaign = Campaign.from_grid(
            "tear", [graph_spec_for("path", 4)], algorithms=("elkin", "kruskal"), seeds=(0,)
        )
        with RunStore(path) as store:
            execute_campaign(campaign, store=store)
        intact = path.read_bytes()
        last_line = intact[:-1].rsplit(b"\n", 1)[-1]
        start = len(intact) - len(last_line) - 1

        def keys(store) -> tuple:
            return sorted(store.run_keys()), sorted(store.graph_keys())

        every = keys(open_store(path, read_only=True))
        path.write_bytes(intact[:start])
        all_but_last = keys(open_store(path, read_only=True))
        assert all_but_last != every
        for offset in range(start, len(intact)):
            path.write_bytes(intact[:offset])
            open_store(path, read_only=True)
            assert path.read_bytes() == intact[:offset], offset
            store = open_store(path)
            assert keys(store) in (every, all_but_last), offset
            store.append_record_line(last_line.decode("utf-8"))
            store.close()
            assert keys(open_store(path, read_only=True)) == every, offset

    @pytest.mark.parametrize(
        "case,message",
        [
            ("torn", "dropped a torn final record, truncated at byte {start}"),
            ("torn-read-only", "skipped a torn final record at byte {start}; read-only open"),
            ("unterminated", "final record lacked its newline; appended one at byte {end}"),
            ("refused", "skipped a torn final record at byte {start}; truncating it failed"),
        ],
    )
    def test_every_recovery_logs_one_warning_with_file_and_offset(
        self, tmp_path, monkeypatch, caplog, case, message
    ):
        path = tmp_path / "store.jsonl"
        with RunStore(path) as store:
            store.record_graph("g1", {"n": 4, "m": 3})
        start = path.stat().st_size
        if case == "unterminated":
            path.write_bytes(path.read_bytes().rstrip(b"\n"))
        else:
            with path.open("a", encoding="utf-8") as handle:
                handle.write('{"kind": "gr')
        end = path.stat().st_size
        if case == "refused":

            def refuse(*args):
                raise PermissionError("read-only file system")

            monkeypatch.setattr("repro.campaign.store.os.truncate", refuse)
        with caplog.at_level(logging.WARNING, logger="repro"):
            store = RunStore(path, read_only=case == "torn-read-only")
        assert store.graph_keys() == ["g1"]
        assert [(record.name, record.levelno) for record in caplog.records] == [
            ("repro.campaign.store", logging.WARNING)
        ]
        text = caplog.records[0].getMessage()
        assert text.startswith(f"{path}: ")
        assert message.format(start=start, end=end) in text


class TestShardedLayout:
    """The sharded directory layout is gone: every store is one file."""

    def test_a_fresh_path_without_a_suffix_is_one_file(self, tmp_path):
        path = tmp_path / "runs"
        with RunStore(path) as store:
            store.record_graph("g", {"n": 1, "m": 0})
        assert path.is_file()
        assert RunStore(path, read_only=True).graph_keys() == ["g"]

    def test_a_directory_raises_naming_the_conversion(self, tmp_path):
        from repro.cli import main

        directory = tmp_path / "runs"
        directory.mkdir()
        (directory / "shard-00000.jsonl").write_text("", encoding="utf-8")
        conversion = f"repro-mst store convert {directory} --into {directory}.jsonl"
        opens = {
            "RunStore": lambda: RunStore(directory),
            "RunStore read-only": lambda: RunStore(directory, read_only=True),
            "open_store": lambda: open_store(directory),
            "open_store read-only": lambda: open_store(directory, read_only=True),
            "report": lambda: main(["report", "--store", str(directory)]),
        }
        for name, opener in opens.items():
            with pytest.raises(ConfigurationError) as caught:
                opener()
            assert "is a directory" in str(caught.value), name
            assert conversion in str(caught.value), name
            assert "shard-*.jsonl in name order" in str(caught.value), name

    def test_legacy_single_file_store_reads_transparently(self, tmp_path):
        """A v1-era file (one record per line, no manifest) just works."""
        path = tmp_path / "legacy.jsonl"
        store = RunStore(path, durability="record")
        report = execute_campaign(_campaign(), store=store)
        store.close()
        legacy = RunStore(path)
        assert len(legacy) == len(report.rows)
        # ... and it can keep serving resumes and merges.
        resumed = execute_campaign(_campaign(), store=RunStore(path))
        assert resumed.executed == 0


class TestCompact:
    def test_compact_drops_superseded_records(self, tmp_path):
        path = tmp_path / "store.jsonl"
        campaign = _campaign()
        store = RunStore(path)
        execute_campaign(campaign, store=store)
        execute_campaign(campaign, store=store, resume=False)  # duplicates every run
        stats = store.compact()
        assert stats["dropped"] == len(campaign)
        assert stats["after"] == stats["before"] - stats["dropped"]
        reloaded = RunStore(path)
        assert len(reloaded) == len(campaign)
        assert execute_campaign(campaign, store=reloaded).reused == len(campaign)

    def test_compact_is_idempotent(self, tmp_path):
        store = RunStore(tmp_path / "store")
        execute_campaign(_campaign(), store=store)
        execute_campaign(_campaign(), store=store, resume=False)
        first = store.compact()
        second = store.compact()
        assert second["dropped"] == 0
        assert second["before"] == second["after"] == first["after"]

    def test_store_keeps_appending_after_compact(self, tmp_path):
        store = RunStore(tmp_path / "store", batch_size=2)
        half = Campaign("half", _campaign().specs[:2])
        execute_campaign(half, store=store)
        store.compact()
        report = execute_campaign(_campaign(), store=store)
        assert report.reused == 2
        store.close()
        assert len(RunStore(tmp_path / "store")) == len(_campaign())

    def test_in_memory_compact_is_a_no_op(self):
        assert RunStore(None).compact() == {"before": 0, "after": 0, "dropped": 0}


class TestMerge:
    def test_merge_combines_parallel_stores(self, tmp_path):
        campaign = _campaign()
        left, right = Campaign("l", campaign.specs[:2]), Campaign("r", campaign.specs[2:])
        a, b = RunStore(tmp_path / "a.jsonl"), RunStore(tmp_path / "b")
        execute_campaign(left, store=a)
        execute_campaign(right, store=b)
        a.close(), b.close()
        merged = RunStore(tmp_path / "merged")
        merged.merge_from(tmp_path / "a.jsonl")
        merged.merge_from(tmp_path / "b")
        merged.close()
        # The merged store resumes the full campaign with zero work.
        report = execute_campaign(campaign, store=RunStore(tmp_path / "merged"))
        assert report.executed == 0
        assert report.reused == len(campaign)

    def test_merge_is_idempotent(self, tmp_path):
        store = RunStore(tmp_path / "src.jsonl")
        execute_campaign(_campaign(), store=store)
        store.close()
        with RunStore(tmp_path / "dest") as destination:
            first = destination.merge_from(tmp_path / "src.jsonl")
            second = destination.merge_from(tmp_path / "src.jsonl")
        assert first["runs"] == len(_campaign())
        assert second == {"runs": 0, "graphs": 0, "skipped": first["runs"] + first["graphs"]}

    def test_merge_accepts_store_instances(self, tmp_path):
        source = RunStore(tmp_path / "src.jsonl")
        execute_campaign(_campaign(), store=source)
        source.close()
        destination = RunStore(None)
        stats = destination.merge_from(source)
        assert stats["runs"] == len(_campaign())
        assert destination.run_keys() == source.run_keys()

    def test_merge_into_itself_rejected(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl")
        store.record_graph("g", {"n": 1, "m": 0})
        store.close()
        with pytest.raises(ConfigurationError, match="itself"):
            store.merge_from(tmp_path / "store.jsonl")

    def test_merge_missing_source_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no run store"):
            RunStore(None).merge_from(tmp_path / "nope.jsonl")


class TestStoreContractBugfixes:
    """Failing-before regressions for the PR 9 store-contract sweep."""

    def _seed(self, path):
        store = RunStore(path)
        store.record_graph("g", {"n": 1, "m": 0})
        store.close()

    def test_self_merge_rejected_through_a_symlink_spelling(self, tmp_path):
        """Bugfix: the self-merge guard compared unresolved paths, so a
        symlink (or any alternate spelling) of the store's own file
        slipped past it and duplicated every record."""
        path = tmp_path / "store.jsonl"
        self._seed(path)
        alias = tmp_path / "alias.jsonl"
        alias.symlink_to(path)
        with RunStore(path) as store:
            with pytest.raises(ConfigurationError, match="into itself"):
                store.merge_from(alias)

    def test_self_merge_rejected_through_a_relative_spelling(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        self._seed(path)
        monkeypatch.chdir(tmp_path)
        with RunStore(path) as store:
            with pytest.raises(ConfigurationError, match="into itself"):
                store.merge_from("store.jsonl")

    def test_uppercase_jsonl_suffix_is_a_single_file_store(self, tmp_path):
        """Bugfix: the (since removed) layout sniff compared suffixes
        case-sensitively, so ``runs.JSONL`` silently became a directory."""
        path = tmp_path / "runs.JSONL"
        with RunStore(path) as store:
            store.record_graph("g", {"n": 1, "m": 0})
        assert path.is_file()
        with RunStore(path) as reloaded:
            assert reloaded.graph_keys() == ["g"]

    def test_mutating_returned_structures_cannot_corrupt_the_store(self, tmp_path):
        """Bugfix: reads returned shallow copies, so mutating a nested
        value wrote through to the store's live record and a later
        compact persisted the corruption."""
        path = tmp_path / "store.jsonl"
        record = {
            "kind": "run",
            "key": "k1",
            "spec": {},
            "row": {"graph": "g", "nested": {"xs": [1]}},
            "result": {},
            "provenance": {"env": {"host": "a"}},
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        store = RunStore(path)
        store.get_row("k1")["nested"]["xs"].append(99)
        next(iter(store.iter_rows()))["nested"]["xs"].append(99)
        store.get_provenance("k1")["env"]["host"] = "b"
        # compact() writes each record's held text, so the held row and
        # provenance are checked in-session too.
        assert list(store.iter_rows()) == [{"graph": "g", "nested": {"xs": [1]}}]
        assert store.get_provenance("k1") == {"env": {"host": "a"}}
        store.compact()
        store.close()
        with RunStore(path) as reloaded:
            assert reloaded.get_row("k1") == {"graph": "g", "nested": {"xs": [1]}}
            assert reloaded.get_provenance("k1") == {"env": {"host": "a"}}

    def test_read_only_open_leaves_file_bytes_untouched(self, tmp_path):
        """Bugfix: merely *opening* a store truncated torn tails and
        re-terminated files -- report runs mutated their input."""
        path = tmp_path / "store.jsonl"
        self._seed(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "gr')  # torn write
        before = path.read_bytes()
        reader = RunStore(path, read_only=True)
        assert reader.stats["recovered_lines"] == 1  # repaired in memory...
        assert reader.graph_keys() == ["g"]
        assert path.read_bytes() == before  # ...but not on disk
        reader.close()
        assert path.read_bytes() == before

    def test_read_only_keeps_unterminated_parseable_tail_untouched(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._seed(path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        before = path.read_bytes()
        with RunStore(path, read_only=True) as reader:
            assert reader.graph_keys() == ["g"]
        assert path.read_bytes() == before

    def test_read_only_rejects_every_write(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._seed(path)
        with RunStore(path, read_only=True) as reader:
            with pytest.raises(ConfigurationError, match="read_only"):
                reader.record_graph("h", {"n": 2, "m": 1})
            with pytest.raises(ConfigurationError, match="read_only"):
                reader.compact()
            with pytest.raises(ConfigurationError, match="read_only"):
                reader.merge_from(tmp_path / "other.jsonl")

    @pytest.mark.parametrize("name", ["store.jsonl", "store.sqlite"])
    def test_rejected_read_only_writes_leave_memory_unchanged(self, tmp_path, name):
        """Bugfix: both backends updated their in-memory maps before the
        read-only check, so a rejected write still showed up in
        ``has_run`` / ``len`` / ``has_graph``."""
        path = tmp_path / name
        with open_store(path) as store:
            store.record_graph("g0", {"n": 1, "m": 0})
            store.record_run(_spec(0), {"graph": "g0"}, {}, {})
        new_graph, new_run = RunStore(None), RunStore(None)
        new_graph.record_graph("g1", {"n": 2, "m": 1})
        new_run.record_run(_spec(1), {"graph": "g1"}, {}, {})
        writes = {
            "record_run": lambda store: store.record_run(_spec(1), {"graph": "g1"}, {}, {}),
            "record_graph": lambda store: store.record_graph("g1", {"n": 2, "m": 1}),
            "merge a graph": lambda store: merge_stores(store, new_graph),
            "merge a run": lambda store: merge_stores(store, new_run),
        }
        before_bytes = path.read_bytes()
        with open_store(path, read_only=True) as reader:
            before = _memory_state(reader)
            for name, write in writes.items():
                with pytest.raises(ConfigurationError, match="read_only"):
                    write(reader)
                assert _memory_state(reader) == before, name
        assert path.read_bytes() == before_bytes

    def test_read_only_requires_an_existing_store(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no run store"):
            RunStore(tmp_path / "missing.jsonl", read_only=True)
        with pytest.raises(ConfigurationError, match="read_only"):
            RunStore(None, read_only=True)


class TestLeanRunRecords:
    """An open JSONL store holds each run's row, provenance and record
    text; spec and result are parsed from that text on access, and the
    text is what compact writes (DESIGN.md, Section 11)."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every line the stores append, as ``json.dumps`` of the record
        built, plus each run key's last record (first-seen order)."""
        appended, runs = [], {}
        record_run, record_graph = RunStore.record_run, RunStore.record_graph

        def recording_run(store, spec, row, result_json, provenance):
            record = record_run(store, spec, row, result_json, provenance)
            appended.append(json.dumps(record))
            runs[record["key"]] = record
            return record

        def recording_graph(store, key, description):
            record_graph(store, key, description)
            appended.append(json.dumps({"kind": "graph", "key": key, "description": description}))

        monkeypatch.setattr(RunStore, "record_run", recording_run)
        monkeypatch.setattr(RunStore, "record_graph", recording_graph)
        return appended, runs

    def test_appended_compacted_and_converted_bytes_are_the_records(self, tmp_path, recorded):
        appended, runs = recorded
        path = tmp_path / "store.jsonl"
        campaign = _campaign()
        with RunStore(path) as store:
            execute_campaign(campaign, store=store)
            execute_campaign(campaign, store=store, resume=False)
            store.flush()
            assert path.read_text() == "".join(line + "\n" for line in appended)
            graphs = [
                json.dumps({"kind": "graph", "key": key, "description": description})
                for key, description in store.iter_graph_items()
            ]
            assert store.compact()["dropped"] == len(campaign)
        live = graphs + [json.dumps(record) for record in runs.values()]
        expected = "".join(line + "\n" for line in live)
        assert path.read_text() == expected
        convert_store(path, tmp_path / "store.sqlite")
        convert_store(tmp_path / "store.sqlite", tmp_path / "back.jsonl")
        assert (tmp_path / "back.jsonl").read_text() == expected

    def test_iter_run_records_yields_fresh_dicts(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with RunStore(path) as store:
            execute_campaign(_campaign(), store=store)
            execute_campaign(_campaign(), store=store, resume=False)
            records = [json.dumps(record) for record in store.iter_run_records()]
            rows = list(store.iter_rows())
            for record in store.iter_run_records():
                record["row"]["graph"] = "mutated"
                record["spec"]["algorithm"] = "mutated"
                record["result"].clear()
                record["provenance"].clear()
            assert [json.dumps(record) for record in store.iter_run_records()] == records
            store.compact()
        with RunStore(path, read_only=True) as reopened:
            assert [json.dumps(record) for record in reopened.iter_run_records()] == records
            assert list(reopened.iter_rows()) == rows

    def test_reopened_store_serves_the_recorded_spec_and_result(self, tmp_path, recorded):
        _, runs = recorded
        path = tmp_path / "store.jsonl"
        campaign = _campaign()
        with RunStore(path) as store:
            execute_campaign(campaign, store=store)
        with RunStore(path, read_only=True) as reopened:
            for spec in campaign.specs:
                key = spec.run_key()
                assert reopened.get_spec(key) == spec
                assert reopened.get_result(key).to_json_dict() == runs[key]["result"]
                assert reopened.get_provenance(key) == runs[key]["provenance"]


def _pool_records():
    """Four real run records, built in memory: (spec, row, result, provenance)."""
    memory = RunStore(None)
    execute_campaign(_campaign(), store=memory)
    return [
        (
            RunSpec.from_json_dict(record["spec"]),
            record["row"],
            record["result"],
            record["provenance"],
        )
        for record in memory.iter_run_records()
    ]


def _reads(store) -> tuple:
    """Everything a caller can read back of each live run's record."""
    keys = store.run_keys()
    return (
        [store.get_spec(key) for key in keys],
        [store.get_result(key).to_json_dict() for key in keys],
        list(store.iter_run_records()),
    )


@pytest.fixture(scope="module")
def zoo_store(tmp_path_factory):
    """A fresh JSONL store holding an in-process zoo then zoo-faulty sweep."""
    path = tmp_path_factory.mktemp("zoo") / "zoo.jsonl"
    with RunStore(path) as store:
        for name in ("zoo", "zoo-faulty"):
            execute_campaign(preset_campaign(name), store=store)
    return path


class TestOffsetIndex:
    """An on-disk store indexes each live run by the byte offset of its
    line and reads the record back from the file, or from the commit
    buffer while it is there (DESIGN.md, Section 11)."""

    def test_reads_after_compact_match_the_reads_before(self, tmp_path):
        with RunStore(tmp_path / "store.jsonl") as store:
            execute_campaign(_campaign(), store=store)
            execute_campaign(_campaign(), store=store, resume=False)  # supersedes every run
            before = _reads(store)
            assert store.compact()["dropped"] == len(_campaign())
            assert _reads(store) == before

    def test_old_and_new_records_read_back_after_a_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first, *_, last = _pool_records()
        with RunStore(path) as store:
            store.record_run(*first)
            old = _reads(store)
        with path.open("ab") as handle:
            handle.write(b'{"kind": "run", "key": "torn", "sp')
        with RunStore(path) as store:
            assert store.stats["recovered_lines"] == 1
            store.record_run(*last)
            store.flush()
            both = _reads(store)
        specs, results, records = both
        assert specs == [first[0], last[0]]
        assert (specs[:1], results[:1], records[:1]) == old
        with RunStore(path, read_only=True) as reopened:
            assert _reads(reopened) == both

    def test_the_first_record_of_a_bom_prefixed_file_reads_back(self, tmp_path):
        plain, bom = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
        with RunStore(plain) as store:
            for record in _pool_records():  # runs only: the first line is a run
                store.record_run(*record)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        with RunStore(plain, read_only=True) as expected, RunStore(bom, read_only=True) as store:
            assert _reads(store) == _reads(expected)

    def test_a_non_ascii_line_reads_back_before_and_after_flush_and_reopen(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first, second = _pool_records()[:2]
        record = json.loads(json.dumps(make_run_record(*first)))
        record["row"]["graph"] = "größer-graph-∑"
        with RunStore(path, batch_size=1000) as store:
            store.append_record_line(json.dumps(record, ensure_ascii=False))
            # The next line starts after the first one's bytes, not its characters.
            store.append_record_line(json.dumps(make_run_record(*second)))
            buffered = _reads(store)
            store.flush()
            assert _reads(store) == buffered
        with RunStore(path, read_only=True) as reopened:
            assert _reads(reopened) == buffered
        specs, _, records = buffered
        assert specs == [first[0], second[0]]
        assert records[0] == record

    def test_a_buffered_record_reads_back_without_a_commit(self, tmp_path):
        path = tmp_path / "store.jsonl"
        pool = _pool_records()
        with RunStore(path, batch_size=1000) as store:
            store.record_run(*pool[0])
            store.flush()
            fsyncs, commits = store.stats["fsyncs"], store.stats["commits"]
            for record in pool[1:]:
                store.record_run(*record)
            reads = _reads(store)
            assert (store.stats["fsyncs"], store.stats["commits"]) == (fsyncs, commits)
        assert reads[0] == [spec for spec, *_ in pool]
        with RunStore(path, read_only=True) as reopened:
            assert _reads(reopened) == reads

    def test_a_file_truncated_under_an_open_store_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with RunStore(path) as store:
            execute_campaign(_campaign(), store=store)
            last = store.run_keys()[-1]
            os.truncate(path, path.stat().st_size - 10)
            message = re.escape(f"{path}: no record of run {last}")
            with pytest.raises(ConfigurationError, match=message):
                store.get_result(last)
            truncated = path.read_bytes()
            with pytest.raises(ConfigurationError, match=message):
                store.compact()
        # The failed rewrite left the file as it was and no temporary.
        assert path.read_bytes() == truncated
        assert sorted(tmp_path.iterdir()) == [path]

    def test_a_file_rewritten_under_an_open_store_never_serves_another_record(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with RunStore(path) as store:
            execute_campaign(_campaign(), store=store)
            first = store.run_keys()[0]
            lines = path.read_bytes().splitlines(keepends=True)
            # Drop the first run's line: the second run's now starts at its offset.
            path.write_bytes(b"".join(line for line in lines if first.encode() not in line))
            with pytest.raises(ConfigurationError, match="truncated or rewritten"):
                store.get_spec(first)
            with pytest.raises(ConfigurationError, match="truncated or rewritten"):
                list(store.iter_run_records())

    def test_an_abandoned_iteration_closes_its_handle(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with RunStore(path) as store:
            execute_campaign(_campaign(), store=store)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = RunStore(path, read_only=True)
            records = store.iter_run_records()
            next(records)
            del records
            gc.collect()
            store.close()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_a_read_only_open_holds_less_than_the_file(self, zoo_store):
        gc.collect()
        tracemalloc.start()
        try:
            store = RunStore(zoo_store, read_only=True)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        store.close()
        # It held 2.5x the file while each run kept its record text.
        assert held < zoo_store.stat().st_size

    def test_a_zoo_store_has_the_pinned_bytes(self, zoo_store):
        """How records are held in memory changes no byte on disk.

        The provenance stamps the package version, so a release bump
        moves this pin.
        """
        data = zoo_store.read_bytes()
        assert (data.count(b"\n"), len(data), hashlib.sha256(data).hexdigest()) == (
            471,
            578_313,
            "9264472aae73be934898a6e5c5427265949e07abb4189548215394c8423c8676",
        )


class TestConvertRobustness:
    """``store convert`` accepts every store that opens, and a failed
    convert leaves no destination behind to refuse a retry."""

    def _stores(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        with RunStore(plain) as store:
            execute_campaign(_campaign(), store=store)
        bom = tmp_path / "bom.jsonl"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        return plain, bom

    def test_bom_prefixed_store_converts_to_both_backends(self, tmp_path):
        plain, bom = self._stores(tmp_path)
        convert_store(plain, tmp_path / "plain-out.jsonl")
        convert_store(bom, tmp_path / "bom-out.jsonl")
        assert (tmp_path / "bom-out.jsonl").read_bytes() == (
            tmp_path / "plain-out.jsonl"
        ).read_bytes()
        convert_store(bom, tmp_path / "bom-out.sqlite")
        with open_store(tmp_path / "bom-out.sqlite", read_only=True) as converted:
            with RunStore(plain, read_only=True) as original:
                assert list(converted.iter_rows()) == list(original.iter_rows())

    @pytest.mark.parametrize("name", ["out.jsonl", "out.sqlite", "out-dir"])
    def test_failed_convert_removes_its_destination(self, tmp_path, monkeypatch, name):
        from repro.campaign.columnar import ColumnarStore

        plain, _ = self._stores(tmp_path)
        dest = tmp_path / name
        lines = []

        def failing(original):
            def append_record_line(store, line):
                lines.append(line)
                if len(lines) > 1:
                    raise RuntimeError("destination went away")
                original(store, line)

            return append_record_line

        for cls in (RunStore, ColumnarStore):
            monkeypatch.setattr(
                cls, "append_record_line", failing(cls.append_record_line)
            )
        with pytest.raises(RuntimeError, match="went away"):
            convert_store(plain, dest)
        assert not dest.exists()
        monkeypatch.undo()
        convert_store(plain, dest)  # the retry is not refused
        assert dest.exists()


class TestRecordEncoding:
    """Both backends write every record as ``json.dumps(record)`` through
    one shared encoder, and a record JSON cannot encode is refused with a
    typed error before the store changes (DESIGN.md, Section 11)."""

    BACKENDS = ("jsonl", "columnar")

    def _path(self, tmp_path, backend):
        return tmp_path / ("store.sqlite" if backend == "columnar" else "store.jsonl")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_written_record_is_json_dumps_of_it(self, tmp_path, backend):
        row = {
            "graph": "grille é ☃",
            "ratio": float("nan"),
            "bound": float("inf"),
            "zero": -0.0,
            "pair": ([1], [2.5]),
            "detail": {"b": [None, True], "a": "x"},
        }
        description = {"n": 3, "m": 2, "D": 2}
        with open_store(self._path(tmp_path, backend)) as store:
            record = store.record_run(_spec(0), row, {"rounds": 3}, {"seed": None})
            store.record_graph("g", description)
            graph = {"kind": "graph", "key": "g", "description": description}
            assert list(store.iter_record_lines()) == [json.dumps(record), json.dumps(graph)]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("value", ["set", "itself"])
    def test_a_run_record_json_cannot_encode_raises_and_stores_nothing(
        self, tmp_path, backend, value
    ):
        """Bugfix: the encoder's bare TypeError (a set) or ValueError (a
        row holding itself) escaped ``record_run`` untyped."""
        path = self._path(tmp_path, backend)
        row: dict = {"graph": "g"}
        row["x"] = {1, 2} if value == "set" else row
        spec = _spec(0)
        with open_store(path) as store:
            assert len(store) == 0
            with pytest.raises(ConfigurationError, match=f"run record {spec.run_key()}"):
                store.record_run(spec, row, {}, {})
            assert len(store) == 0 and not store.has_run(spec.run_key())
        with open_store(path) as reopened:
            assert len(reopened) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_graph_record_json_cannot_encode_raises_and_caches_nothing(
        self, tmp_path, backend
    ):
        path = self._path(tmp_path, backend)
        with open_store(path) as store:
            with pytest.raises(ConfigurationError, match="graph record g"):
                store.record_graph("g", {"n": {1, 2}})
            assert store.graph_keys() == [] and store.graph_description("g") is None
        with open_store(path) as reopened:
            assert reopened.graph_keys() == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_row_holding_a_tuple_of_lists_reads_back_isolated(self, tmp_path, backend):
        """A tuple is immutable but its lists are not: reads copy it."""
        spec = _spec(0)
        key = spec.run_key()
        recorded = json.dumps({"graph": "g", "pair": [[1], [2]]})
        with open_store(self._path(tmp_path, backend)) as store:
            store.record_run(spec, {"graph": "g", "pair": ([1], [2])}, {}, {})
            store.get_row(key)["pair"][0].append(99)
            next(iter(store.iter_rows()))["pair"][1].append(99)
            assert json.dumps(store.get_row(key)) == recorded
            assert [json.dumps(row) for row in store.iter_rows()] == [recorded]
