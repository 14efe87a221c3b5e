"""Columnar (sqlite) run-store backend.

The equivalence matrix here is the gate ROADMAP item 5 demands: the
JSONL and columnar backends must produce identical rows, identical ``CampaignAnalysis`` output and an identical
rendered EXPERIMENTS.md from the same campaign, and ``store convert``
round trips must be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path

import pytest

from repro.analysis.report import analyze_rows, analyze_store, render_markdown
from repro.campaign import (
    Campaign,
    ColumnarStore,
    convert_store,
    execute_campaign,
    graph_spec_for,
    open_store,
    RunStore,
)
from repro.campaign.spec import RunSpec
from repro.campaign.store import detect_backend
from repro.cli import main
from repro.exceptions import ConfigurationError

GOLDEN_ROWS = Path(__file__).parent / "golden_rows.jsonl"


def _golden_rows() -> list:
    with GOLDEN_ROWS.open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _campaign(sizes=(8, 12, 16), algorithms=("elkin", "prs")) -> Campaign:
    return Campaign.from_grid(
        "columnar-suite",
        graphs=[graph_spec_for("random_connected", n, seed=1) for n in sizes],
        algorithms=algorithms,
        seeds=(0,),
    )


def _spec(index: int) -> RunSpec:
    return RunSpec(
        graph=graph_spec_for("random_connected", 16, seed=index),
        algorithm="elkin",
        collect_telemetry=False,
    )


def _store_with_golden_rows(store) -> None:
    """Record every golden row (one synthetic spec per row) and close."""
    for index, row in enumerate(_golden_rows()):
        store.record_run(_spec(index), row, {"row": index}, {"executor": "test"})
    store.close()


def _rows_sha256(store_path: Path) -> str:
    with open_store(store_path, read_only=True) as store:
        payload = json.dumps(list(store.iter_rows()), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _report(store_path: Path) -> str:
    with open_store(store_path, read_only=True) as store:
        return render_markdown(analyze_store(store))


class TestBackendSelection:
    def test_fresh_suffixes_select_columnar(self, tmp_path):
        for name in ("a.sqlite", "b.sqlite3", "c.db", "d.SQLITE"):
            assert detect_backend(tmp_path / name) == "columnar"
        for name in ("a.jsonl", "b.ndjson", "c.json", "plain-dir"):
            assert detect_backend(tmp_path / name) == "jsonl"

    def test_existing_files_classified_by_magic_not_suffix(self, tmp_path):
        disguised = tmp_path / "runs.jsonl"
        with ColumnarStore(disguised) as store:
            store.record_graph("g", {"n": 4, "m": 3})
        assert detect_backend(disguised) == "columnar"
        plain = tmp_path / "runs.sqlite"
        plain.write_text('{"kind": "graph", "key": "g", "description": {}}\n')
        assert detect_backend(plain) == "jsonl"
        assert isinstance(open_store(disguised, read_only=True), ColumnarStore)

    def test_directories_stay_jsonl(self, tmp_path):
        target = tmp_path / "shards"
        target.mkdir()
        assert detect_backend(target) == "jsonl"
        with pytest.raises(ConfigurationError, match="directory"):
            ColumnarStore(target)

    def test_open_store_rejects_unknown_backend_and_memory_columnar(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown store backend"):
            open_store(tmp_path / "x.sqlite", backend="parquet")
        with pytest.raises(ConfigurationError, match="on-disk path"):
            open_store(None, backend="columnar")

    def test_columnar_open_on_jsonl_file_fails_loudly(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"kind": "graph", "key": "g", "description": {}}\n')
        with pytest.raises(ConfigurationError, match="not a columnar run store"):
            ColumnarStore(path)


class TestRejectedOpens:
    """A rejected file is left byte-for-byte as found, connection closed."""

    @pytest.mark.parametrize(
        "schema_version,read_only,message",
        [
            ("9", True, "unsupported columnar store schema v9"),
            ("9", False, "unsupported columnar store schema v9"),
            (None, True, "not a columnar run store"),
        ],
        ids=("v9-read-only", "v9-writable", "unversioned-read-only"),
    )
    def test_rejected_open_is_harmless(
        self, tmp_path, monkeypatch, schema_version, read_only, message
    ):
        path = tmp_path / "store.sqlite"
        connection = sqlite3.connect(str(path))
        with connection:
            connection.execute("CREATE TABLE meta (k TEXT PRIMARY KEY, v TEXT NOT NULL)")
            if schema_version is not None:
                connection.execute(
                    "INSERT INTO meta (k, v) VALUES ('schema_version', ?)",
                    (schema_version,),
                )
        connection.close()
        before = path.read_bytes()
        opened = []
        connect = sqlite3.connect

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr("repro.campaign.columnar.sqlite3.connect", recording_connect)
        with pytest.raises(ConfigurationError, match=message):
            ColumnarStore(path, read_only=read_only)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["store.sqlite"]
        assert len(opened) == 1
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            opened[0].execute("SELECT 1")


class TestColumnarContract:
    @pytest.mark.parametrize("line", ["[1]", "5"])
    def test_appending_a_line_that_is_not_an_object_raises(self, tmp_path, line):
        with ColumnarStore(tmp_path / "runs.sqlite") as store:
            with pytest.raises(ConfigurationError, match="not a JSON object"):
                store.append_record_line(line)
            assert len(store) == 0 and store.graph_keys() == []

    @pytest.mark.parametrize("durability", ("record", "batch", "none"))
    def test_sweep_persists_and_reloads_under_every_level(self, tmp_path, durability):
        path = tmp_path / "runs.sqlite"
        store = ColumnarStore(path, durability=durability)
        report = execute_campaign(_campaign(), store=store)
        store.close()
        reloaded = ColumnarStore(path)
        assert list(reloaded.iter_rows()) == report.rows
        assert len(reloaded) == len(report.rows)
        reloaded.close()

    def test_record_durability_commits_every_append(self, tmp_path):
        store = ColumnarStore(tmp_path / "runs.sqlite", durability="record")
        for index in range(3):
            store.record_run(_spec(index), {"graph": "g"}, {}, {})
        assert store.stats["commits"] == 3
        assert store.stats["fsyncs"] == 3
        store.close()

    def test_batch_appends_buffer_until_flush(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        store = ColumnarStore(path, durability="batch", batch_size=64)
        for index in range(5):
            store.record_run(_spec(index), {"graph": "g", "i": index}, {}, {})
        assert store.stats["commits"] == 0
        # Uncommitted appends are invisible to a second connection but
        # answer point reads on this one (resume needs that).
        with ColumnarStore(path, read_only=True) as other:
            assert len(other) == 0
        assert store.get_row(_spec(2).run_key())["i"] == 2
        store.flush()
        assert store.stats["commits"] == 1
        with ColumnarStore(path, read_only=True) as other:
            assert len(other) == 5
        store.close()

    def test_batch_size_triggers_automatic_commit(self, tmp_path):
        store = ColumnarStore(tmp_path / "runs.sqlite", batch_size=2)
        for index in range(4):
            store.record_run(_spec(index), {"graph": "g"}, {}, {})
        assert store.stats["commits"] == 2
        store.close()

    def test_point_lookups_roundtrip(self, tmp_path):
        store = ColumnarStore(tmp_path / "runs.sqlite")
        campaign = _campaign(sizes=(8,), algorithms=("elkin",))
        execute_campaign(campaign, store=store)
        key = campaign.specs[0].run_key()
        assert store.has_run(key) and key in store
        assert store.get_spec(key) == campaign.specs[0]
        assert store.get_row(key)["algorithm"] == "elkin"
        assert store.get_provenance(key)["verified"] is True
        assert store.get_result(key).algorithm == "elkin"
        assert store.run_keys() == [key]
        store.close()

    def test_resume_skips_existing_cells(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        campaign = _campaign()
        with ColumnarStore(path) as store:
            execute_campaign(campaign, store=store)
            first = store._physical_records
        with ColumnarStore(path) as store:
            report = execute_campaign(campaign, store=store, resume=True)
            assert sorted(report.reused_indexes) == list(range(len(campaign.specs)))
            assert store._physical_records == first

    def test_last_record_wins_and_first_seen_order(self, tmp_path):
        jsonl = RunStore(tmp_path / "runs.jsonl")
        columnar = ColumnarStore(tmp_path / "runs.sqlite")
        for store in (jsonl, columnar):
            store.record_run(_spec(0), {"graph": "a", "v": 1}, {}, {})
            store.record_run(_spec(1), {"graph": "b", "v": 2}, {}, {})
            store.record_run(_spec(0), {"graph": "a", "v": 3}, {}, {})
            store.close()
        with RunStore(tmp_path / "runs.jsonl") as jsonl:
            with ColumnarStore(tmp_path / "runs.sqlite") as columnar:
                assert list(columnar.iter_rows()) == list(jsonl.iter_rows())
                assert [row["v"] for row in columnar.iter_rows()] == [3, 2]

    def test_compact_keeps_first_seen_order(self, tmp_path):
        rows = {}
        for name in ("runs.jsonl", "runs.sqlite"):
            with open_store(tmp_path / name) as store:
                store.record_run(_spec(0), {"graph": "a", "v": 1}, {}, {})
                store.record_run(_spec(1), {"graph": "b", "v": 2}, {}, {})
                store.record_run(_spec(0), {"graph": "a", "v": 3}, {}, {})
                store.record_run(_spec(2), {"graph": "c", "v": 4}, {}, {})
                assert store.compact()["dropped"] == 1
            with open_store(tmp_path / name, read_only=True) as store:
                rows[name] = (store.run_keys(), list(store.iter_rows()))
        assert rows["runs.sqlite"] == rows["runs.jsonl"]
        assert [row["v"] for row in rows["runs.sqlite"][1]] == [3, 2, 4]

    def test_returned_rows_are_detached_copies(self, tmp_path):
        store = ColumnarStore(tmp_path / "runs.sqlite")
        store.record_run(_spec(0), {"graph": "g", "nested": {"xs": [1]}}, {}, {"p": 1})
        key = _spec(0).run_key()
        store.get_row(key)["nested"]["xs"].append(99)
        next(iter(store.iter_rows()))["nested"]["xs"].append(99)
        store.get_provenance(key)["p"] = 2
        assert store.get_row(key) == {"graph": "g", "nested": {"xs": [1]}}
        assert store.get_provenance(key) == {"p": 1}
        store.close()

    def test_compact_drops_superseded_and_is_idempotent(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        store = ColumnarStore(path)
        for value in range(3):
            store.record_run(_spec(0), {"graph": "g", "v": value}, {}, {})
        store.record_graph("gk", {"n": 4, "m": 3})
        stats = store.compact()
        assert stats == {"before": 4, "after": 2, "dropped": 2}
        assert store.compact()["dropped"] == 0
        assert store.get_row(_spec(0).run_key())["v"] == 2
        # The store keeps appending after a compact.
        store.record_run(_spec(1), {"graph": "h"}, {}, {})
        store.close()
        with ColumnarStore(path) as reloaded:
            assert len(reloaded) == 2
            assert reloaded.graph_description("gk") == {"n": 4, "m": 3}

    def test_read_only_requires_existing_path_and_rejects_writes(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no run store"):
            ColumnarStore(tmp_path / "missing.sqlite", read_only=True)
        path = tmp_path / "runs.sqlite"
        with ColumnarStore(path) as store:
            store.record_run(_spec(0), {"graph": "g"}, {}, {})
        with ColumnarStore(path, read_only=True) as store:
            assert len(store) == 1
            with pytest.raises(ConfigurationError, match="read_only"):
                store.record_run(_spec(1), {"graph": "h"}, {}, {})
            with pytest.raises(ConfigurationError, match="read_only"):
                store.compact()
            with pytest.raises(ConfigurationError, match="read_only"):
                store.merge_from(tmp_path / "other.sqlite")


class TestCrossBackendMerge:
    def _populate(self, store, start, count):
        for index in range(start, start + count):
            store.record_run(_spec(index), {"graph": f"g{index}"}, {}, {})
        store.record_graph(f"graph-{start}", {"n": start, "m": start})
        store.close()

    @pytest.mark.parametrize(
        "dest_name,src_name",
        [
            ("dest.sqlite", "src.jsonl"),
            ("dest.jsonl", "src.sqlite"),
            ("dest.sqlite", "src.sqlite"),
        ],
    )
    def test_merge_any_backend_pairing_is_idempotent(self, tmp_path, dest_name, src_name):
        dest_path, src_path = tmp_path / dest_name, tmp_path / src_name
        self._populate(open_store(dest_path), 0, 2)
        self._populate(open_store(src_path), 1, 2)
        with open_store(dest_path) as dest:
            stats = dest.merge_from(src_path)
            assert stats == {"runs": 1, "graphs": 1, "skipped": 1}
            assert dest.merge_from(src_path)["runs"] == 0
            assert len(dest) == 3
            assert {row["graph"] for row in dest.iter_rows()} == {"g0", "g1", "g2"}

    def test_self_merge_rejected_across_path_spellings(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        self._populate(ColumnarStore(path), 0, 1)
        link = tmp_path / "alias.sqlite"
        link.symlink_to(path)
        with ColumnarStore(path) as store:
            with pytest.raises(ConfigurationError, match="into itself"):
                store.merge_from(link)
            with pytest.raises(ConfigurationError, match="into itself"):
                store.merge_from(store)


class TestEquivalenceMatrix:
    """JSONL / columnar: one campaign, identical output."""

    @pytest.fixture(scope="class")
    def matrix(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("matrix")
        campaign = _campaign()
        paths = {"jsonl": tmp / "runs.jsonl", "columnar": tmp / "runs.sqlite"}
        for path in paths.values():
            store = open_store(path)
            execute_campaign(campaign, store=store)
            store.close()
        return paths

    def test_rows_identical_across_backends(self, matrix):
        rows = {
            name: list(open_store(path, read_only=True).iter_rows())
            for name, path in matrix.items()
        }
        assert rows["jsonl"] == rows["columnar"]

    def test_campaign_analysis_identical_across_backends(self, matrix):
        analyses = {
            name: analyze_store(open_store(path, read_only=True))
            for name, path in matrix.items()
        }
        assert analyses["jsonl"] == analyses["columnar"]

    def test_rendered_markdown_identical_across_backends(self, matrix):
        documents = {
            name: render_markdown(analyze_store(open_store(path, read_only=True)))
            for name, path in matrix.items()
        }
        assert documents["jsonl"] == documents["columnar"]
        assert "bound-violation count: **0**" in documents["columnar"]


class TestConvert:
    def test_golden_rows_round_trip_is_byte_identical(self, tmp_path):
        source = tmp_path / "golden.jsonl"
        _store_with_golden_rows(RunStore(source))
        convert_store(source, tmp_path / "golden.sqlite")
        convert_store(tmp_path / "golden.sqlite", tmp_path / "back.jsonl")
        assert (tmp_path / "back.jsonl").read_bytes() == source.read_bytes()

    def test_convert_preserves_superseded_history(self, tmp_path):
        source = tmp_path / "src.jsonl"
        with RunStore(source) as store:
            store.record_run(_spec(0), {"graph": "g", "v": 1}, {}, {})
            store.record_run(_spec(0), {"graph": "g", "v": 2}, {}, {})
        stats = convert_store(source, tmp_path / "dst.sqlite")
        assert stats == {"records": 2, "backend": "columnar"}
        with ColumnarStore(tmp_path / "dst.sqlite") as dest:
            assert dest._physical_records == 2
            assert dest.get_row(_spec(0).run_key())["v"] == 2

    def test_convert_refuses_existing_destination_and_missing_source(self, tmp_path):
        source = tmp_path / "src.jsonl"
        _store_with_golden_rows(RunStore(source))
        existing = tmp_path / "dst.sqlite"
        existing.write_text("")
        with pytest.raises(ConfigurationError, match="existing path"):
            convert_store(source, existing)
        with pytest.raises(ConfigurationError, match="no run store"):
            convert_store(tmp_path / "nope.jsonl", tmp_path / "new.sqlite")

    def test_converted_store_analysis_and_hashes_match(self, tmp_path):
        source = tmp_path / "src.jsonl"
        _store_with_golden_rows(RunStore(source))
        convert_store(source, tmp_path / "dst.sqlite")
        assert _rows_sha256(source) == _rows_sha256(tmp_path / "dst.sqlite")
        with open_store(tmp_path / "dst.sqlite", read_only=True) as store:
            assert render_markdown(analyze_store(store)) == render_markdown(
                analyze_rows(_golden_rows())
            )


class TestColumnarReport:
    def test_run_rows_projection_matches_payloads(self, tmp_path):
        with ColumnarStore(tmp_path / "runs.sqlite") as store:
            execute_campaign(_campaign(), store=store)
            rows = list(store.iter_rows())
            assert rows and rows == [record["row"] for record in store.iter_run_records()]

    def test_superseding_rerun_reports_match_jsonl(self, tmp_path):
        campaign = _campaign(sizes=(8, 12), algorithms=("elkin",))
        for name in ("runs.sqlite", "runs.jsonl"):
            with open_store(tmp_path / name) as store:
                execute_campaign(campaign, store=store)
                execute_campaign(campaign, store=store, resume=False)  # supersedes
                assert store._physical_records > len(store)
        assert _report(tmp_path / "runs.sqlite") == _report(tmp_path / "runs.jsonl")

    def test_legacy_report_meta_rows_are_ignored(self, tmp_path):
        """Older columnar stores kept report aggregates in two ``meta``
        rows; they are ignored, so such a store reads and writes as is."""
        columnar, jsonl = tmp_path / "runs.sqlite", tmp_path / "runs.jsonl"
        for path in (columnar, jsonl):
            with open_store(path) as store:
                execute_campaign(_campaign(), store=store)
        with ColumnarStore(columnar, read_only=True) as store:
            records, runs = store._physical_records, len(store)
        # The older format's keys; the values are never read.
        analytics = dict(
            version=1, row_count=runs, conditioned=0, groups=[], algorithms=[],
            messages_seen={}, series=[], bound_checked=0, bound_skipped=0, violations=[],
        )
        connection = sqlite3.connect(str(columnar))
        with connection:
            connection.executemany(
                "INSERT OR REPLACE INTO meta (k, v) VALUES (?, ?)",
                [
                    ("analytics", json.dumps(analytics)),
                    (
                        "analytics_state",
                        json.dumps({"records": records, "runs": runs}, sort_keys=True),
                    ),
                ],
            )
        connection.close()
        assert _report(columnar) == _report(jsonl)

        rerun = _campaign(sizes=(8, 20), algorithms=("elkin",))
        for path in (columnar, jsonl):
            with open_store(path) as store:
                execute_campaign(rerun, store=store, resume=False)
                assert store.compact()["dropped"] > 0
        assert _report(columnar) == _report(jsonl)


class TestColumnarScheduler:
    def test_parallel_columnar_rows_match_serial_jsonl(self, tmp_path):
        campaign = _campaign(sizes=(8, 10, 12, 14), algorithms=("elkin", "ghs"))
        with open_store(tmp_path / "par.sqlite") as parallel_store:
            parallel_report = execute_campaign(campaign, store=parallel_store, jobs=2)
        with open_store(tmp_path / "ser.jsonl") as serial_store:
            serial_report = execute_campaign(campaign, store=serial_store)
        assert parallel_report.rows == serial_report.rows
        with open_store(tmp_path / "par.sqlite", read_only=True) as store:
            assert len(store) == len(campaign.specs)
            assert analyze_store(store).bound_violations == 0


class TestColumnarCLI:
    SWEEP = [
        "sweep",
        "--families",
        "random_connected",
        "--sizes",
        "16",
        "--algorithms",
        "elkin",
        "--seeds",
        "0",
        "1",
    ]

    def test_sweep_report_convert_pipeline(self, tmp_path, capsys):
        store_path = tmp_path / "runs.sqlite"
        argv = self.SWEEP + ["--output", str(store_path), "--store-backend", "columnar"]
        assert main(argv) == 0
        capsys.readouterr()
        assert detect_backend(store_path) == "columnar"

        assert main(["report", "--store", str(store_path)]) == 0
        fast = capsys.readouterr().out
        assert "bound-violation count: **0**" in fast

        converted = tmp_path / "runs.jsonl"
        assert main(
            ["store", "convert", str(store_path), "--into", str(converted)]
        ) == 0
        assert "columnar" not in capsys.readouterr().out.split("(")[-1]
        assert main(["report", "--store", str(converted)]) == 0
        assert capsys.readouterr().out == fast

    def test_sweep_auto_backend_picks_columnar_by_suffix(self, tmp_path, capsys):
        store_path = tmp_path / "auto.sqlite"
        assert main(self.SWEEP + ["--output", str(store_path)]) == 0
        capsys.readouterr()
        assert detect_backend(store_path) == "columnar"
        with open_store(store_path, read_only=True) as store:
            assert store.backend_name == "columnar" and len(store) == 2

    def test_store_info_counts_a_columnar_store(self, tmp_path, capsys):
        store_path = tmp_path / "runs.sqlite"
        argv = self.SWEEP + ["--output", str(store_path), "--store-backend", "columnar"]
        assert main(argv) == 0
        assert main(argv) == 0  # no --resume: every cell superseded
        capsys.readouterr()
        assert main(["store", "info", "--store", str(store_path)]) == 0
        assert capsys.readouterr().out == (
            f"store: {store_path}\n"
            "backend: columnar\n"
            f"file size: {store_path.stat().st_size} bytes\n"
            "physical records: 6\n"
            "live runs: 2\n"
            "graph descriptions: 2\n"
            "superseded records: 2\n"
            "recovered lines: 0\n"
        )

    def test_store_compact_handles_columnar(self, tmp_path, capsys):
        store_path = tmp_path / "runs.sqlite"
        argv = self.SWEEP + ["--output", str(store_path), "--store-backend", "columnar"]
        assert main(argv) == 0
        assert main(argv) == 0  # no --resume: every cell superseded
        capsys.readouterr()
        assert main(["store", "compact", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "superseded dropped" in out and "0 superseded" not in out
