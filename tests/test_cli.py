"""Tests for the command-line front-end."""

from __future__ import annotations

import gc
import warnings

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.algorithm == "elkin"
        assert args.family == "random_connected"
        assert args.bandwidth == 1

    def test_compare_accepts_algorithm_list(self):
        args = build_parser().parse_args(["compare", "--algorithms", "elkin", "gkp"])
        assert args.algorithms == ["elkin", "gkp"]

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "dijkstra"])


class TestMain:
    def test_run_command_prints_verified_result(self, capsys):
        exit_code = main(["run", "--family", "random_connected", "--n", "30", "--seed", "3"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "graph:" in captured
        assert "elkin" in captured
        assert "verified" in captured

    def test_run_on_grid_family(self, capsys):
        exit_code = main(["run", "--family", "grid", "--rows", "4", "--cols", "4"])
        assert exit_code == 0
        assert "n=16" in capsys.readouterr().out

    def test_compare_command_lists_all_algorithms(self, capsys):
        exit_code = main(
            ["compare", "--family", "random_connected", "--n", "25", "--seed", "1",
             "--algorithms", "elkin", "ghs"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "ghs" in captured and "elkin" in captured

    def test_sweep_bandwidth_command(self, capsys):
        exit_code = main(
            ["sweep-bandwidth", "--family", "random_connected", "--n", "25", "--seed", "1",
             "--bandwidths", "1", "4"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert captured.count("\n") >= 4

    def test_lollipop_family_arguments(self, capsys):
        exit_code = main(
            ["run", "--family", "lollipop", "--clique-size", "5", "--path-length", "8",
             "--algorithm", "gkp"]
        )
        assert exit_code == 0
        assert "gkp" in capsys.readouterr().out

    def test_verbose_flag(self, capsys):
        exit_code = main(["--verbose", "run", "--family", "star", "--n", "12"])
        assert exit_code == 0


class TestSweepCommand:
    def test_sweep_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.jobs == 1
        assert args.preset is None
        assert args.resume is False

    def test_sweep_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--preset", "e99"])

    def test_sweep_durability_choices(self):
        assert build_parser().parse_args(["sweep"]).durability == "batch"
        args = build_parser().parse_args(["sweep", "--durability", "record"])
        assert args.durability == "record"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--durability", "paranoid"])

    def test_sweep_batches_unless_no_batch(self):
        assert build_parser().parse_args(["sweep"]).batch is None
        assert build_parser().parse_args(["sweep", "--no-batch"]).batch is False
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--batch"])

    def test_sweep_durability_reaches_the_store(self, capsys, tmp_path):
        store = str(tmp_path / "runs.jsonl")
        argv = ["sweep", "--families", "random_connected", "--sizes", "16",
                "--seeds", "0", "--output", store, "--durability", "record"]
        assert main(argv) == 0
        assert (tmp_path / "runs.jsonl").read_text().count('"kind"') >= 2

    def test_sweep_grid_smoke(self, capsys):
        exit_code = main(
            ["sweep", "--families", "random_connected", "--sizes", "20",
             "--algorithms", "elkin", "ghs", "--seeds", "0"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "elkin" in captured and "ghs" in captured
        assert "2 cells (2 executed, 0 reused)" in captured

    def test_sweep_with_store_and_resume(self, capsys, tmp_path):
        store = str(tmp_path / "runs.jsonl")
        argv = ["sweep", "--families", "random_connected", "--sizes", "20",
                "--seeds", "0", "1", "--output", store]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 executed, 0 reused" in first

        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 reused" in second

    def test_sweep_closes_its_store_when_the_campaign_raises(self, capsys, tmp_path, monkeypatch):
        execute_campaign = cli.execute_campaign

        def fails_after_committing(campaign, store=None, **kwargs):
            execute_campaign(campaign, store=store, **kwargs)
            raise RuntimeError("interrupted sweep")

        monkeypatch.setattr(cli, "execute_campaign", fails_after_committing)
        argv = ["sweep", "--families", "path", "--sizes", "8", "--seeds", "0",
                "--output", str(tmp_path / "runs.jsonl")]
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="interrupted sweep"):
                main(argv)
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert [w for w in leaked if str(tmp_path) in str(w.message)] == []
        assert (tmp_path / "runs.jsonl").read_text().count('"kind"') >= 2

    def test_sweep_parallel_preset(self, capsys):
        exit_code = main(["sweep", "--preset", "smoke", "--jobs", "2", "--no-verify"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "16 cells (16 executed, 0 reused)" in captured

    def test_sweep_accepts_sequential_baseline(self, capsys):
        """A sequential reference is sweepable and reports zero costs."""
        exit_code = main(
            ["sweep", "--families", "random_connected", "--sizes", "20",
             "--algorithms", "elkin", "kruskal", "--seeds", "0"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        kruskal_rows = [line for line in captured.splitlines() if "kruskal" in line]
        assert len(kruskal_rows) == 1
        columns = kruskal_rows[0].split()
        # rounds and messages columns are both 0 for a local computation.
        assert columns.count("0") >= 2

    def test_run_accepts_sequential_baseline(self, capsys):
        exit_code = main(
            ["run", "--family", "random_connected", "--n", "20", "--seed", "0",
             "--algorithm", "boruvka_seq"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "boruvka_seq" in captured
        assert "verified" in captured


class TestEnginesCommand:
    def test_lists_registered_engines_and_the_default(self, capsys):
        exit_code = main(["engines"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "reference" in captured and "fast" in captured
        assert "available" in captured
        assert "default engine: reference" in captured

    def test_lists_unavailable_engines_with_the_reason(self, capsys):
        from repro.simulator.engine import (
            register_engine,
            register_unavailable_engine,
            registered_factory,
        )

        factory = registered_factory("fast")
        register_unavailable_engine("fast", "simulated outage for the test")
        try:
            assert main(["engines"]) == 0
            captured = capsys.readouterr().out
            assert "unavailable" in captured
            assert "simulated outage" in captured
        finally:
            register_engine("fast", factory)


class TestConditionOption:
    def test_run_and_sweep_parsers_accept_condition(self):
        assert build_parser().parse_args(["run"]).condition is None
        args = build_parser().parse_args(["run", "--condition", "lossy"])
        assert args.condition == "lossy"
        args = build_parser().parse_args(["sweep", "--condition", "delay(max=2)"])
        assert args.condition == "delay(max=2)"

    def test_run_under_a_condition_prints_fault_telemetry(self, capsys):
        exit_code = main(
            ["run", "--family", "random_connected", "--n", "20", "--seed", "3",
             "--engine", "fast", "--condition", "lossy"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "verified" in captured
        assert "condition lossy:" in captured
        assert "retransmits" in captured

    def test_sweep_under_a_condition_adds_the_status_columns(self, capsys):
        exit_code = main(
            ["sweep", "--families", "random_connected", "--sizes", "20",
             "--seeds", "0", "--engine", "fast", "--condition", "lossy"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "condition" in captured and "lossy" in captured
        assert "ok" in captured

    def test_malformed_condition_is_a_configuration_error(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="malformed"):
            main(["run", "--family", "random_connected", "--n", "20",
                  "--condition", "delay(3)"])
