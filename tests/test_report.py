"""The campaign report pipeline and the three analysis-layer bugfixes.

``golden_experiments.md`` is the pinned rendering of the report over
``golden_rows.jsonl`` -- the report-pipeline counterpart of the golden
run-row fixture.  Regenerate (only when an output change is intended)::

    PYTHONPATH=src python tests/test_report.py --regenerate
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.report import (
    analyze_rows,
    family_of,
    render_markdown,
    write_report,
)
from repro.analysis.tables import _render_cell, format_table
from repro.exceptions import ConfigurationError, ReproError, VerificationError

GOLDEN_ROWS = Path(__file__).parent / "golden_rows.jsonl"
GOLDEN_REPORT = Path(__file__).parent / "golden_experiments.md"


def _golden_rows() -> list:
    with GOLDEN_ROWS.open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestFormatTableUnionRegression:
    """Bugfix: columns present only in later rows must not be dropped."""

    def test_union_of_all_rows_keys(self):
        text = format_table([{"a": 1, "b": 2}, {"a": 3, "b": 4, "c": 5}])
        assert "c" in text.splitlines()[0]
        assert text.splitlines()[-1].split() == ["3", "4", "5"]

    def test_first_seen_order_is_preserved(self):
        text = format_table([{"b": 1}, {"a": 2, "c": 3}, {"d": 4}])
        assert text.splitlines()[0].split() == ["b", "a", "c", "d"]

    def test_missing_cells_render_as_dash(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "-" in text.splitlines()[2]

    def test_explicit_columns_still_win(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert text.splitlines()[0].split() == ["b"]


def _format_table_by_row(rows, columns=None):
    """The row-at-a-time renderer ``format_table`` replaced: its reference."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is not None:
        column_names = list(columns)
    else:
        column_names = []
        for row in rows:
            for name in row:
                if name not in column_names:
                    column_names.append(name)
    rendered = [
        [_render_cell(row.get(name, "-")) for name in column_names] for row in rows
    ]
    widths = [
        max(len(name), *(len(line[index]) for line in rendered))
        for index, name in enumerate(column_names)
    ]
    header = "  ".join(name.ljust(width) for name, width in zip(column_names, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.rjust(width) for cell, width in zip(line, widths)) for line in rendered
    ]
    return "\n".join([header, separator, *body])


class _Ratio(float):
    """A float subclass (as numpy's float64 is): rendered like a float."""

    def __str__(self) -> str:
        return "ratio"


_FLOATS = [0.0, -0.0, 0.004, 0.5, 999.9996, 1234.5, float("nan"), float("inf"), _Ratio(0.25)]
_MIXED = [
    {"name": "a", "count": 3, "flag": True, "note": None, "value": 0.5},
    {"name": "longer name", "count": -12345, "flag": False, "note": "x", "value": 7},
    {"value": "text", "name": "", "extra": 1e-9},
]


class TestFormatTableByColumn:
    """``format_table`` renders a column at a time; every table it
    renders equals the row-at-a-time reference byte for byte."""

    PANEL = {
        "floats": ([{"v": value, "i": index} for index, value in enumerate(_FLOATS)], None),
        "float subclass alone": ([{"r": _Ratio(0.125)}, {"r": 3}], None),
        "ints bools none strings": (
            [{"i": 1, "b": True, "n": None, "s": "x"}, {"i": 22, "b": False, "n": None, "s": ""}],
            None,
        ),
        "a column of mixed types": (
            [{"v": 1}, {"v": 2.5}, {"v": "s"}, {"v": None}, {"v": True}],
            None,
        ),
        "rows missing keys": (_MIXED, None),
        "explicit columns": (_MIXED, ["value", "missing", "name"]),
        "explicit columns, one twice": (_MIXED, ["count", "count"]),
        "no columns": (_MIXED, []),
        "empty rows": ([{}, {}], None),
        "names wider than cells": ([{"a_long_column_name": 1, "b": 0.5}], None),
        "no rows": ([], None),
    }

    @pytest.mark.parametrize("case", sorted(PANEL))
    def test_equals_the_row_wise_renderer(self, case):
        rows, columns = self.PANEL[case]
        assert format_table(rows, columns) == _format_table_by_row(rows, columns)

    def test_equals_the_row_wise_renderer_on_the_golden_rows(self):
        rows = _golden_rows()
        assert format_table(rows) == _format_table_by_row(rows)

    def test_a_float_subclass_column_renders_through_render_cell(self):
        table = format_table([{"r": _Ratio(0.125)}])
        assert table.splitlines()[-1] == "0.125"


class TestPrsForcedKRegression:
    """Bugfix: the sqrt(n) base forest must not be clamped by n // 10."""

    def test_small_n_uses_ceil_sqrt_n(self):
        # n = 30: ceil(sqrt(30)) = 6, but the old n // 10 clamp forced 3.
        from repro.baselines.prs import prs_style_mst
        from repro.graphs import random_connected_graph

        result = prs_style_mst(random_connected_graph(30, seed=2))
        assert result.details["forced_k"] == 6
        assert result.details["ceil_sqrt_n"] == 6

    def test_forced_k_matches_docstring_for_sample_sizes(self):
        import math

        from repro.baselines.prs import prs_style_mst
        from repro.graphs import random_connected_graph

        for n in (12, 50, 64):
            result = prs_style_mst(random_connected_graph(n, seed=1))
            assert result.details["forced_k"] == math.ceil(math.sqrt(n))


class TestElkinTimeBoundFallbackRegression:
    """Bugfix: a missing bfs_depth must not silently tighten the bound to 0."""

    @pytest.fixture()
    def stripped_result(self, small_random_graph):
        from repro.core.elkin_mst import compute_mst

        result = compute_mst(small_random_graph)
        result.details.pop("bfs_depth", None)
        return result

    def test_missing_depth_and_diameter_raises_clearly(self, stripped_result):
        from repro.analysis.bounds import elkin_bounds
        from repro.verify.complexity_checks import assert_elkin_bounds

        assert elkin_bounds(stripped_result.n, stripped_result.m)[0] is None
        with pytest.raises(VerificationError, match="bfs_depth"):
            assert_elkin_bounds(stripped_result)

    def test_instance_diameter_fallback(self, small_random_graph, stripped_result):
        from repro.analysis.bounds import elkin_bounds, elkin_time_bound_formula
        from repro.graphs.properties import hop_diameter
        from repro.verify.complexity_checks import assert_elkin_bounds

        diameter = hop_diameter(small_random_graph)
        round_bound, _ = elkin_bounds(
            stripped_result.n, stripped_result.m, stripped_result.bandwidth, diameter=diameter
        )
        assert round_bound == elkin_time_bound_formula(
            stripped_result.n, diameter, stripped_result.bandwidth
        )
        assert_elkin_bounds(stripped_result, diameter=diameter)

    def test_caller_diameter_is_preferred_to_recorded_depth(self, small_random_graph):
        from repro.analysis.bounds import elkin_bounds
        from repro.core.elkin_mst import compute_mst
        from repro.verify.complexity_checks import assert_elkin_bounds

        result = compute_mst(small_random_graph)
        depth = result.details["bfs_depth"]
        # The row rule: D when known, else the recorded BFS depth.
        assert elkin_bounds(result.n, result.m, diameter=10**6, bfs_depth=depth) == (
            elkin_bounds(result.n, result.m, diameter=10**6)
        )
        # A run just over its BFS-depth bound passes once the caller
        # supplies a larger D: the caller's D wins over the depth.
        depth_bound, _ = elkin_bounds(result.n, result.m, bfs_depth=depth)
        inflated = dataclasses.replace(
            result, cost=dataclasses.replace(result.cost, rounds=int(depth_bound) + 1)
        )
        with pytest.raises(VerificationError, match="round count"):
            assert_elkin_bounds(inflated)
        assert_elkin_bounds(inflated, diameter=10**6)


class TestAnalyzeRows:
    def test_family_grouping(self):
        analysis = analyze_rows(_golden_rows())
        assert set(analysis.families) == {
            "planted_fragments",
            "hypercube",
            "duplicate_weight_stress",
        }
        assert sum(len(rows) for rows in analysis.families.values()) == len(analysis.rows)

    def test_family_of_handles_bare_labels(self):
        assert family_of({"graph": "mygraph"}) == "mygraph"
        assert family_of({}) == "unknown"

    def test_bound_audit_is_clean_on_golden_rows(self):
        analysis = analyze_rows(_golden_rows())
        assert analysis.bound_checked == 6  # 3 graphs x 2 engines
        assert analysis.bound_violations == 0
        assert analysis.bound_skipped == 0

    def test_bound_audit_flags_inflated_rows(self):
        rows = _golden_rows()
        inflated = [dict(row) for row in rows]
        for row in inflated:
            if row["algorithm"] == "elkin":
                row["rounds"] = 10**9
        analysis = analyze_rows(inflated)
        assert analysis.bound_violations == analysis.bound_checked
        assert all(v.metric == "rounds" for v in analysis.violations)

    def test_round_bound_skipped_without_diameter_never_tightened_to_zero(self):
        """Report-level mirror of the elkin_time_bound fallback contract."""
        rows = [dict(row) for row in _golden_rows() if row["algorithm"] == "elkin"]
        for row in rows:
            row.pop("D", None)
        analysis = analyze_rows(rows)
        # The message bound needs only n and m, so the rows still count
        # as checked; only the round check is marked unauditable.
        assert analysis.bound_checked == len(rows)
        assert analysis.bound_skipped == len(rows)
        assert analysis.bound_violations == 0
        assert "round-bound unauditable" in render_markdown(analysis)

    def test_message_bound_still_audited_without_diameter(self):
        """A diameter-less row must not dodge the Theorem 3.1 message audit."""
        rows = [dict(row) for row in _golden_rows() if row["algorithm"] == "elkin"]
        for row in rows:
            row.pop("D", None)
            row["messages"] = 10**12
        analysis = analyze_rows(rows)
        assert analysis.bound_violations == len(rows)
        assert all(v.metric == "messages" for v in analysis.violations)

    def test_recorded_bound_columns_trusted_when_present(self):
        rows = [dict(row) for row in _golden_rows() if row["algorithm"] == "elkin"]
        for row in rows:
            row.pop("D", None)
            row["round_bound"] = 1  # recorded bound, deliberately violated
        analysis = analyze_rows(rows)
        assert analysis.bound_checked == len(rows)
        assert analysis.bound_violations == len(rows)

    def test_fits_cover_distributed_algorithms_only(self):
        analysis = analyze_rows(_golden_rows())
        fitted = {fit.algorithm for fit in analysis.fits}
        assert "elkin" in fitted and "ghs" in fitted
        assert "kruskal" not in fitted and "prim" not in fitted

    def test_messages_fit_exists_and_n_fit_reports_no_spread(self):
        # The golden instances share n = 16: rounds-vs-n has no spread,
        # messages-vs-m does (m = 31, 32, 47).
        analysis = analyze_rows(_golden_rows())
        by_key = {(fit.algorithm, fit.metric): fit for fit in analysis.fits}
        assert by_key[("elkin", "messages")].fit is not None
        assert by_key[("elkin", "rounds")].fit is None
        assert "insufficient spread" in by_key[("elkin", "rounds")].note

    def test_crossover_pairs_elkin_with_prs(self):
        analysis = analyze_rows(_golden_rows())
        assert len(analysis.crossover) == 6  # 3 graphs x 2 engines
        for row in analysis.crossover:
            assert row["prs/elkin"] > 0

    def test_crossover_pairs_rows_per_seed(self):
        """Multi-seed sweeps must pair rows that actually ran together."""
        template = next(row for row in _golden_rows() if row["algorithm"] == "elkin")
        rows = []
        for seed in (0, 1):
            for algorithm, messages in (("elkin", 100 + seed), ("prs", 300 + seed)):
                row = dict(template)
                # Same presentation label for both seeds: only the seed
                # column distinguishes the cells.
                row.update(graph="relabeled", algorithm=algorithm, seed=seed,
                           messages=messages)
                rows.append(row)
        analysis = analyze_rows(rows)
        assert len(analysis.crossover) == 2  # one pairing per seed
        ratios = sorted(row["prs/elkin"] for row in analysis.crossover)
        assert ratios == sorted([round(300 / 100, 3), round(301 / 101, 3)])

    def test_empty_rows_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            analyze_rows([])


class TestGoldenExperimentsFixture:
    def test_fixture_exists(self):
        assert GOLDEN_REPORT.exists(), (
            "golden report fixture missing; regenerate with: "
            "PYTHONPATH=src python tests/test_report.py --regenerate"
        )

    def test_rendering_matches_the_fixture(self):
        document = render_markdown(analyze_rows(_golden_rows()))
        assert document == GOLDEN_REPORT.read_text(encoding="utf-8"), (
            "report rendering drifted from tests/golden_experiments.md; if "
            "intended, regenerate with: "
            "PYTHONPATH=src python tests/test_report.py --regenerate"
        )

    def test_fixture_contains_the_acceptance_sections(self):
        text = GOLDEN_REPORT.read_text(encoding="utf-8")
        assert "bound-violation count: **0**" in text
        assert "## Scaling fits" in text
        assert "## Per-family results" in text
        assert "exponent" in text


class TestWriteReport:
    def test_write_report_from_store(self, tmp_path):
        from repro.campaign import Campaign, RunStore, execute_campaign, graph_spec_for

        campaign = Campaign.from_grid(
            "report", [graph_spec_for("random_connected", 16)], seeds=(0,)
        )
        output = tmp_path / "EXPERIMENTS.md"
        with RunStore(tmp_path / "store") as store:
            execute_campaign(campaign, store=store)
            document = write_report(store, output=str(output))
        assert output.read_text(encoding="utf-8") == document
        assert "bound-violation count: **0**" in document

    def test_runner_report_convenience(self, tmp_path):
        from repro.api import Runner, Scenario
        from repro.graphs import GraphSpec

        with Runner(store=str(tmp_path / "store.jsonl")) as runner:
            runner.run(Scenario(graph=GraphSpec("random_connected", {"n": 16, "seed": 0})))
            document = runner.report(output=str(tmp_path / "EXPERIMENTS.md"))
        assert (tmp_path / "EXPERIMENTS.md").exists()
        assert "rows: 1" in document


class TestReportCLI:
    @pytest.fixture()
    def populated_store(self, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "store.jsonl")
        assert (
            main(
                ["sweep", "--families", "random_connected", "--sizes", "16",
                 "--algorithms", "elkin", "ghs", "--seeds", "0", "--output", path]
            )
            == 0
        )
        return path

    def test_report_prints_to_stdout(self, populated_store, capsys):
        from repro.cli import main

        capsys.readouterr()
        assert main(["report", "--store", populated_store]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# EXPERIMENTS")
        assert "bound-violation count: **0**" in out

    def test_report_writes_output_file(self, populated_store, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--store", populated_store, "--output", str(output)]) == 0
        assert "wrote campaign report" in capsys.readouterr().out
        assert output.read_text(encoding="utf-8").startswith("# EXPERIMENTS")

    def test_report_missing_store_rejected(self, tmp_path):
        from repro.cli import main

        with pytest.raises(ConfigurationError, match="no run store"):
            main(["report", "--store", str(tmp_path / "nope.jsonl")])

    def test_store_compact_subcommand(self, populated_store, capsys):
        from repro.cli import main

        assert main(["store", "compact", "--store", populated_store]) == 0
        assert "compacted" in capsys.readouterr().out

    def test_store_info_counts_a_torn_tail_and_leaves_the_file_as_is(
        self, populated_store, capsys
    ):
        from repro.cli import main

        path = Path(populated_store)
        with path.open("ab") as handle:
            handle.write(b'{"kind": "run", "key": "torn", "sp')
        before = path.read_bytes()
        capsys.readouterr()
        assert main(["store", "info", "--store", populated_store]) == 0
        assert capsys.readouterr().out == (
            f"store: {populated_store}\n"
            "backend: jsonl\n"
            f"file size: {len(before)} bytes\n"
            "physical records: 3\n"
            "live runs: 2\n"
            "graph descriptions: 1\n"
            "superseded records: 0\n"
            "recovered lines: 1\n"
        )
        assert path.read_bytes() == before

    def test_store_merge_subcommand(self, populated_store, tmp_path, capsys):
        from repro.cli import main

        dest = str(tmp_path / "merged")
        assert main(["store", "merge", "--into", dest, populated_store]) == 0
        out = capsys.readouterr().out
        assert "merged" in out and "2 runs" in out
        # Merged store serves the report too.
        assert main(["report", "--store", dest]) == 0


class TestNonTerminatedRowsMissingMetrics:
    """``status="non-terminated"`` rows may lack the metric columns a
    clean row always carries; the analysis must not crash on them."""

    def _crashed_row(self, **extra):
        row = {
            "graph": "random_connected(16)",
            "algorithm": "elkin",
            "condition": "crash-stop",
            "status": "non-terminated",
        }
        row.update(extra)
        return row

    def test_analyze_rows_tolerates_missing_metric_columns(self):
        rows = _golden_rows() + [self._crashed_row()]
        analysis = analyze_rows(rows)
        assert analysis.conditioned == 1
        entry = analysis.degradation[-1]
        assert entry["status"] == "non-terminated"
        assert entry["rounds"] is None and entry["messages"] is None
        assert entry["round_factor"] == "-" and entry["message_factor"] == "-"
        render_markdown(analysis)  # must not raise

    def test_conditioned_row_without_n_or_m_is_excluded_from_fits(self):
        rows = _golden_rows()
        baseline = analyze_rows(rows)
        with_crash = analyze_rows(rows + [self._crashed_row()])
        assert with_crash.fits == baseline.fits
        assert with_crash.violations == baseline.violations

    def test_prs_row_without_messages_does_not_break_crossover(self):
        rows = _golden_rows() + [
            {"graph": "grid(9)", "algorithm": "elkin", "n": 9, "m": 12,
             "rounds": 10, "messages": 50},
            {"graph": "grid(9)", "algorithm": "prs", "n": 9, "m": 12,
             "rounds": 12, "status": "ok"},
        ]
        analysis = analyze_rows(rows)
        render_markdown(analysis)  # must not raise


def _regenerate() -> None:
    document = render_markdown(analyze_rows(_golden_rows()))
    GOLDEN_REPORT.write_text(document, encoding="utf-8")
    print(f"wrote golden report fixture to {GOLDEN_REPORT}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
