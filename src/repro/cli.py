"""Command-line front-end.

Examples::

    repro-mst run --family random_connected --n 200 --algorithm elkin
    repro-mst compare --family grid --rows 10 --cols 10
    repro-mst sweep-bandwidth --family random_connected --n 256 --bandwidths 1 2 4 8
    repro-mst sweep --preset e6-bandwidth --jobs 4 --output runs.jsonl --resume
    repro-mst sweep --preset zoo --output zoo.jsonl
    repro-mst sweep --families random_connected grid --sizes 64 128 \
        --algorithms elkin ghs --seeds 0 1 --jobs 4 --output runs.jsonl

The single-graph subcommands build one graph from a generator family,
run one or more of the simulated algorithms, verify the result against
the sequential oracles and print an ASCII table with the measured rounds
and messages.  ``sweep`` executes a whole campaign grid (a named preset
or a cross-product of the supplied axes) against a persistent JSONL run
store with resume semantics -- batched in-process by default (see
DESIGN.md, Section 10); with ``--jobs N`` the batched-parallel
scheduler leases graph-affine work units to N persistent workers, each
batching locally (DESIGN.md, Section 13).

Every subcommand is a thin shim over the scenario facade
(:mod:`repro.api`): the CLI assembles :class:`~repro.api.Scenario`
grids and a :class:`~repro.api.Runner` executes them, so command-line
runs share the exact execution path (verification, provenance, store
writes) of programmatic ones.  Sequential references (``kruskal``,
``prim``, ``boruvka_seq``) are accepted wherever an algorithm name is;
their rows report zero rounds and messages.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .algorithms import available_algorithms
from .analysis.tables import format_table
from .api import Runner, Scenario
from .campaign import (
    available_presets,
    Campaign,
    execute_campaign,
    graph_spec_for,
    open_store,
    preset_campaign,
)
from .campaign.store import convert_store, DURABILITY_LEVELS, STORE_BACKENDS
from .config import RunConfig
from .exceptions import ConfigurationError
from .graphs.generators import available_families, make_graph
from .graphs.properties import graph_summary
from .logging_utils import enable_console_logging
from .simulator.engine import available_engines, DEFAULT_ENGINE

#: Families a CLI user can ask for (edge_list specs carry explicit
#: edges); includes the workload-zoo families from :mod:`repro.workloads`.
CLI_FAMILIES = available_families()


def _engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        default=DEFAULT_ENGINE,
        choices=available_engines(),
        help="simulation kernel to run on; every engine reports identical "
        "rounds and messages (see DESIGN.md, Section 5)",
    )


def _condition_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--condition",
        default=None,
        metavar="SPEC",
        help="network condition: a preset name (see repro.conditions."
        "available_conditions: lossy, flaky, delayed, jittery, heavy-delay, "
        "crash-stop, crash-restart) or '+'-separated clauses such as "
        "'loss(rate=0.1,retransmit=4)+delay(max=2)+seed=7' "
        "(see DESIGN.md, Section 14)",
    )


def _graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        default="random_connected",
        choices=CLI_FAMILIES,
        help="graph generator family",
    )
    parser.add_argument("--n", type=int, default=100, help="number of vertices (where applicable)")
    parser.add_argument("--rows", type=int, default=None, help="rows (grid / torus families)")
    parser.add_argument("--cols", type=int, default=None, help="columns (grid / torus families)")
    parser.add_argument("--clique-size", type=int, default=None, help="clique size (lollipop / barbell)")
    parser.add_argument("--path-length", type=int, default=None, help="path length (lollipop / barbell)")
    parser.add_argument("--seed", type=int, default=0, help="random seed for the generator")


def _build_graph(args: argparse.Namespace):
    from .graphs.generators import SHAPE_RULES

    params = {"seed": args.seed}
    if args.family in ("grid", "torus") and (args.rows or args.cols):
        params["rows"] = args.rows or 10
        params["cols"] = args.cols or 10
    elif args.family in ("lollipop", "barbell") and (args.clique_size or args.path_length):
        params["clique_size"] = args.clique_size or 10
        params["path_length"] = args.path_length or 30
    elif args.family in SHAPE_RULES:
        # Families not parameterized by a plain vertex count (grids,
        # hypercubes, ...) derive their canonical shape from --n.
        params.update(SHAPE_RULES[args.family](args.n))
    else:
        params["n"] = args.n
    return make_graph(args.family, **params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mst",
        description="Deterministic distributed MST (Elkin, PODC 2017) on a CONGEST simulator",
    )
    parser.add_argument("--verbose", action="store_true", help="enable console logging")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one algorithm on one generated graph")
    _graph_arguments(run_parser)
    run_parser.add_argument(
        "--algorithm", default="elkin", choices=available_algorithms(), help="algorithm to run"
    )
    run_parser.add_argument("--bandwidth", type=int, default=1, help="CONGEST(b log n) bandwidth")
    _engine_argument(run_parser)
    _condition_argument(run_parser)

    subparsers.add_parser(
        "engines",
        help="list simulation kernels: registered engines plus unavailable "
        "ones with the reason they cannot be used",
    )

    compare_parser = subparsers.add_parser("compare", help="compare algorithms on one graph")
    _graph_arguments(compare_parser)
    compare_parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["elkin", "ghs", "gkp"],
        choices=available_algorithms(),
        help="algorithms to compare",
    )
    _engine_argument(compare_parser)

    sweep_parser = subparsers.add_parser(
        "sweep-bandwidth", help="run the paper's algorithm under several bandwidths"
    )
    _graph_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--bandwidths", nargs="+", type=int, default=[1, 2, 4, 8], help="bandwidth values"
    )
    _engine_argument(sweep_parser)

    campaign_parser = subparsers.add_parser(
        "sweep",
        help="execute a campaign grid (preset or cross-product), "
        "optionally in parallel against a persistent run store",
    )
    campaign_parser.add_argument(
        "--preset",
        default=None,
        choices=available_presets(),
        help="named scenario grid (E1-E9 reproductions); overrides the grid axes",
    )
    campaign_parser.add_argument(
        "--families",
        nargs="+",
        default=["random_connected"],
        choices=CLI_FAMILIES,
        help="graph families of the grid",
    )
    campaign_parser.add_argument(
        "--sizes", nargs="+", type=int, default=[64], help="target vertex counts of the grid"
    )
    campaign_parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["elkin"],
        choices=available_algorithms(),
        help="algorithms of the grid",
    )
    campaign_parser.add_argument(
        "--bandwidths", nargs="+", type=int, default=[1], help="CONGEST(b log n) bandwidths"
    )
    campaign_parser.add_argument(
        "--seeds", nargs="+", type=int, default=[0], help="generator seeds of the grid"
    )
    _condition_argument(campaign_parser)
    campaign_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = in-process; N > 1 leases graph-affine "
        "work units to N persistent workers, each batching locally)",
    )
    campaign_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="run store file; completed cells are appended with provenance "
        "(JSONL, or columnar sqlite)",
    )
    campaign_parser.add_argument(
        "--store-backend",
        default="auto",
        choices=STORE_BACKENDS,
        help="run-store backend for --output: 'auto' (default) picks by "
        "path -- a .sqlite/.sqlite3/.db suffix or an existing sqlite "
        "file selects 'columnar', anything else 'jsonl' (see DESIGN.md, "
        "Section 15)",
    )
    campaign_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells whose content hash is already in the run store",
    )
    campaign_parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip MST verification against the sequential oracle",
    )
    campaign_parser.add_argument(
        "--no-batch",
        dest="batch",
        action="store_false",
        default=None,
        help="run every cell on its own (in-process, or on the --jobs N "
        "workers); the default batches, in-process or per worker",
    )
    # No default retarget: presets keep the engines they were designed
    # with (the zoo runs on the fast kernel) unless --engine is given.
    campaign_parser.add_argument(
        "--engine",
        default="",
        choices=available_engines(),
        help="retarget every cell at this simulation kernel; the default "
        "keeps each preset's own engine (ad-hoc grids default to "
        f"{DEFAULT_ENGINE!r})",
    )
    campaign_parser.add_argument(
        "--no-diameter",
        action="store_true",
        help="skip the hop-diameter (D) column of the instance "
        "description; exact diameter is the one O(n m) description "
        "field and dominates wall-clock at zoo-large scale",
    )
    campaign_parser.add_argument(
        "--durability",
        default="batch",
        choices=DURABILITY_LEVELS,
        help="run-store commit policy: 'batch' group-commits with one "
        "fsync per batch (default), 'record' fsyncs every record, "
        "'none' never fsyncs (see DESIGN.md, Section 11)",
    )

    report_parser = subparsers.add_parser(
        "report",
        help="aggregate a run store into the campaign analysis report "
        "(per-family tables, scaling fits, theorem-bound audit)",
    )
    report_parser.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="run store file (JSONL or columnar sqlite); opened read-only",
    )
    report_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the rendered markdown here (e.g. EXPERIMENTS.md); "
        "the default prints it to stdout",
    )
    report_parser.add_argument(
        "--title", default="EXPERIMENTS", help="top-level heading of the document"
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="static analysis: CONGEST-locality, determinism and contract "
        "rules over the source tree (see DESIGN.md, Section 16)",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to analyze (default: src)",
    )
    lint_parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=("text", "json"),
        help="report format: human-readable text or the JSON artifact shape",
    )
    lint_parser.add_argument(
        "--select",
        nargs="+",
        default=None,
        metavar="RULE-ID",
        help="run only these rule ids (e.g. DET203 LOC101)",
    )
    lint_parser.add_argument(
        "--ignore",
        nargs="+",
        default=None,
        metavar="RULE-ID",
        help="skip these rule ids",
    )
    lint_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the rendered report to this file",
    )
    lint_parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings (with their justifications) in "
        "the text report",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )

    store_parser = subparsers.add_parser(
        "store", help="run-store maintenance (compact / merge)"
    )
    store_commands = store_parser.add_subparsers(dest="store_command", required=True)
    info_parser = store_commands.add_parser(
        "info",
        help="print a store's backend, size and record counts, and the torn "
        "lines an open recovers (read-only: repairs nothing)",
    )
    info_parser.add_argument(
        "--store", required=True, metavar="PATH", help="run store to describe, any backend"
    )
    compact_parser = store_commands.add_parser(
        "compact", help="rewrite a store dropping superseded (last-record-wins) duplicates"
    )
    compact_parser.add_argument(
        "--store", required=True, metavar="PATH", help="run store to compact in place"
    )
    merge_parser = store_commands.add_parser(
        "merge", help="fold one or more stores into a destination store (idempotent)"
    )
    merge_parser.add_argument(
        "--into", required=True, metavar="DEST", help="destination store (created if missing)"
    )
    merge_parser.add_argument(
        "sources",
        nargs="+",
        metavar="STORE",
        help="source stores, any backend (opened read-only)",
    )
    convert_parser = store_commands.add_parser(
        "convert",
        help="copy a store record-for-record into a new backend "
        "(JSONL <-> columnar; byte-identical round trips)",
    )
    convert_parser.add_argument(
        "source", metavar="SOURCE", help="store to convert (opened read-only)"
    )
    convert_parser.add_argument(
        "--into", required=True, metavar="DEST", help="destination path (must not exist)"
    )
    convert_parser.add_argument(
        "--backend",
        default="auto",
        choices=STORE_BACKENDS,
        help="destination backend; 'auto' (default) picks by the "
        "destination path's suffix",
    )
    return parser


def _run_sweep(args: argparse.Namespace) -> int:
    """Handle the ``sweep`` subcommand."""
    if args.preset is not None:
        campaign = preset_campaign(args.preset, engine=args.engine)
    else:
        graphs = [
            graph_spec_for(family, size)
            for family in args.families
            for size in args.sizes
        ]
        campaign = Campaign.from_grid(
            "cli-sweep",
            graphs=graphs,
            algorithms=tuple(args.algorithms),
            bandwidths=tuple(args.bandwidths),
            engines=(args.engine or DEFAULT_ENGINE,),
            seeds=tuple(args.seeds),
        )
    if args.condition is not None:
        campaign = campaign.with_condition(args.condition)
    store = (
        open_store(args.output, backend=args.store_backend, durability=args.durability)
        if args.output
        else None
    )
    try:
        report = execute_campaign(
            campaign,
            store=store,
            jobs=args.jobs,
            resume=args.resume,
            verify=not args.no_verify,
            compute_diameter=not args.no_diameter,
            batch=args.batch,
        )
    finally:
        if store is not None:
            store.close()
    print(format_table(report.rows))
    summary = report.summary()
    if args.output:
        summary += f" -> {args.output}"
    print(summary)
    return 0


def _run_engines(args: argparse.Namespace) -> int:
    """Handle the ``engines`` subcommand."""
    from .simulator.engine import unavailable_engines

    rows = [
        {"engine": name, "status": "available", "note": "-"}
        for name in available_engines()
    ]
    rows += [
        {"engine": name, "status": "unavailable", "note": reason}
        for name, reason in sorted(unavailable_engines().items())
    ]
    print(format_table(rows))
    print(f"default engine: {DEFAULT_ENGINE}")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    """Handle the ``report`` subcommand."""
    from .analysis.report import write_report

    store_path = Path(args.store)
    if not store_path.exists():
        raise ConfigurationError(f"no run store at {store_path}")
    with open_store(store_path, read_only=True) as store:
        document = write_report(store, output=args.output, title=args.title)
    if args.output:
        print(f"wrote campaign report -> {args.output}")
    else:
        print(document, end="")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    """Handle the ``lint`` subcommand (exit 1 on unsuppressed findings)."""
    from .lint import lint_paths, render_json, render_rule_catalog, render_text

    if args.list_rules:
        print(render_rule_catalog(), end="")
        return 0

    def _split(ids: Optional[List[str]]) -> Optional[List[str]]:
        # Accept both `--select A B` and the flake8-style `--select A,B`.
        if ids is None:
            return None
        return [part for token in ids for part in token.split(",") if part]

    result = lint_paths(args.paths, select=_split(args.select), ignore=_split(args.ignore))
    if args.output_format == "json":
        document = render_json(result)
    else:
        document = render_text(result, show_suppressed=args.show_suppressed)
    if args.output:
        Path(args.output).write_text(document, encoding="utf-8")
    print(document, end="")
    return 0 if result.ok else 1


def _print_store_info(path: str) -> None:
    """Handle ``store info``: what a read-only open of ``path`` finds."""
    with open_store(path, read_only=True) as store:
        physical, runs = store._physical_records, len(store)
        graphs = len(store.graph_keys())
        print(f"store: {path}")
        print(f"backend: {store.backend_name}")
        print(f"file size: {Path(path).stat().st_size} bytes")
        print(f"physical records: {physical}")
        print(f"live runs: {runs}")
        print(f"graph descriptions: {graphs}")
        print(f"superseded records: {physical - runs - graphs}")
        print(f"recovered lines: {store.stats['recovered_lines']}")


def _run_store_maintenance(args: argparse.Namespace) -> int:
    """Handle the ``store info`` / ``compact`` / ``merge`` / ``convert`` subcommands."""
    if args.store_command == "info":
        _print_store_info(args.store)
    elif args.store_command == "compact":
        store_path = Path(args.store)
        if not store_path.exists():
            raise ConfigurationError(f"no run store at {store_path}")
        with open_store(store_path) as store:
            stats = store.compact()
        print(
            f"compacted {args.store}: {stats['before']} -> {stats['after']} records "
            f"({stats['dropped']} superseded dropped)"
        )
    elif args.store_command == "convert":
        stats = convert_store(args.source, args.into, backend=args.backend)
        print(
            f"converted {args.source} -> {args.into} "
            f"({stats['records']} records, {stats['backend']} backend)"
        )
    else:
        with open_store(args.into) as destination:
            for source in args.sources:
                stats = destination.merge_from(source)
                print(
                    f"merged {source} -> {args.into}: {stats['runs']} runs, "
                    f"{stats['graphs']} graphs ({stats['skipped']} already present)"
                )
        print(f"destination holds {len(destination)} runs")
    return 0


def _print_grid_rows(
    graph, algorithms: List[str], bandwidths: List[int], args: argparse.Namespace
) -> None:
    """Run every algorithm x bandwidth on ``graph`` and print one row each."""
    scenarios = [
        Scenario(
            graph=graph,
            algorithm=algorithm,
            config=RunConfig(bandwidth=bandwidth, engine=args.engine),
            label=args.family,
        )
        for algorithm in algorithms
        for bandwidth in bandwidths
    ]
    with Runner() as runner:
        outcomes = runner.run_many(scenarios)
    print(format_table([outcome.row for outcome in outcomes]))


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-mst`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        enable_console_logging()

    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "engines":
        return _run_engines(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "store":
        return _run_store_maintenance(args)

    graph = _build_graph(args)
    summary = graph_summary(graph)
    print(
        f"graph: family={args.family} n={summary.n} m={summary.m} D={summary.hop_diameter}"
    )

    if args.command == "run":
        scenario = Scenario(
            graph=graph,
            algorithm=args.algorithm,
            config=RunConfig(
                bandwidth=args.bandwidth, engine=args.engine, condition=args.condition
            ),
        )
        # The hop-diameter was already printed from graph_summary above.
        result = Runner(compute_diameter=False).run(scenario).result
        print(format_table([result.summary_row()]))
        print(f"MST weight: {result.total_weight:.3f} ({result.edge_count} edges, verified)")
        telemetry = result.details.get("condition")
        if telemetry:
            print(
                f"condition {telemetry.get('condition')}: "
                f"{telemetry.get('dropped', 0)} dropped, "
                f"{telemetry.get('delayed', 0)} delayed, "
                f"{telemetry.get('retransmits', 0)} retransmits, "
                f"{telemetry.get('crash_omissions', 0)} crash omissions"
            )
    elif args.command == "compare":
        _print_grid_rows(graph, args.algorithms, [1], args)
    elif args.command == "sweep-bandwidth":
        _print_grid_rows(graph, ["elkin"], args.bandwidths, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
