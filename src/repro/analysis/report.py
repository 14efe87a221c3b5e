"""Campaign analysis: turn a run store into the paper's evidence tables.

The campaign layer can produce hundreds of rows per sweep; this module
is what consumes them at campaign scale.  :func:`analyze_rows` reduces
any collection of flat run rows (a :class:`~repro.campaign.store.RunStore`,
a ``CampaignReport``, a JSONL file) into a :class:`CampaignAnalysis`:

* per-family / per-algorithm result tables (rendered through
  :func:`~repro.analysis.tables.format_table`);
* power-law fits of rounds versus ``n`` and messages versus ``m`` per
  distributed algorithm (via :func:`~repro.analysis.fitting.fit_power_law`),
  annotated with the exponent the paper's Theorem 3.1/3.2 bounds
  predict;
* a theorem-bound audit of every row of the paper's algorithm -- the
  recorded bound columns when present, the
  :mod:`~repro.analysis.bounds` formulas re-evaluated on the row's
  instance description otherwise -- summarised as a violation count
  that should be **zero** on a faithful reproduction;
* the E9 head-to-head (paper versus the PRS16-style ``k = sqrt(n)``
  strategy) wherever a sweep ran both.

:func:`render_markdown` turns the analysis into an ``EXPERIMENTS.md``
document; ``repro-mst report`` and :meth:`repro.api.Runner.report` are
thin shims over these two calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import ReproError
from .bounds import elkin_message_bound_formula, elkin_time_bound_formula
from .fitting import fit_power_law, PowerLawFit
from .tables import format_table

#: One flat run row, as produced by the campaign executor.
Row = Mapping[str, object]

#: Reference exponents predicted by the complexity classes: what the
#: fitted slope should be *at most* (modulo log factors, which log-log
#: fits absorb into a slowly drifting constant).
REFERENCE_EXPONENTS: Dict[Tuple[str, str], Tuple[float, str]] = {
    ("elkin", "messages"): (1.0, "Theorem 3.1: O(m log n + n log n log* n)"),
    ("elkin", "rounds"): (0.5, "Theorem 3.2: O((D + sqrt(n/b)) log n)"),
    ("prs", "messages"): (1.0, "Theta(D sqrt(n)) per phase on high-D graphs"),
    ("gkp", "messages"): (1.5, "Theta(m + n^(3/2))"),
    ("ghs", "messages"): (1.0, "O((m + n) log n)"),
    ("ghs", "rounds"): (1.0, "O(n log n)"),
}


@dataclass(frozen=True)
class ScalingFit:
    """One fitted scaling law: ``metric ~ scale * x_name ** exponent``."""

    algorithm: str
    metric: str
    x_name: str
    points: int
    fit: Optional[PowerLawFit]
    reference: str = ""
    note: str = ""


@dataclass(frozen=True)
class BoundViolation:
    """One row of the paper's algorithm that exceeded a theorem bound."""

    graph: str
    metric: str
    measured: float
    bound: float


@dataclass
class CampaignAnalysis:
    """Everything :func:`analyze_rows` distils from a sweep's rows."""

    rows: List[Dict[str, object]] = field(default_factory=list)
    families: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    fits: List[ScalingFit] = field(default_factory=list)
    violations: List[BoundViolation] = field(default_factory=list)
    #: elkin rows audited against the bounds.  The message bound is
    #: audited for every one of them; violations ⊆ checked.
    bound_checked: int = 0
    #: elkin rows whose *round* bound could not be audited (no recorded
    #: bound and no D); their message bound was still checked.
    bound_skipped: int = 0
    #: E9 head-to-head rows: one per instance both elkin and prs ran on.
    crossover: List[Dict[str, object]] = field(default_factory=list)
    #: Degradation table: one row per conditioned cell, paired with its
    #: fault-free baseline when the sweep ran one on the same instance.
    degradation: List[Dict[str, object]] = field(default_factory=list)
    #: Rows executed under an injected network condition.  They are
    #: excluded from the scaling fits and the theorem-bound audit (the
    #: bounds assume a reliable synchronous network), so the audit can
    #: never flag fault-model artifacts as violations.
    conditioned: int = 0

    @property
    def bound_violations(self) -> int:
        return len(self.violations)


def family_of(row: Row) -> str:
    """The graph-family component of a row's ``graph`` label."""
    label = str(row.get("graph", ""))
    return label.split("(", 1)[0] or "unknown"


def _positive_series(
    rows: Sequence[Row], x_column: str, y_column: str
) -> Tuple[List[float], List[float]]:
    xs: List[float] = []
    ys: List[float] = []
    for row in rows:
        x, y = row.get(x_column), row.get(y_column)
        if isinstance(x, (int, float)) and isinstance(y, (int, float)) and x > 0 and y > 0:
            xs.append(float(x))
            ys.append(float(y))
    return xs, ys


def _fit_series(algorithm: str, rows: Sequence[Row], metric: str, x_name: str) -> ScalingFit:
    xs, ys = _positive_series(rows, x_name, metric)
    reference_exponent, reference = REFERENCE_EXPONENTS.get((algorithm, metric), (None, ""))
    if reference_exponent is not None:
        reference = f"<= ~{reference_exponent:g} ({reference})"
    if len(set(xs)) < 2:
        return ScalingFit(
            algorithm=algorithm,
            metric=metric,
            x_name=x_name,
            points=len(xs),
            fit=None,
            reference=reference,
            note=f"insufficient spread in {x_name} (need >= 2 distinct sizes)",
        )
    return ScalingFit(
        algorithm=algorithm,
        metric=metric,
        x_name=x_name,
        points=len(xs),
        fit=fit_power_law(xs, ys),
        reference=reference,
    )


def _audit_elkin_row(row: Row) -> Tuple[List[BoundViolation], bool]:
    """Check one elkin row against the Theorem 3.1/3.2 bounds.

    Prefers the bound columns the executor recorded with the row; falls
    back to re-evaluating the formulas on the row's instance
    description.  The message bound (Theorem 3.1) needs only ``n`` and
    ``m`` and is always audited; the round bound (Theorem 3.2) needs a
    diameter term, and a row carrying neither a recorded round bound
    nor the hop-diameter has its *round* check skipped -- never
    evaluated with a silent 0 diameter, which would tighten the bound
    (mirroring :func:`repro.verify.complexity_checks.elkin_time_bound`).
    Returns ``(violations, round_checked)``.
    """
    graph = str(row.get("graph", "?"))
    violations: List[BoundViolation] = []
    n, m = int(row["n"]), int(row["m"])
    bandwidth = int(row.get("bandwidth", 1))

    round_checked = True
    round_bound = row.get("round_bound")
    if round_bound is None:
        diameter = row.get("D")
        if diameter is None:
            round_checked = False
        else:
            round_bound = elkin_time_bound_formula(n, int(diameter), bandwidth)
    if round_checked and float(row["rounds"]) > float(round_bound):
        violations.append(
            BoundViolation(
                graph=graph,
                metric="rounds",
                measured=float(row["rounds"]),
                bound=float(round_bound),
            )
        )

    message_bound = row.get("message_bound")
    if message_bound is None:
        message_bound = elkin_message_bound_formula(n, m)
    if float(row["messages"]) > float(message_bound):
        violations.append(
            BoundViolation(
                graph=graph,
                metric="messages",
                measured=float(row["messages"]),
                bound=float(message_bound),
            )
        )
    return violations, round_checked


def _degradation_rows(rows: Sequence[Row]) -> List[Dict[str, object]]:
    """Pair every conditioned row with its fault-free baseline.

    Baselines are keyed by the full cell identity minus the condition
    (graph, algorithm, bandwidth, engine, seed), so a ``conditions=(None,
    "lossy", ...)`` sweep pairs each faulty cell with the clean run of
    the *same* instance.  Factors are measured/baseline; non-terminated
    cells report the rounds they burned before the cap with no factor
    (there is nothing meaningful to normalize).
    """
    baselines: Dict[Tuple[object, ...], Row] = {}
    for row in rows:
        if row.get("condition") is None:
            key = (
                row.get("graph"),
                row.get("algorithm"),
                row.get("bandwidth"),
                row.get("engine"),
                row.get("seed"),
            )
            baselines[key] = row
    table: List[Dict[str, object]] = []
    for row in rows:
        condition = row.get("condition")
        if condition is None:
            continue
        baseline = baselines.get(
            (
                row.get("graph"),
                row.get("algorithm"),
                row.get("bandwidth"),
                row.get("engine"),
                row.get("seed"),
            )
        )
        status = str(row.get("status", "ok"))
        entry: Dict[str, object] = {
            "condition": condition,
            "graph": row.get("graph"),
            "algorithm": row.get("algorithm"),
            "status": status,
            "rounds": row.get("rounds"),
            "messages": row.get("messages"),
            "dropped": row.get("dropped", 0),
            "retransmits": row.get("retransmits", 0),
        }
        if baseline is not None and status == "ok":
            base_rounds = float(baseline.get("rounds", 0) or 0)
            base_messages = float(baseline.get("messages", 0) or 0)
            entry["round_factor"] = (
                round(float(row.get("rounds", 0) or 0) / base_rounds, 3)
                if base_rounds
                else "-"
            )
            entry["message_factor"] = (
                round(float(row.get("messages", 0) or 0) / base_messages, 3)
                if base_messages
                else "-"
            )
        else:
            entry["round_factor"] = "-"
            entry["message_factor"] = "-"
        table.append(entry)
    table.sort(
        key=lambda entry: (
            str(entry["condition"]),
            str(entry["algorithm"]),
            str(entry["graph"]),
        )
    )
    return table


def _crossover_rows(rows: Sequence[Row]) -> List[Dict[str, object]]:
    """E9 head-to-head: message counts of elkin vs prs on shared instances."""
    # Keyed by the full cell identity minus the algorithm: a custom row
    # label may hide the seed, so the seed column is part of the key --
    # multi-seed sweeps must pair rows that actually ran together.
    by_instance: Dict[Tuple[object, ...], Dict[str, Row]] = {}
    for row in rows:
        algorithm = row.get("algorithm")
        if algorithm not in ("elkin", "prs"):
            continue
        key = (row.get("graph"), row.get("bandwidth"), row.get("engine"), row.get("seed"))
        by_instance.setdefault(key, {})[str(algorithm)] = row
    head_to_head = []
    for (graph, bandwidth, _engine, _seed), pair in by_instance.items():
        if "elkin" not in pair or "prs" not in pair:
            continue
        elkin_messages = float(pair["elkin"].get("messages", 0) or 0)
        prs_messages = float(pair["prs"].get("messages", 0) or 0)
        head_to_head.append(
            {
                "graph": graph,
                "n": pair["elkin"].get("n"),
                "D": pair["elkin"].get("D", "-"),
                "bandwidth": bandwidth,
                "elkin_messages": elkin_messages,
                "prs_messages": prs_messages,
                "prs/elkin": round(prs_messages / elkin_messages, 3)
                if elkin_messages
                else float("inf"),
            }
        )
    return head_to_head


def analyze_rows(rows: Iterable[Row]) -> CampaignAnalysis:
    """Reduce flat run rows into a :class:`CampaignAnalysis`."""
    analysis = CampaignAnalysis(rows=[dict(row) for row in rows])
    if not analysis.rows:
        raise ReproError("cannot analyze an empty campaign (no rows)")

    for row in analysis.rows:
        analysis.families.setdefault(family_of(row), []).append(row)

    # Conditioned rows measure degradation, not the theorems: the fits
    # and the bound audit run on the fault-free rows only, so injected
    # faults can never surface as false bound-violation flags.
    clean_rows = [row for row in analysis.rows if row.get("condition") is None]
    analysis.conditioned = len(analysis.rows) - len(clean_rows)

    by_algorithm: Dict[str, List[Dict[str, object]]] = {}
    for row in clean_rows:
        by_algorithm.setdefault(str(row.get("algorithm", "?")), []).append(row)
    for algorithm in sorted(by_algorithm):
        algorithm_rows = by_algorithm[algorithm]
        # Sequential references report zero rounds and messages; there
        # is no scaling law to fit for them.
        if not any(float(row.get("messages", 0) or 0) > 0 for row in algorithm_rows):
            continue
        analysis.fits.append(_fit_series(algorithm, algorithm_rows, "rounds", "n"))
        analysis.fits.append(_fit_series(algorithm, algorithm_rows, "messages", "m"))

    for row in by_algorithm.get("elkin", []):
        violations, round_checked = _audit_elkin_row(row)
        analysis.violations.extend(violations)
        analysis.bound_checked += 1
        if not round_checked:
            analysis.bound_skipped += 1

    # The E9 pairing key does not include the condition, so it also
    # runs on the fault-free rows only.
    analysis.crossover = _crossover_rows(clean_rows)
    analysis.degradation = _degradation_rows(analysis.rows)
    return analysis


def analyze_store(store: "RunStoreLike") -> CampaignAnalysis:
    """:func:`analyze_rows` over everything a run store holds.

    Every backend takes this one path over ``store.iter_rows()``; for
    the columnar backend that streams the ``run_rows`` projection, no
    result payloads touched.
    """
    return analyze_rows(store.iter_rows())


class RunStoreLike:
    """Typing stand-in: anything with ``iter_rows() -> Iterator[Row]``."""

    def iter_rows(self) -> Iterable[Row]:  # pragma: no cover - protocol only
        raise NotImplementedError


# -- rendering -----------------------------------------------------------


def _code_block(text: str) -> List[str]:
    return ["```", text, "```"]


def _fit_table(fits: Sequence[ScalingFit]) -> str:
    rows = []
    for entry in fits:
        rows.append(
            {
                "algorithm": entry.algorithm,
                "metric": entry.metric,
                "vs": entry.x_name,
                "points": entry.points,
                "exponent": round(entry.fit.exponent, 3) if entry.fit else "-",
                "scale": round(entry.fit.scale, 4) if entry.fit else "-",
                "log-mse": round(entry.fit.residual, 4) if entry.fit else "-",
                "reference": (entry.note if entry.fit is None else entry.reference) or "-",
            }
        )
    return format_table(rows)


def render_markdown(analysis: CampaignAnalysis, title: str = "EXPERIMENTS") -> str:
    """Render a :class:`CampaignAnalysis` as an ``EXPERIMENTS.md`` document."""
    algorithms = sorted({str(row.get("algorithm", "?")) for row in analysis.rows})
    lines: List[str] = [
        f"# {title}",
        "",
        "Campaign evidence tables generated by `repro-mst report` "
        "(see DESIGN.md, Section 11).",
        "",
        "## Summary",
        "",
        f"- rows: {len(analysis.rows)}",
        f"- graph families: {len(analysis.families)} "
        f"({', '.join(sorted(analysis.families))})",
        f"- algorithms: {', '.join(algorithms)}",
        f"- theorem-bound audit: {analysis.bound_checked} elkin rows checked, "
        f"{analysis.bound_violations} violations"
        + (
            f", {analysis.bound_skipped} round-bound unauditable (no D recorded)"
            if analysis.bound_skipped
            else ""
        )
        + (
            f" ({analysis.conditioned} conditioned rows excluded from the audit)"
            if analysis.conditioned
            else ""
        ),
        "",
        "## Scaling fits",
        "",
        "Least-squares power laws in log-log space; `reference` is the "
        "exponent the complexity class predicts (log factors drift the "
        "constant, not the slope).",
        "",
        *_code_block(_fit_table(analysis.fits) if analysis.fits else "(no distributed rows)"),
        "",
        "## Theorem 3.1/3.2 bound audit",
        "",
    ]
    if analysis.bound_checked == 0:
        lines.append("No rows of the paper's algorithm in this store.")
    elif not analysis.violations:
        lines.append(
            f"All {analysis.bound_checked} runs of the paper's algorithm stay "
            "within the Theorem 3.1/3.2 round and message bounds "
            "(bound-violation count: **0**)."
        )
    else:
        lines.append(
            f"**{analysis.bound_violations} violations** across "
            f"{analysis.bound_checked} checked rows:"
        )
        lines.append("")
        lines.extend(
            _code_block(
                format_table(
                    [
                        {
                            "graph": violation.graph,
                            "metric": violation.metric,
                            "measured": violation.measured,
                            "bound": round(violation.bound, 1),
                        }
                        for violation in analysis.violations
                    ]
                )
            )
        )
    if analysis.degradation:
        non_terminated = sum(
            1 for entry in analysis.degradation if entry["status"] != "ok"
        )
        lines += [
            "",
            "## Degradation under network conditions",
            "",
            "Rounds and messages relative to the fault-free baseline of the "
            "same instance (`round_factor` / `message_factor`; `-` means no "
            "baseline cell in this sweep or a non-terminated run).  These "
            "rows are excluded from the theorem-bound audit above: the "
            "bounds assume a reliable synchronous network.",
            "",
            f"- conditioned cells: {len(analysis.degradation)} "
            f"({non_terminated} non-terminated)",
            "",
            *_code_block(format_table(analysis.degradation)),
        ]
    if analysis.crossover:
        lines += [
            "",
            "## E9 head-to-head: paper vs PRS16-style k = sqrt(n)",
            "",
            "Message counts on instances both strategies ran on "
            "(`prs/elkin > 1` means the paper's diameter-sensitive base "
            "forest wins).",
            "",
            *_code_block(format_table(analysis.crossover)),
        ]
    lines += ["", "## Per-family results", ""]
    for family in sorted(analysis.families):
        family_rows = analysis.families[family]
        lines += [
            f"### {family} ({len(family_rows)} rows)",
            "",
            *_code_block(format_table(family_rows)),
            "",
        ]
    return "\n".join(lines).rstrip() + "\n"


def write_report(
    source: Union[RunStoreLike, Iterable[Row]],
    output: Optional[str] = None,
    title: str = "EXPERIMENTS",
) -> str:
    """Analyze ``source`` and render the markdown report.

    ``source`` is a run store (anything with ``iter_rows``) or an
    iterable of rows.  When ``output`` is given the document is also
    written there.  Returns the rendered markdown.
    """
    if hasattr(source, "iter_rows"):
        analysis = analyze_store(source)  # type: ignore[arg-type]
    else:
        analysis = analyze_rows(source)  # type: ignore[arg-type]
    document = render_markdown(analysis, title=title)
    if output is not None:
        from pathlib import Path

        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(document, encoding="utf-8")
    return document
