"""Analysis utilities: bound formulas, scaling fits, tables, campaign reports.

Everything that turns algorithm runs into the rows and series the
paper's claims predict lives here, so that the examples, the tests and
the benchmarks share one code path.  :func:`elkin_bounds` is the one
evaluation of the Theorem 3.1/3.2 bounds, and :func:`run_single` is the
single-execution contract every sweep cell goes through.
"""

from .bounds import (
    controlled_ghs_message_bound,
    controlled_ghs_time_bound,
    elkin_bounds,
    elkin_message_bound_formula,
    elkin_time_bound_formula,
    gkp_message_bound,
    log2_ceil,
    log_star,
)
from .experiments import run_single
from .fitting import fit_power_law
from .report import (
    analyze_rows,
    analyze_store,
    BoundViolation,
    CampaignAnalysis,
    render_markdown,
    ScalingFit,
    write_report,
)
from .tables import format_table

__all__ = [
    "controlled_ghs_message_bound",
    "controlled_ghs_time_bound",
    "elkin_bounds",
    "elkin_message_bound_formula",
    "elkin_time_bound_formula",
    "gkp_message_bound",
    "log2_ceil",
    "log_star",
    "fit_power_law",
    "format_table",
    "BoundViolation",
    "CampaignAnalysis",
    "ScalingFit",
    "analyze_rows",
    "analyze_store",
    "render_markdown",
    "write_report",
    "run_single",
]
