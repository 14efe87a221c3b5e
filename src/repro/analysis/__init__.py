"""Analysis utilities: bound formulas, scaling fits, tables, experiment runners.

The benchmark harness is intentionally thin; all of the logic that turns
algorithm runs into the rows and series the paper's claims predict lives
here so that the examples, the tests and the benchmarks share one code
path.
"""

from .bounds import (
    controlled_ghs_message_bound,
    controlled_ghs_time_bound,
    elkin_message_bound_formula,
    elkin_time_bound_formula,
    ghs_time_bound,
    gkp_message_bound,
    log2_ceil,
    log_star,
)
from .experiments import (
    compare_algorithms,
    ExperimentRow,
    run_single,
    sweep_bandwidth,
    sweep_graphs,
)
from .fitting import fit_power_law, ratio_series
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
    "elkin_message_bound_formula",
    "elkin_time_bound_formula",
    "ghs_time_bound",
    "gkp_message_bound",
    "log2_ceil",
    "log_star",
    "fit_power_law",
    "ratio_series",
    "format_table",
    "BoundViolation",
    "CampaignAnalysis",
    "ScalingFit",
    "analyze_rows",
    "analyze_store",
    "render_markdown",
    "write_report",
    "ExperimentRow",
    "compare_algorithms",
    "run_single",
    "sweep_bandwidth",
    "sweep_graphs",
]
