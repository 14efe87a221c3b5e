"""Plain-text tables for benchmark and example output.

The paper has no figures to re-plot, so the harness reports its series as
aligned ASCII tables (one per experiment) that can be pasted into
EXPERIMENTS.md.  No third-party table library is used: the analysis
layer depends on the standard library alone.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, List, Mapping, Sequence


def _render_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], columns: Iterable[str] | None = None) -> str:
    """Render ``rows`` (dictionaries) as an aligned ASCII table.

    Columns default to the union of every row's keys in first-seen
    order, so rows carrying extra columns (e.g. the theorem-bound
    ratios only the paper's algorithm reports) never lose them to the
    accident of which row came first; missing values render as ``-``.
    Returns a string ending without a newline.

    Cells are rendered a column at a time: a column holding no
    ``float`` (subclasses included) renders through ``str``, which is
    what :func:`_render_cell` does to every other value, so only a
    column holding a float pays for :func:`_render_cell`.  Each line
    right-justifies its row's cells as it joins them, so the table
    never holds a justified copy of its cells besides their text.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = dict.fromkeys(chain.from_iterable(rows))
    column_names = list(columns)
    cells: List[List[str]] = []
    widths: List[int] = []
    for name in column_names:
        values = [row.get(name, "-") for row in rows]
        if any(issubclass(kind, float) for kind in set(map(type, values))):
            column = list(map(_render_cell, values))
        else:
            column = list(map(str, values))
        cells.append(column)
        widths.append(max(len(name), max(map(len, column))))
    header = "  ".join(map(str.ljust, column_names, widths))
    separator = "  ".join("-" * width for width in widths)
    # With no columns, each row is still one (empty) line.
    lines = zip(*cells) if cells else repeat((), len(rows))
    body = ["  ".join(map(str.rjust, line, widths)) for line in lines]
    return "\n".join([header, separator, *body])
