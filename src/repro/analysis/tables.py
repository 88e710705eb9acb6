"""Plain-text rendering of experiment tables and series.

The experiment CLI (``python -m repro.experiments``) presents its results as
fixed-width ASCII tables — the closest a terminal gets to the paper's tables
and figure series.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

__all__ = ["format_value", "render_table", "render_series"]


def format_value(value: Any) -> str:
    """Render one cell: floats get three significant decimals, None a dash."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "—"
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, Any]],
    *,
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render dictionaries as a fixed-width table.

    Column order follows ``columns`` when given, otherwise the key order of
    the first row (later-only keys are appended).
    """
    rows = list(rows)
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
        for row in rows[1:]:
            for key in row:
                if key not in columns:
                    columns.append(key)
    rendered_rows = [[format_value(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in rendered_rows))
        for index, column in enumerate(columns)
    ]
    header = " | ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in rendered_rows
    )
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, separator, body])
    return "\n".join(parts)


def render_series(
    points: Iterable[tuple[Any, Any]],
    *,
    x_label: str = "x",
    y_label: str = "y",
    title: str | None = None,
) -> str:
    """Render an ``(x, y)`` series as a two-column table (a textual "figure")."""
    rows = [{x_label: x, y_label: y} for x, y in points]
    return render_table(rows, columns=[x_label, y_label], title=title)
