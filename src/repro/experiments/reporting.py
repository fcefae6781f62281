"""Plain-text table / series formatting for experiment reports."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence


def has_non_paper_scenarios(entries: Iterable[Mapping], key: str = "scenario") -> bool:
    """True when any entry names a scenario outside the ``paper/*`` presets.

    Formatters use this to decide whether a Scenario column is needed to
    disambiguate rows (paper rows are already unique per (dataset,
    activation); variant scenarios are not).
    """
    return any(
        str(entry.get(key, "")).split("/")[0] not in ("", "paper")
        for entry in entries
    )


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    *,
    title: str | None = None,
    float_precision: int = 3,
) -> str:
    """Render a list of rows as an aligned plain-text table."""
    formatted_rows: List[List[str]] = []
    for row in rows:
        formatted_rows.append(
            [
                f"{value:.{float_precision}f}" if isinstance(value, float) else str(value)
                for value in row
            ]
        )
    widths = [len(str(header)) for header in headers]
    for row in formatted_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row([str(h) for h in headers]))
    lines.append(render_row(["-" * w for w in widths]))
    lines.extend(render_row(row) for row in formatted_rows)
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence,
    series: Mapping[str, Sequence[float]],
    *,
    title: str | None = None,
    float_precision: int = 3,
) -> str:
    """Render several y-series against a shared x axis as a table.

    This is the text equivalent of one plot panel: one column per curve.
    """
    headers = [x_label] + list(series.keys())
    rows = []
    for index, x in enumerate(x_values):
        row = [x] + [float(values[index]) for values in series.values()]
        rows.append(row)
    return format_table(headers, rows, title=title, float_precision=float_precision)


def format_curves_with_spread(
    x_label: str,
    x_values: Sequence,
    curves: Mapping[str, Sequence[Sequence[float]]],
    *,
    extra: Mapping[str, Sequence[float]] | None = None,
    title: str | None = None,
    float_precision: int = 3,
) -> str:
    """Render mean±std curves against a shared x axis as a table.

    ``curves`` maps a name to a ``(means, stds)`` pair; each contributes a
    mean column and a ``<name>±`` spread column.  ``extra`` adds plain
    single-valued columns (e.g. a clean-accuracy series).
    """
    series: Dict[str, Sequence[float]] = {}
    for name, (means, stds) in curves.items():
        series[name] = means
        series[f"{name}±"] = stds
    for name, values in (extra or {}).items():
        series[name] = values
    return format_series(
        x_label, x_values, series, title=title, float_precision=float_precision
    )
