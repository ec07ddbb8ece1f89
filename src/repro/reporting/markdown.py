"""Markdown rendering of experiment results.

EXPERIMENTS.md records paper-vs-measured for every artifact; these
helpers turn :class:`~repro.experiments.base.ExperimentResult` objects
into the tables that file uses. ``repro report`` regenerates the whole
document mechanically from the artifact store::

    python -m repro all --scale 1.0 --out artifacts/
    python -m repro report --out artifacts/ --file EXPERIMENTS.md
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = [
    "markdown_table",
    "series_endpoints_table",
    "markdown_report",
    "experiments_document",
]


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value).replace("|", "\\|")


def markdown_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A GitHub-flavoured markdown table."""
    if not header:
        raise ValueError("header must not be empty")
    lines = [
        "| " + " | ".join(_format_cell(cell) for cell in header) + " |",
        "|" + "|".join("---" for __ in header) + "|",
    ]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row {row!r} does not match header width {len(header)}")
        lines.append("| " + " | ".join(_format_cell(cell) for cell in row) + " |")
    return "\n".join(lines)


def series_endpoints_table(
    series: Mapping[str, Sequence[tuple[float, float]]],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """First/last point per curve — the headline trend of a figure."""
    rows = []
    for name, points in series.items():
        if not points:
            continue
        (x0, y0), (x1, y1) = points[0], points[-1]
        rows.append((name, f"{x0:g}", f"{y0:.3f}", f"{x1:g}", f"{y1:.3f}"))
    return markdown_table(
        ("series", f"first {x_label}", f"{y_label}", f"last {x_label}", f"{y_label} "),
        rows,
    )


def markdown_report(result) -> str:
    """One experiment's full markdown section (tables + metadata)."""
    parts = [f"### `{result.experiment_id}` — {result.title}", ""]
    if result.series:
        parts.append(series_endpoints_table(result.series))
        parts.append("")
    if result.scalars:
        parts.append(markdown_table(("scalar", "value"), sorted(result.scalars.items())))
        parts.append("")
    if result.metadata:
        shown = sorted((k, v) for k, v in result.metadata.items() if v is not None)
        parts.append("Parameters: " + ", ".join(f"`{k}={v}`" for k, v in shown))
    return "\n".join(parts).rstrip() + "\n"


def experiments_document(
    runs: Sequence[tuple[object, Mapping[str, object], float]],
    title: str = "Experiment record",
) -> str:
    """The full EXPERIMENTS.md document from stored runs.

    ``runs`` is a sequence of ``(result, resolved_params, wall_time)``
    triples (duck-typed, so this module stays below the experiments
    layer). One section per run, preceded by an index table; a section
    lists the parameters once, from the result's stamped metadata.
    """
    lines = [
        f"# {title}",
        "",
        "Regenerated mechanically by `python -m repro report` from the",
        "artifact store — do not edit by hand.",
        "",
    ]
    index_rows = []
    for result, params, wall_time in runs:
        scale = params.get("scale", "?")
        seed = params.get("seed", "?")
        index_rows.append(
            (f"[`{result.experiment_id}`](#{result.experiment_id})", result.title, scale, seed, f"{wall_time:.1f}s")
        )
    lines.append(markdown_table(("experiment", "title", "scale", "seed", "wall time"), index_rows))
    lines.append("")
    for result, __, __ in runs:
        lines.append(f'<a id="{result.experiment_id}"></a>')
        lines.append("")
        lines.append(markdown_report(result))
    return "\n".join(lines).rstrip() + "\n"
