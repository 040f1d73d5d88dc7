"""Plain-text rendering helpers shared by the evaluation harness.

Every experiment module renders its result the way the paper prints it —
an ASCII table or series — so benchmark logs and CLI output can be
eyeballed against the original tables.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = [
    "render_table",
    "render_series",
    "render_failure_manifest",
    "format_seconds",
]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for column, value in enumerate(row):
            widths[column] = max(widths[column], len(value))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in cells:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
    return "\n".join(lines)


def render_series(label: str, points: Sequence[tuple[str, float]], unit: str = "s") -> str:
    """Render a labelled series with a proportional ASCII bar chart."""
    if not points:
        return f"{label}: (empty)"
    peak = max(value for _, value in points) or 1.0
    lines = [label]
    for name, value in points:
        bar = "#" * max(1, int(40 * value / peak)) if value > 0 else ""
        lines.append(f"  {name:>6}  {value:>9.1f}{unit}  {bar}")
    return "\n".join(lines)


def render_failure_manifest(failures: Sequence) -> str:
    """Render a grid's failed cells as an explicit manifest.

    A partial artefact must say loudly *which* cells are missing and
    why; a table with silently absent rows reads as a complete run.
    Takes :class:`~repro.parallel.CellFailure` records (anything with a
    ``describe()`` method works).
    """
    lines = [f"grid failures ({len(failures)} cell(s) unrecovered):"]
    lines += [f"  {failure.describe()}" for failure in failures]
    return "\n".join(lines)


def format_seconds(seconds: float) -> str:
    """Human-friendly duration: '69 s', '7.8 min', '2.0 h'."""
    if seconds < 120:
        return f"{seconds:.0f} s"
    if seconds < 7200:
        return f"{seconds / 60:.1f} min"
    return f"{seconds / 3600:.1f} h"
