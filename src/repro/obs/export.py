"""JSONL trace format: export, render, load.

One trace file describes one traced command. Line 1 is a header object::

    {"type": "header", "format": "dramdig-trace", "version": 1, ...}

followed by one ``{"type": "span", ...}`` object per span in id order
(ids are creation order, so the file reads top-down like the run ran)
and a single trailing ``{"type": "metrics", "counters": ..., "histograms":
...}`` object with the run's merged metric totals.

Files are written through :func:`repro.ioutil.atomic_write`, so a trace
is either absent or complete — a consumer never sees a torn file, even
when the writing process is killed mid-export. Loading is strict about
the header (wrong format/version fails loudly) but tolerant of span
field evolution via :meth:`SpanRecord.from_json` defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.ioutil import atomic_write
from repro.obs.tracing import SpanRecord, Tracer

__all__ = ["TRACE_FORMAT", "TRACE_VERSION", "TraceFile", "export_trace",
           "load_trace", "render_trace"]

TRACE_FORMAT = "dramdig-trace"
TRACE_VERSION = 1


@dataclass
class TraceFile:
    """A loaded trace: header metadata, spans in id order, metric totals."""

    header: dict = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def counters(self) -> dict:
        return self.metrics.get("counters", {})

    @property
    def histograms(self) -> dict:
        return self.metrics.get("histograms", {})


def _children_index(spans: list[SpanRecord]) -> dict[int | None, list[SpanRecord]]:
    """Child spans by parent id (``None`` for roots), each list in id order."""
    children: dict[int | None, list[SpanRecord]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: span.span_id)
    return children


def render_trace(tracer: Tracer, meta: dict | None = None) -> str:
    """Serialise a tracer's spans and metrics to JSONL text.

    Spans still on the tracer's live stack — an export fired while the
    run was mid-flight, e.g. the CLI salvaging a trace after an
    interrupt — are written with status ``open`` so the summary can
    render them as ``UNCLOSED`` partial accounting instead of mistaking
    a zero-duration span for a completed one.
    """
    header = {"type": "header", "format": TRACE_FORMAT, "version": TRACE_VERSION}
    if meta:
        header.update(meta)
    open_ids = {record.span_id for record in getattr(tracer, "_stack", ())}
    lines = [json.dumps(header, sort_keys=True)]
    for record in sorted(tracer.spans, key=lambda span: span.span_id):
        serialized = record.to_json()
        if record.span_id in open_ids and serialized["status"] == "ok":
            serialized["status"] = "open"
        lines.append(json.dumps(serialized, sort_keys=True))
    metrics = {"type": "metrics"}
    metrics.update(tracer.metrics.snapshot())
    lines.append(json.dumps(metrics, sort_keys=True))
    return "\n".join(lines) + "\n"


def export_trace(
    path: str | Path, tracer: Tracer, meta: dict | None = None
) -> None:
    """Atomically write ``tracer``'s trace to ``path`` as JSONL."""
    atomic_write(path, render_trace(tracer, meta))


def load_trace(path: str | Path) -> TraceFile:
    """Parse a JSONL trace written by :func:`export_trace`.

    Raises:
        ValueError: when the file is empty, is not a dramdig trace, or
            declares an unsupported version.
    """
    trace = TraceFile()
    first = True
    for line_number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}:{line_number}: not valid JSON: {error}"
            ) from error
        if first:
            if record.get("format") != TRACE_FORMAT:
                raise ValueError(
                    f"{path}: not a {TRACE_FORMAT} file "
                    f"(format={record.get('format')!r})"
                )
            if record.get("version") != TRACE_VERSION:
                raise ValueError(
                    f"{path}: unsupported trace version {record.get('version')!r} "
                    f"(expected {TRACE_VERSION})"
                )
            trace.header = record
            first = False
            continue
        kind = record.get("type")
        if kind == "span":
            trace.spans.append(SpanRecord.from_json(record))
        elif kind == "metrics":
            trace.metrics = {
                "counters": record.get("counters", {}),
                "histograms": record.get("histograms", {}),
            }
    if first:
        raise ValueError(f"{path}: empty trace file")
    trace.spans.sort(key=lambda span: span.span_id)
    return trace
