"""JSONL trace format: export, render, load.

One trace file describes one traced command. Line 1 is a header object::

    {"type": "header", "format": "dramdig-trace", "version": 1, ...}

followed by one ``{"type": "span", ...}`` object per span in id order
(ids are creation order, so the file reads top-down like the run ran)
and a single trailing ``{"type": "metrics", "counters": ..., "histograms":
...}`` object with the run's merged metric totals.

Files are written through :func:`repro.ioutil.atomic_write`, so a trace
is either absent or complete — a consumer never sees a torn file, even
when the writing process is killed mid-export. Loading, through
:func:`repro.ioutil.read_records`, is strict about the header (wrong
format/version fails loudly) and about every line (one that is not a
JSON object fails naming ``path:line``), but tolerant of span field
evolution via :meth:`SpanRecord.from_json` defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.ioutil import atomic_write, dump_records, read_records
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
    records = []
    for record in sorted(tracer.spans, key=lambda span: span.span_id):
        serialized = record.to_json()
        if record.span_id in open_ids and serialized["status"] == "ok":
            serialized["status"] = "open"
        records.append(serialized)
    records.append({"type": "metrics", **tracer.metrics.snapshot()})
    return dump_records(header, records)


def export_trace(
    path: str | Path, tracer: Tracer, meta: dict | None = None
) -> None:
    """Atomically write ``tracer``'s trace to ``path`` as JSONL."""
    atomic_write(path, render_trace(tracer, meta))


def load_trace(path: str | Path) -> TraceFile:
    """Parse a JSONL trace written by :func:`export_trace`.

    Raises:
        ValueError: when the file is empty, is not a dramdig trace,
            declares an unsupported version, or holds a line that is not
            a JSON object, a span or a metrics record, or a metrics record
            whose counter, histogram count or total is not a number (the
            message names ``path:line``).
    """

    def refuse(number: int, reason: str) -> None:
        raise ValueError(f"{path}:{number}: {reason}")

    records = read_records(path, TRACE_FORMAT, TRACE_VERSION, on_bad_line=refuse)
    first = next(records, None)
    if first is None:
        raise ValueError(f"{path}: empty trace file")
    trace = TraceFile(header=first[1])
    for number, record in records:
        kind = record.get("type")
        if kind == "span":
            try:
                trace.spans.append(SpanRecord.from_json(record))
            except (KeyError, TypeError, ValueError) as error:
                refuse(number, f"not a span ({error!r})")
        elif kind == "metrics":
            counters = record.get("counters", {})
            histograms = record.get("histograms", {})
            if not isinstance(counters, dict):
                refuse(number, "metrics counters are not an object")
            if not isinstance(histograms, dict) or not all(
                isinstance(stats, dict) for stats in histograms.values()
            ):
                refuse(number, "metrics histograms are not an object of objects")
            for name, value in counters.items():
                if not isinstance(value, (int, float)):
                    refuse(number, f"metrics counter {name!r} is not a number")
            for name, stats in histograms.items():
                for key in ("count", "total"):
                    if not isinstance(stats.get(key, 0), (int, float)):
                        refuse(
                            number, f"metrics histogram {name!r} {key} is not a number"
                        )
            trace.metrics = {"counters": counters, "histograms": histograms}
    trace.spans.sort(key=lambda span: span.span_id)
    return trace
