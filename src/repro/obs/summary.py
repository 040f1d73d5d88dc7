"""Trace rendering and consistency checking (``dramdig trace summary``).

Renders a loaded trace as a text flamegraph — the span tree indented by
depth, each line carrying simulated seconds, wall seconds and the span's
measurement attribution — followed by a metrics table. The same module
is CI's parse/consistency gate: :func:`validate_trace` re-derives the
structural invariants a well-formed trace must satisfy (unique ids,
resolvable parents, non-negative simulated durations) and the accounting
identity the paper's cost claims rest on — a parent span's measurement
count equals the sum of its children's, all the way from the pipeline
phases up through retry attempts to each run's root.
"""

from __future__ import annotations

from repro.obs.export import TraceFile, _children_index
from repro.obs.tracing import SpanRecord

__all__ = ["render_summary", "validate_trace"]


def validate_trace(trace: TraceFile, strict: bool = False) -> list[str]:
    """Structural and accounting checks; returns problem descriptions.

    An empty list means the trace is internally consistent. Checked:

    * span ids are unique and every ``parent`` id refers to a span;
    * simulated durations are non-negative where both bounds exist;
    * **measurement telescoping**: wherever a span carries a numeric
      ``measurements`` attribute *and* has children that do, the
      children's measurements sum exactly to the parent's. This is the
      per-phase accounting identity: phases sum to their attempt,
      attempts sum to their run.

    By default the checks are lenient toward traces salvaged from
    interrupted runs: spans still open at export time (status ``open``)
    and spans whose parent never made it into the file are rendered with
    partial accounting instead of flagged, and a telescoping parent is
    skipped when it (or any measured child) is still open — an
    in-flight phase hasn't finished counting. ``strict=True`` restores
    the pre-hardening behaviour, treating open and orphaned spans as
    problems; CI's consistency gate runs strict, because the traces it
    checks come from runs that completed.
    """
    problems: list[str] = []
    by_id: dict[int, SpanRecord] = {}
    for span in trace.spans:
        if span.span_id in by_id:
            problems.append(f"duplicate span id {span.span_id} ({span.path})")
        by_id[span.span_id] = span
    for span in trace.spans:
        if span.parent_id is not None and span.parent_id not in by_id and strict:
            problems.append(
                f"span {span.span_id} ({span.path}) has unknown parent "
                f"{span.parent_id}"
            )
        if span.status == "open" and strict:
            problems.append(
                f"span {span.span_id} ({span.path}) was never closed"
            )
        sim_ns = span.sim_ns
        if sim_ns is not None and sim_ns < 0:
            problems.append(
                f"span {span.span_id} ({span.path}) has negative simulated "
                f"duration {sim_ns}"
            )

    children = _children_index(trace.spans)
    for span in trace.spans:
        own = span.attrs.get("measurements")
        if not isinstance(own, (int, float)):
            continue
        counted = [
            child
            for child in children.get(span.span_id, [])
            if isinstance(child.attrs.get("measurements"), (int, float))
        ]
        if not counted:
            continue
        if not strict and (
            span.status == "open"
            or any(child.status == "open" for child in counted)
        ):
            continue
        total = sum(child.attrs["measurements"] for child in counted)
        if total != own:
            problems.append(
                f"span {span.span_id} ({span.path}) claims {own} measurements "
                f"but its children sum to {total}"
            )
    return problems


def _format_span(span: SpanRecord, depth: int, width: int) -> str:
    label = "  " * depth + span.name
    sim_ns = span.sim_ns
    sim = f"{sim_ns / 1e9:10.2f}" if sim_ns is not None else " " * 9 + "-"
    wall = f"{span.wall_s:9.3f}"
    extras = []
    if span.status == "open":
        # A span the run never got to close (killed/interrupted mid-way):
        # its timings are partial, not wrong.
        extras.append("UNCLOSED")
    elif span.status != "ok":
        extras.append(span.status.upper())
    measurements = span.attrs.get("measurements")
    if isinstance(measurements, (int, float)):
        extras.append(f"measurements={int(measurements)}")
    for key in sorted(span.attrs):
        if key in ("measurements", "error"):
            continue
        extras.append(f"{key}={span.attrs[key]}")
    if "error" in span.attrs:
        extras.append(f"error={span.attrs['error']}")
    suffix = ("  " + " ".join(extras)) if extras else ""
    return f"{label:<{width}}{sim}{wall}{suffix}"


def render_summary(trace: TraceFile) -> str:
    """The span-tree flamegraph plus the metrics table, as plain text."""
    lines: list[str] = []
    header = trace.header
    described = ", ".join(
        f"{key}={header[key]}"
        for key in sorted(header)
        if key not in ("type", "format", "version")
    )
    lines.append(f"trace: {header.get('format')} v{header.get('version')}"
                 + (f" ({described})" if described else ""))
    lines.append("")

    if trace.spans:
        children = _children_index(trace.spans)
        width = max(
            (2 * _depth(span, trace) + len(span.name) for span in trace.spans),
            default=0,
        )
        width = max(width + 2, 28)
        lines.append(f"{'span':<{width}}{'sim-s':>10}{'wall-s':>9}")

        def walk(span: SpanRecord, depth: int) -> None:
            lines.append(_format_span(span, depth, width))
            for child in children.get(span.span_id, []):
                walk(child, depth + 1)

        for root in children.get(None, []):
            walk(root, 0)
        # Orphans — spans whose parent never reached the file (a run
        # killed between a child's export and its parent's) — still
        # deserve rendering: walk them as extra roots, flagged.
        known = {span.span_id for span in trace.spans}
        for span in trace.spans:
            if span.parent_id is not None and span.parent_id not in known:
                lines.append(
                    f"(orphan: parent {span.parent_id} missing from trace)"
                )
                walk(span, 0)
    else:
        lines.append("(no spans)")

    counters = trace.counters
    histograms = trace.histograms
    if counters or histograms:
        lines.append("")
        lines.append("metrics:")
        for name in sorted(counters):
            lines.append(f"  {name:<42}{counters[name]:>12}")
        for name in sorted(histograms):
            stats = histograms[name]
            count = stats.get("count", 0)
            mean = stats.get("total", 0.0) / count if count else float("nan")
            quantiles = "".join(
                f" {key}={stats[key]:.1f}"
                for key in ("p50", "p95", "p99")
                if isinstance(stats.get(key), (int, float))
            )
            lines.append(
                f"  {name:<42}{count:>12}  "
                f"mean={mean:.1f} min={stats.get('min')} max={stats.get('max')}"
                f"{quantiles}"
            )
    return "\n".join(lines)


def _depth(span: SpanRecord, trace: TraceFile) -> int:
    # Depth from the recorded path: paths are slash-joined from the root,
    # which survives merging (ids are rewritten, paths are re-prefixed).
    return span.path.count("/")
