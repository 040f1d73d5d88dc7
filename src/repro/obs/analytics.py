"""Cross-run trace analytics: critical path and span-level A/B diff.

Both tools consume the PR 4 trace format (:mod:`repro.obs.export`) and
reason over the *simulated* clock wherever one was recorded — that is
the paper's cost model and the only clock that is deterministic across
runs. Wall seconds are reported alongside but never gated on.

* :func:`critical_path` walks the span tree from the heaviest root,
  descending into the heaviest child at every level — the chain of
  spans a speedup must touch to move the total.
* :func:`diff_traces` aggregates both traces per span *path* and
  attributes a slowdown to the subtree with the largest simulated-time
  growth. Subtrees that are ``cached`` or ``failed`` on *either* side
  are excluded from both: a journal-resumed run records resumed cells
  as bodiless ``cached`` spans, and charging the other trace's full
  execution against zero would report every resume as a phantom
  speedup. What remains — cells actually executed on both sides — is
  deterministic simulated time, so a resumed run diffed against its
  from-scratch twin comes out exactly equal (the kill/resume smoke
  gate).
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from repro.obs.export import TraceFile, _children_index
from repro.obs.tracing import SpanRecord

__all__ = [
    "DiffRow",
    "TraceDiff",
    "critical_path",
    "diff_traces",
    "render_critical_path",
    "render_diff",
    "span_weight_index",
]


def _is_excluded(path: str, excluded: Collection[str]) -> bool:
    """True for an excluded span path and for every path below one."""
    return path in excluded or any(
        path.startswith(prefix + "/") for prefix in excluded
    )


def span_weight_index(
    trace: TraceFile, excluded: Collection[str] = ()
) -> dict[int, float]:
    """Simulated weight per span id, filling gaps from below.

    A span that recorded sim bounds uses its own duration. A span with
    no sim clock (grid orchestration, ``cell:`` wrappers) inherits the
    sum of its children's weights, recursively — so the grid root ends
    up carrying the total simulated cost of everything under it and the
    critical-path descent never dead-ends on a bookkeeping span. Spans
    in ``excluded`` subtrees weigh nothing.
    """
    children = _children_index(trace.spans)
    weights: dict[int, float] = {}

    def weigh(span: SpanRecord) -> float:
        cached = weights.get(span.span_id)
        if cached is not None:
            return cached
        own = 0.0 if _is_excluded(span.path, excluded) else span.sim_ns
        if own is None:
            own = sum(weigh(child) for child in children.get(span.span_id, []))
        weights[span.span_id] = own
        return own

    for span in trace.spans:
        weigh(span)
    return weights


def _total_sim_ns(trace: TraceFile, excluded: Collection[str]) -> float:
    """Total simulated time: the root spans' weights summed.

    A span with its own sim bounds contributes its duration; a span
    without (grid roots, ``cell:`` wrappers) contributes its children's
    total instead — never both, so nothing is double-counted. Excluded
    subtrees contribute zero.
    """
    weights = span_weight_index(trace, excluded)
    return sum(
        weights[span.span_id] for span in trace.spans if span.parent_id is None
    )


@dataclass
class _PathStep:
    span: SpanRecord
    weight_ns: float
    share: float  # fraction of the parent step's weight


def critical_path(trace: TraceFile) -> list[_PathStep]:
    """Heaviest root-to-leaf chain through the span tree.

    Ties break toward the earliest span id (submission order), keeping
    the output deterministic on grids of identical cells.
    """
    children = _children_index(trace.spans)
    weights = span_weight_index(trace)

    def heaviest(candidates: list[SpanRecord]) -> SpanRecord | None:
        best = None
        for span in candidates:
            if best is None or weights[span.span_id] > weights[best.span_id]:
                best = span
        return best

    steps: list[_PathStep] = []
    node = heaviest(children.get(None, []))
    parent_weight = None
    while node is not None:
        weight = weights[node.span_id]
        share = (weight / parent_weight) if parent_weight else 1.0
        steps.append(_PathStep(span=node, weight_ns=weight, share=share))
        parent_weight = weight if weight > 0 else None
        node = heaviest(children.get(node.span_id, []))
    return steps


def render_critical_path(trace: TraceFile, limit: int = 0) -> str:
    """Text rendering: one line per step, heaviest chain top-down."""
    steps = critical_path(trace)
    if limit > 0:
        steps = steps[:limit]
    if not steps:
        return "(no spans)"
    lines = [f"{'span':<48}{'sim-s':>10}{'share':>8}"]
    for depth, step in enumerate(steps):
        label = "  " * depth + step.span.name
        status = "" if step.span.status == "ok" else f"  {step.span.status.upper()}"
        lines.append(
            f"{label:<48}{step.weight_ns / 1e9:10.2f}{step.share:7.0%}{status}"
        )
    return "\n".join(lines)


def _excluded_prefixes(trace: TraceFile) -> set[str]:
    return {
        span.path
        for span in trace.spans
        if span.status in ("cached", "failed")
    }


def _aggregate(trace: TraceFile, excluded: set[str]) -> dict[str, dict]:
    """Per-path totals over spans outside the excluded subtrees."""
    totals: dict[str, dict] = {}
    for span in trace.spans:
        if _is_excluded(span.path, excluded):
            continue
        entry = totals.setdefault(
            span.path, {"count": 0, "sim_ns": 0.0, "wall_s": 0.0, "has_sim": False}
        )
        entry["count"] += 1
        entry["wall_s"] += span.wall_s
        sim_ns = span.sim_ns
        if sim_ns is not None:
            entry["sim_ns"] += sim_ns
            entry["has_sim"] = True
    return totals


@dataclass
class DiffRow:
    """One span path's aggregate on both sides."""

    path: str
    base_sim_ns: float | None
    other_sim_ns: float | None
    base_count: int
    other_count: int

    @property
    def delta_ns(self) -> float:
        return (self.other_sim_ns or 0.0) - (self.base_sim_ns or 0.0)


@dataclass
class TraceDiff:
    """Outcome of :func:`diff_traces`."""

    rows: list[DiffRow]
    base_total_ns: float
    other_total_ns: float
    excluded_paths: list[str]
    tolerance: float

    @property
    def delta_ns(self) -> float:
        return self.other_total_ns - self.base_total_ns

    @property
    def regression(self) -> bool:
        """True when the second trace is slower beyond the tolerance."""
        if self.base_total_ns <= 0:
            return False
        return self.other_total_ns > self.base_total_ns * (1.0 + self.tolerance)

    @property
    def attribution(self) -> DiffRow | None:
        """The deepest path with the largest simulated-time growth."""
        worst = None
        for row in self.rows:
            if row.delta_ns <= 0:
                continue
            if worst is None or row.delta_ns > worst.delta_ns or (
                row.delta_ns == worst.delta_ns
                and row.path.count("/") > worst.path.count("/")
            ):
                worst = row
        return worst


def diff_traces(
    base: TraceFile, other: TraceFile, tolerance: float = 0.01
) -> TraceDiff:
    """Span-level A/B diff: where did the second trace get slower?

    ``tolerance`` is the fractional total-growth budget below which the
    pair counts as equal (``regression`` False). Simulated time is
    deterministic, so the default 1% exists only to absorb legitimate
    float accumulation differences, not measurement noise.
    """
    excluded = _excluded_prefixes(base) | _excluded_prefixes(other)
    base_totals = _aggregate(base, excluded)
    other_totals = _aggregate(other, excluded)

    rows: list[DiffRow] = []
    for path in sorted(set(base_totals) | set(other_totals)):
        base_entry = base_totals.get(path)
        other_entry = other_totals.get(path)
        rows.append(
            DiffRow(
                path=path,
                base_sim_ns=(
                    base_entry["sim_ns"]
                    if base_entry and base_entry["has_sim"]
                    else None
                ),
                other_sim_ns=(
                    other_entry["sim_ns"]
                    if other_entry and other_entry["has_sim"]
                    else None
                ),
                base_count=base_entry["count"] if base_entry else 0,
                other_count=other_entry["count"] if other_entry else 0,
            )
        )

    return TraceDiff(
        rows=rows,
        base_total_ns=_total_sim_ns(base, excluded),
        other_total_ns=_total_sim_ns(other, excluded),
        excluded_paths=sorted(excluded),
        tolerance=tolerance,
    )


def render_diff(diff: TraceDiff, limit: int = 15) -> str:
    """Text rendering of a trace diff, largest growth first."""
    lines = [
        f"total sim: base={diff.base_total_ns / 1e9:.3f}s "
        f"other={diff.other_total_ns / 1e9:.3f}s "
        f"delta={diff.delta_ns / 1e9:+.3f}s "
        f"({'REGRESSION' if diff.regression else 'ok'}, "
        f"tolerance {diff.tolerance:.0%})"
    ]
    if diff.excluded_paths:
        lines.append(
            f"excluded {len(diff.excluded_paths)} cached/failed subtree(s)"
        )
    interesting = [
        row
        for row in diff.rows
        if row.base_sim_ns is not None or row.other_sim_ns is not None
    ]
    interesting.sort(key=lambda row: (-abs(row.delta_ns), row.path))
    shown = interesting[:limit] if limit > 0 else interesting
    if shown:
        lines.append("")
        lines.append(f"{'path':<56}{'base-s':>10}{'other-s':>10}{'delta-s':>10}")
        for row in shown:
            base_text = (
                f"{row.base_sim_ns / 1e9:10.3f}"
                if row.base_sim_ns is not None
                else f"{'-':>10}"
            )
            other_text = (
                f"{row.other_sim_ns / 1e9:10.3f}"
                if row.other_sim_ns is not None
                else f"{'-':>10}"
            )
            lines.append(
                f"{row.path:<56}{base_text}{other_text}"
                f"{row.delta_ns / 1e9:+10.3f}"
            )
    attribution = diff.attribution
    if attribution is not None and diff.delta_ns > 0:
        lines.append("")
        lines.append(
            f"attribution: {attribution.path} grew by "
            f"{attribution.delta_ns / 1e9:.3f}s"
        )
    return "\n".join(lines)
