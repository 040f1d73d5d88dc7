"""Cross-process trace capture and merge for the evaluation grid.

A traced grid run has two halves:

* **cell side** — :func:`repro.parallel.grid.execute_cell`, given the
  cell's label, runs it through :func:`run_cell_traced`: under its own
  fresh :class:`~repro.obs.tracing.Tracer`, in one ``cell:<label>`` root
  span, returning the cell's spans and metric snapshot with its value.
  This works identically in-process (``--jobs 1``) and in a spawned
  worker, where the return value crosses the pool's result pipe,
  because :func:`~repro.obs.tracing.activate` isolates the cell's span
  stack either way — the merged trace cannot depend on where a cell ran.
* **parent side** — the grid keeps each returned trace, and after the
  grid completes :func:`stitch_cell_traces` walks the cells *in
  submission order*, grafting each trace under the grid span (ids
  re-allocated, paths re-prefixed, metrics folded in). A cell that
  returned no trace is either a journal hit (``--resume``) — recorded as
  a ``cached`` span, zero re-execution — or a
  :class:`~repro.parallel.supervisor.CellFailure`, recorded as a
  ``failed`` span carrying the failure's reason and attempt count.

Cells are dispatched unchanged, so a traced run and an untraced run
share checkpoint-journal fingerprints: tracing can be turned on for a
resumed run (or off for a fresh one) without invalidating the journal.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

from repro.obs.tracing import SpanRecord, Tracer, activate

__all__ = [
    "cell_label",
    "run_cell_traced",
    "stitch_cell_traces",
]


def cell_label(payload: dict, index: int) -> str:
    """Display label for one cell: its payload ``name``, or its index."""
    name = payload.get("name")
    return str(name) if name is not None else f"cell#{index}"


def run_cell_traced(function, payload: dict, label: str):
    """Execute one cell under its own tracer; return its trace with it.

    Returns ``(value, spans, metrics)``. A failed attempt raises and so
    returns no partial trace (a supervised retry that later succeeds
    returns the successful attempt's; a cell that never succeeds is
    represented by the parent as a ``failed`` span instead).
    """
    tracer = Tracer()
    with activate(tracer):
        with tracer.span(f"cell:{label}") as scope:
            value = function(**payload)
            scope.set("task_ok", True)
    return value, tracer.spans, tracer.metrics.snapshot()


def _graft(tracer: Tracer, parent: SpanRecord, spans: list[SpanRecord]) -> None:
    """Re-id and re-parent a cell's spans under the parent grid span."""
    id_map: dict[int, int] = {}
    for span in sorted(spans, key=lambda record: record.span_id):
        id_map[span.span_id] = tracer.next_id()
    for span in sorted(spans, key=lambda record: record.span_id):
        tracer.adopt(
            dataclasses.replace(
                span,
                span_id=id_map[span.span_id],
                parent_id=(
                    id_map[span.parent_id]
                    if span.parent_id is not None
                    else parent.span_id
                ),
                path=f"{parent.path}/{span.path}",
                attrs=dict(span.attrs),
            )
        )


def stitch_cell_traces(
    tracer: Tracer,
    grid_span: SpanRecord,
    cells: Sequence,
    results: Sequence,
    traces: Mapping[int, tuple],
) -> dict:
    """Merge the cells' returned traces into the parent tracer, in cell order.

    ``traces`` maps a cell's index to the ``(spans, metrics)`` its
    :func:`run_cell_traced` returned. Returns ``{"executed": n,
    "cached": n, "failed": n}``. Cells are classified by evidence: a
    returned trace means the cell executed (at least once) to
    completion; no trace plus a
    :class:`~repro.parallel.supervisor.CellFailure` result slot means it
    failed; no trace plus a real result means the checkpoint journal
    supplied the value without re-execution (``cached``).
    """
    from repro.parallel.supervisor import CellFailure

    tally = {"executed": 0, "cached": 0, "failed": 0}
    for index, cell in enumerate(cells):
        if index in traces:
            spans, metrics = traces[index]
            _graft(tracer, grid_span, spans)
            tracer.metrics.merge_snapshot(metrics)
            tally["executed"] += 1
            continue
        result = results[index] if index < len(results) else None
        if isinstance(result, CellFailure):
            status = "failed"
            attrs = {"reason": result.reason, "attempts": result.attempts}
            if result.detail:
                attrs["detail"] = result.detail
        else:
            status = "cached"
            attrs = {}
        name = f"cell:{cell_label(cell.payload, index)}"
        tracer.adopt(
            SpanRecord(
                span_id=tracer.next_id(),
                parent_id=grid_span.span_id,
                name=name,
                path=f"{grid_span.path}/{name}",
                status=status,
                attrs=attrs,
            )
        )
        tally[status] += 1
    return tally
