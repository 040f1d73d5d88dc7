"""Shared grid dispatch for the experiment modules.

Every experiment (`table1`, `figure2`, `table3`, the determinism study)
builds a list of :class:`~repro.parallel.GridCell` and hands it here.
Without supervision options this is exactly the fail-fast
:func:`~repro.parallel.run_cells` path — the seed behaviour, byte for
byte. With a :class:`~repro.parallel.GridPolicy` and/or a checkpoint
journal, the cells run under the supervised engine instead: completed
cells are checkpointed as they finish, failed cells come back as
:class:`~repro.parallel.CellFailure` markers *in their result slots*,
and the experiment renderers print them as ``FAILED(reason)`` cells
plus a failure manifest instead of crashing the whole artefact.

When a tracer is active (``--trace``), this is also the seam where
cross-process tracing happens: each cell gets a private span-file
destination injected into its payload, the grid runs under a
``grid:<experiment>`` span, and afterwards the per-cell files are
stitched into the parent trace in submission order — including
``cached`` spans for journal-resumed cells and ``failed`` spans for
cells that exhausted their attempts. Untraced runs take the exact
pre-existing code path.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.obs import telemetry
from repro.obs import tracing as obs
from repro.parallel import (
    CheckpointJournal,
    GridCell,
    GridPolicy,
    run_cells,
    run_cells_supervised,
)

__all__ = ["execute_grid"]


def _experiment_name(cells: Sequence[GridCell]) -> str:
    """Short experiment label from the first cell's task module."""
    if not cells:
        return "empty"
    module = cells[0].task.partition(":")[0]
    return module.rsplit(".", 1)[-1]


def _dispatch(
    cells: Sequence[GridCell],
    jobs: int | None,
    supervision: GridPolicy | None,
    journal,
):
    """Run the cells; returns (results, outcome-or-None)."""
    if supervision is None and journal is None:
        return run_cells(cells, jobs=jobs), None
    outcome = run_cells_supervised(
        cells, jobs=jobs, policy=supervision, journal=journal
    )
    return outcome.results, outcome


def execute_grid(
    cells: Sequence[GridCell],
    jobs: int | None = None,
    supervision: GridPolicy | None = None,
    journal: CheckpointJournal | str | Path | None = None,
) -> list:
    """Run an experiment's cells, fail-fast or supervised.

    Returns per-cell results in submission order. Under supervision a
    failed cell's slot holds its :class:`~repro.parallel.CellFailure`
    instead of a result; the fail-fast path raises on the first error,
    exactly as the seed engine did.
    """
    bus = telemetry.current_bus()
    dispatched = list(cells)
    if bus is not None and dispatched:
        # Thread the live stream into the cells so worker-side hooks
        # (pipeline phases, campaign trials) append to the same file,
        # and mark the grid's start in the stream.
        telemetry.emit(
            "grid",
            experiment=_experiment_name(dispatched),
            cells=len(dispatched),
        )
        dispatched = telemetry.telemetry_cells(dispatched, bus.path)

    tracer = obs.current_tracer()
    if tracer is None or not cells:
        results, _ = _dispatch(dispatched, jobs, supervision, journal)
        return results

    from repro.obs.gridtrace import stitch_cell_traces, traced_cells

    cells = list(cells)
    with TemporaryDirectory(prefix="dramdig-trace-") as trace_dir:
        traced = traced_cells(dispatched, trace_dir)
        with tracer.span(f"grid:{_experiment_name(cells)}") as grid_scope:
            results, outcome = _dispatch(traced, jobs, supervision, journal)
            tally = stitch_cell_traces(
                tracer, grid_scope.record, cells, results, trace_dir
            )
            grid_scope.set("cells", len(cells))
            grid_scope.set("cached", tally["cached"])
            if outcome is not None:
                grid_scope.set("failed", len(outcome.failures))
        return results
