"""Parallel evaluation engine.

The paper's evaluation grid — tools x machine presets x seeds — is
embarrassingly parallel: every cell builds its own
:class:`~repro.machine.machine.SimulatedMachine` from an explicit seed
and shares nothing with its neighbours. This package fans those cells
out to worker processes and reassembles the results in submission
order, so the parallel path is bit-identical to the serial one; the
``--jobs N`` flag of ``dramdig table1/figure2/table3/report`` is wired
through here.

Grid work ships one way: :func:`run_cells`, one cell per task, on a
warmed ``spawn`` pool that the process-wide :class:`PoolManager` leases
by worker count and parks between dispatches. Every run is supervised:
per-cell retry with backoff, worker-death detection with pool respawn,
per-cell timeouts and a whole-run deadline (a :class:`GridPolicy`), and
an atomic checkpoint journal that lets an interrupted run resume without
re-executing finished cells (``--resume``/``--cell-timeout``/
``--run-deadline``/``--grid-retries`` on the CLI). A failed cell comes
back as a :class:`CellFailure` in its result slot of the
:class:`GridOutcome`; it never aborts its neighbours.
"""

from repro.parallel.grid import (
    CellExecutionError,
    GridCell,
    execute_cell,
    fingerprint_cell,
    fingerprint_payload,
    resolve_jobs,
    run_cells,
)
from repro.parallel.journal import CheckpointJournal
from repro.parallel.pool import PoolManager, get_pool_manager
from repro.parallel.supervisor import (
    CellFailure,
    GridError,
    GridOutcome,
    GridPolicy,
)

__all__ = [
    "CellExecutionError",
    "CellFailure",
    "CheckpointJournal",
    "GridCell",
    "GridError",
    "GridOutcome",
    "GridPolicy",
    "PoolManager",
    "execute_cell",
    "fingerprint_cell",
    "fingerprint_payload",
    "get_pool_manager",
    "resolve_jobs",
    "run_cells",
]
