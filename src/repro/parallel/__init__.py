"""Parallel evaluation engine.

The paper's evaluation grid — tools x machine presets x seeds — is
embarrassingly parallel: every cell builds its own
:class:`~repro.machine.machine.SimulatedMachine` from an explicit seed
and shares nothing with its neighbours. This package fans those cells
out to worker processes and reassembles the results in submission
order, so the parallel path is bit-identical to the serial one; the
``--jobs N`` flag of ``dramdig table1/figure2/table3/report`` is wired
through here.

Grid work ships one way: one cell per task, on a warmed ``spawn`` pool
that the process-wide :class:`PoolManager` leases by worker count and
parks between dispatches. Two runners share that cell model:

* :func:`run_cells` — fail-fast: the first cell error aborts the run
  (the seed behaviour, and still the default);
* :func:`run_cells_supervised` — crash-safe: per-cell retry with
  backoff, worker-death detection with pool respawn, per-cell timeouts,
  a whole-run deadline, and an atomic checkpoint journal that lets an
  interrupted run resume without re-executing finished cells
  (``--resume``/``--cell-timeout``/``--run-deadline``/``--grid-retries``
  on the CLI).
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
    run_cells_supervised,
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
    "run_cells_supervised",
]
