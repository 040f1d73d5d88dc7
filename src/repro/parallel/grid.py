"""Process-pool grid runner with deterministic, ordered reassembly.

Design constraints, in order of importance:

1. **Bit-identical to serial.** A cell is a pure function of its payload
   (every seed is computed by the parent and shipped in the payload, never
   derived from worker identity or scheduling order), and results are
   reassembled in submission order. Running with ``jobs=8`` must produce
   the same bytes as ``jobs=1``; ``tests/evalsuite/test_parallel.py``
   regresses this across processes.
2. **Spawn-safe.** Cells name their worker as a ``"module:function"``
   string resolved *inside* the worker after a fresh import, so nothing
   about the parent's state needs to survive pickling — workers are
   always spawned (fork-safety of numpy's threadpools is not worth
   trusting), and payloads must contain only picklable values (ints,
   strings, tuples, frozen config dataclasses). Picklability is validated
   when the cell is *built*, in the parent, so a bad payload fails with
   the offending key named instead of an opaque traceback from inside the
   pool.
3. **Serial fallback.** ``jobs=None``/``0``/``1`` executes the cells in
   the calling process with no pool, no context, no pickling.

:func:`run_cells` is the one way grid cells run: always supervised, so a
failed cell comes back as a :class:`~repro.parallel.supervisor.CellFailure`
in its result slot instead of aborting its neighbours, checkpointed when
given a journal, and the seam where live telemetry and cross-process
tracing attach. The supervision loops themselves (retry, worker-death
quarantine, timeouts, deadline) live in :mod:`repro.parallel.supervisor`.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import time
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs import telemetry
from repro.obs import tracing as obs
from repro.obs.gridtrace import cell_label, run_cell_traced, stitch_cell_traces

if TYPE_CHECKING:  # supervisor imports this module; no runtime cycle
    from repro.parallel.journal import CheckpointJournal
    from repro.parallel.supervisor import GridOutcome, GridPolicy

__all__ = [
    "CellExecutionError",
    "GridCell",
    "execute_cell",
    "fingerprint_cell",
    "fingerprint_payload",
    "resolve_jobs",
    "run_cells",
]

# Workers only ever resolve tasks inside the package itself: a cell that
# named an arbitrary module would turn pickled payloads into an import
# gadget, and there is no legitimate grid work outside the repro tree.
_ALLOWED_PREFIX = "repro."


class CellExecutionError(RuntimeError):
    """A grid cell's worker function raised.

    The message names the cell's task and content fingerprint so a
    failure deep inside a pooled run can be mapped back to the exact
    cell (and its checkpoint-journal entry) that produced it; the
    original exception rides along as ``__cause__``.
    """


@dataclass(frozen=True)
class GridCell:
    """One unit of grid work.

    Attributes:
        task: worker entry point as ``"module:function"``; the module must
            live inside the ``repro`` package.
        payload: keyword arguments for the entry point. Must be picklable
            and must carry every seed the cell needs — workers receive no
            other source of randomness.
    """

    task: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        module, _, function = self.task.partition(":")
        if not function or not module.startswith(_ALLOWED_PREFIX):
            raise ValueError(
                f"task must be 'repro.<module>:<function>', got {self.task!r}"
            )
        try:
            pickle.dumps(self.payload)
        except Exception:
            # Find and name the offending key: "payload isn't picklable"
            # without a key name still means a debugging session.
            for key, value in self.payload.items():
                try:
                    pickle.dumps(value)
                except Exception as error:
                    raise ValueError(
                        f"payload key {key!r} of cell {self.task} is not "
                        f"picklable ({type(value).__name__}): {error}"
                    ) from error
            raise ValueError(
                f"payload of cell {self.task} is not picklable"
            ) from None


def _canonical(value: object) -> str:
    """Deterministic, content-based rendering for fingerprinting.

    Dict entries are sorted so two payloads with the same items in
    different insertion order fingerprint identically; dataclasses render
    by qualified type name and field values, so frozen config objects
    participate by content.
    """
    if isinstance(value, dict):
        entries = sorted(
            (_canonical(key), _canonical(item)) for key, item in value.items()
        )
        return "{" + ",".join(f"{key}:{item}" for key, item in entries) + "}"
    if isinstance(value, (list, tuple)):
        open_, close = ("[", "]") if isinstance(value, list) else ("(", ")")
        return open_ + ",".join(_canonical(item) for item in value) + close
    if is_dataclass(value) and not isinstance(value, type):
        parts = ",".join(
            f"{spec.name}={_canonical(getattr(value, spec.name))}"
            for spec in fields(value)
        )
        return f"{type(value).__qualname__}({parts})"
    return repr(value)


def fingerprint_payload(task: str, payload: dict) -> str:
    """Content fingerprint of an arbitrary ``(task, payload)`` pair.

    The journal's fingerprint scheme, exposed for other content-addressed
    caches (the translation service keys compiled mappings with it):
    deterministic canonical rendering of the whole payload, SHA-256 hex
    digest.
    """
    digest = hashlib.sha256()
    digest.update(task.encode())
    digest.update(b"\x00")
    digest.update(_canonical(payload).encode())
    return digest.hexdigest()


def fingerprint_cell(cell: GridCell) -> str:
    """Content fingerprint of ``(task, payload)``.

    Two cells fingerprint identically exactly when they would compute the
    same result (cells are pure functions of their payloads), which is
    what lets the checkpoint journal key completed work by fingerprint
    and lets ``--resume`` skip finished cells across process lifetimes.
    """
    return fingerprint_payload(cell.task, cell.payload)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value.

    ``None``/``0``/``1`` mean serial, ``-1`` means all CPUs, positive
    values pass through up to the host's capacity. Other negatives are
    rejected — the CLI layer already refuses them, and silently treating
    ``-8`` as "all CPUs" hid typos.

    Requests beyond ``cpu_count`` are clamped (with a logged warning)
    rather than honoured: every worker is CPU-bound for its whole cell,
    so oversubscribing spawn pools only adds context-switch thrash and
    per-worker spawn cost.  The clamp floor is 2, never 1 — on a
    single-CPU host an explicit multi-job request still gets a (small)
    pool, because under supervision the pool is an isolation boundary,
    not just a speedup (a cell that kills its process must not kill the
    run).  ``-1`` asks for "what the host has", so on one CPU it
    resolves to serial with no warning.
    """
    if jobs is None or jobs == 0:
        return 1
    cpus = max(os.cpu_count() or 1, 1)
    if jobs == -1:
        return cpus
    if jobs < 0:
        raise ValueError(
            f"jobs must be positive, -1 (all CPUs) or None/0 (serial); got {jobs}"
        )
    limit = max(2, cpus)
    if jobs > limit:
        logging.getLogger("repro.parallel").warning(
            "clamping --jobs %d to %d (host has %d CPU%s)",
            jobs,
            limit,
            cpus,
            "" if cpus == 1 else "s",
        )
        return limit
    return jobs


def execute_cell(
    cell: GridCell,
    trace_label: str | None = None,
    stream: str | Path | None = None,
):
    """Run one cell in the current process (the worker entry point).

    Errors raised while *resolving* the task (bad module, missing
    function) propagate unchanged; errors raised by the worker function
    itself are wrapped in :class:`CellExecutionError` naming the cell's
    task and fingerprint, with the original exception as ``__cause__``.

    The task always receives ``cell.payload`` unchanged. The other two
    arguments carry the caller's observability context, and only
    :func:`run_cells` sets them: with a ``trace_label`` the cell runs
    under its own tracer in a ``cell:<label>`` root span and the call
    returns ``(value, spans, metrics)`` for the parent to stitch; with a
    ``stream`` path the cell runs under a worker-side telemetry bus on
    that file, so per-phase and per-trial events emitted inside the cell
    land in the stream the parent appends to.
    """
    module_name, _, function_name = cell.task.partition(":")
    function = getattr(import_module(module_name), function_name)
    streaming = (
        nullcontext()
        if stream is None
        else telemetry.activate_bus(telemetry.TelemetryBus(stream, source="worker"))
    )
    try:
        with streaming:
            if trace_label is None:
                return function(**cell.payload)
            return run_cell_traced(function, cell.payload, trace_label)
    except Exception as error:
        raise CellExecutionError(
            f"grid cell {cell.task} (fingerprint {fingerprint_cell(cell)[:12]}) "
            f"failed: {type(error).__name__}: {error}"
        ) from error


def run_cells(
    cells: Sequence[GridCell],
    jobs: int | None = None,
    policy: GridPolicy | None = None,
    journal: CheckpointJournal | str | Path | None = None,
) -> GridOutcome:
    """Execute ``cells`` under supervision and return a :class:`GridOutcome`.

    ``jobs`` <= 1 (the default) runs the cells in-process; larger values
    run them one cell per task on a warmed pool leased from the
    :class:`~repro.parallel.pool.PoolManager`, even a single pending cell,
    because the pool is an isolation boundary (a cell that kills its
    process must not kill the run). Results reassemble in submission
    order, so artefacts are bit-identical across ``jobs``.

    Never raises for a cell error, a dead worker or an expired deadline:
    a failed cell's slot holds its ``CellFailure`` (a cell error's
    ``detail`` is the :class:`CellExecutionError` message), and
    :meth:`GridOutcome.require` raises for callers that want an
    exception. ``policy`` (None = :class:`GridPolicy` defaults) sets
    retries, timeouts and the run deadline. With a ``journal``, completed
    cells are checkpointed as they finish and journalled cells are not
    re-executed.

    Under an active telemetry bus the grid streams one ``grid-start``
    event and one ``cell`` event per cell, and each cell gets the stream's
    path so workers append to it too. Under an active tracer each cell
    gets its label, returns its spans with its value, and the spans are
    stitched under a ``grid:<experiment>`` span in submission order,
    journal hits as ``cached`` spans and failures as ``failed`` ones.
    Cells are dispatched exactly as given, so a ``CellFailure.cell`` can
    be re-run with :func:`execute_cell`.
    """
    from repro.parallel.journal import CheckpointJournal
    from repro.parallel.supervisor import GridOutcome, GridPolicy, _run_pooled, _run_serial

    policy = policy if policy is not None else GridPolicy()
    if journal is not None and not isinstance(journal, CheckpointJournal):
        journal = CheckpointJournal(journal)
    cells = list(cells)
    # The grid's label in its announcement and span: the task's module.
    experiment = cells[0].task.partition(":")[0].rsplit(".", 1)[-1] if cells else ""
    fingerprints = [fingerprint_cell(cell) for cell in cells]
    results: list = [None] * len(cells)
    failures: dict = {}
    events: list = []
    pending: list[int] = []
    resumed: list[int] = []
    for index, fingerprint in enumerate(fingerprints):
        if journal is not None:
            hit, value = journal.lookup(fingerprint)
            if hit:
                results[index] = value
                resumed.append(index)
                continue
        pending.append(index)
    if resumed:
        obs.inc("grid.cells_resumed", len(resumed))

    # Live progress reporting. Everything below is guarded on the bus
    # being active: telemetry off costs one global load + is-None test
    # per settled cell, nothing else — the same discipline the tracing
    # hooks pin. The tallies feed the heartbeat stream only; they are
    # never consulted by the supervision logic itself.
    grid_started = time.monotonic()
    progress = {"done": 0, "failed": 0, "cached": 0}

    def report(index: int, status: str) -> None:
        if telemetry.current_bus() is None:
            return
        progress["done"] += 1
        if status in ("failed", "cached"):
            progress[status] += 1
        telemetry.emit(
            "cell",
            cell=cell_label(cells[index].payload, index),
            status=status,
            done=progress["done"],
            total=len(cells),
            failed=progress["failed"],
            cached=progress["cached"],
            eta_s=telemetry.estimate_eta_s(
                time.monotonic() - grid_started, progress["done"], len(cells)
            ),
        )

    tracer = obs.current_tracer()
    bus = telemetry.current_bus()
    stream = bus.path if bus is not None else None
    calls = [
        (cell, None if tracer is None else cell_label(cell.payload, index), stream)
        for index, cell in enumerate(cells)
    ]
    if bus is not None and cells:
        telemetry.emit(
            "grid-start", experiment=experiment, total=len(cells),
            resumed=len(resumed),
        )
        for index in resumed:
            report(index, "cached")

    traces: dict[int, tuple] = {}

    def checkpoint(index: int, value: object) -> None:
        if tracer is not None:
            value, spans, metrics = value
            traces[index] = (spans, metrics)
        results[index] = value
        if journal is not None:
            journal.record(fingerprints[index], cells[index].task, value)

    def execute() -> None:
        if pending:
            requested = resolve_jobs(jobs)
            runner = _run_pooled if requested > 1 else _run_serial
            runner(
                calls, fingerprints, pending, min(requested, len(pending)),
                policy, checkpoint, failures, events, report,
            )
        for index, failure in failures.items():
            results[index] = failure

    if tracer is None or not cells:
        execute()
    else:
        with tracer.span(f"grid:{experiment}") as grid_scope:
            execute()
            tally = stitch_cell_traces(
                tracer, grid_scope.record, cells, results, traces
            )
            grid_scope.set("cells", len(cells))
            grid_scope.set("cached", tally["cached"])
            grid_scope.set("failed", len(failures))
    return GridOutcome(
        results=results,
        failures=[failures[index] for index in sorted(failures)],
        events=events,
        resumed=len(resumed),
    )
