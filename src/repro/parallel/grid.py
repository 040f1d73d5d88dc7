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
   the calling process with no pool, no context, no pickling — the
   pre-existing behaviour and cost profile, byte for byte.

``run_cells`` here is the fail-fast path: the first cell error aborts the
run. The supervised, checkpointed runner that survives worker death and
resumes interrupted runs lives in :mod:`repro.parallel.supervisor`.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from importlib import import_module

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
    deterministic canonical rendering, harness keys (leading ``_``)
    excluded, SHA-256 hex digest.
    """
    digest = hashlib.sha256()
    digest.update(task.encode())
    digest.update(b"\x00")
    visible = {
        key: value
        for key, value in payload.items()
        if not (isinstance(key, str) and key.startswith("_"))
    }
    digest.update(_canonical(visible).encode())
    return digest.hexdigest()


def fingerprint_cell(cell: GridCell) -> str:
    """Content fingerprint of ``(task, payload)``.

    Two cells fingerprint identically exactly when they would compute the
    same result (cells are pure functions of their payloads), which is
    what lets the checkpoint journal key completed work by fingerprint
    and lets ``--resume`` skip finished cells across process lifetimes.

    Payload keys starting with ``_`` are *reserved for the harness*
    (per-cell trace destinations injected by
    :mod:`repro.obs.gridtrace`) and excluded: they never reach the
    worker function, so they cannot change the result — a traced run
    and an untraced run share journal entries.
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


def execute_cell(cell: GridCell):
    """Run one cell in the current process (the worker entry point).

    Errors raised while *resolving* the task (bad module, missing
    function) propagate unchanged; errors raised by the worker function
    itself are wrapped in :class:`CellExecutionError` naming the cell's
    task and fingerprint, with the original exception as ``__cause__``.

    Reserved ``_``-prefixed payload keys are stripped before the worker
    function is called; when :mod:`repro.obs.gridtrace` injected a trace
    destination, the cell runs under its own tracer and writes a per-cell
    span file for the parent to stitch. When :mod:`repro.obs.telemetry`
    injected a stream path, the cell runs with a worker-side telemetry
    bus active, so per-phase and per-trial events emitted inside the
    cell land in the same live stream the parent appends to.
    """
    module_name, _, function_name = cell.task.partition(":")
    function = getattr(import_module(module_name), function_name)
    payload = cell.payload
    kwargs = payload
    reserved = None
    if any(isinstance(key, str) and key.startswith("_") for key in payload):
        kwargs, reserved = {}, {}
        for key, value in payload.items():
            (reserved if key.startswith("_") else kwargs)[key] = value

    def invoke():
        if reserved and "_trace_dir" in reserved:
            from repro.obs.gridtrace import run_cell_traced

            return run_cell_traced(function, kwargs, reserved)
        return function(**kwargs)

    try:
        if reserved and "_telemetry_path" in reserved:
            from repro.obs.telemetry import TelemetryBus, activate_bus

            with activate_bus(
                TelemetryBus(reserved["_telemetry_path"], source="worker")
            ):
                return invoke()
        return invoke()
    except Exception as error:
        raise CellExecutionError(
            f"grid cell {cell.task} (fingerprint {fingerprint_cell(cell)[:12]}) "
            f"failed: {type(error).__name__}: {error}"
        ) from error


def run_cells(cells: Sequence[GridCell], jobs: int | None = None) -> list:
    """Execute ``cells`` and return their results in submission order.

    ``jobs`` <= 1 (the default) runs serially in-process. Larger values fan
    the cells out, one cell per task, over a warmed worker pool leased from
    the process-wide :class:`~repro.parallel.pool.PoolManager` and parked
    again afterwards for the next dispatch of the same size;
    ``Executor.map`` guarantees result order matches cell order regardless
    of completion order, which is what keeps rendered artefacts
    bit-identical to the serial path.

    This is the fail-fast runner: the first cell exception (in submission
    order) propagates and aborts the run. Use
    :func:`repro.parallel.run_cells_supervised` when a run must survive
    worker death, hangs, or interruption.
    """
    from repro.parallel.pool import get_pool_manager

    cells = list(cells)
    workers = min(resolve_jobs(jobs), len(cells)) if cells else 1
    if workers <= 1:
        return [execute_cell(cell) for cell in cells]
    manager = get_pool_manager()
    pool = manager.lease(workers)
    healthy = True
    try:
        return list(pool.map(execute_cell, cells))
    except CellExecutionError:
        raise  # the worker raised cleanly; its pool is still usable
    except Exception:
        # Anything else (a broken pool above all) may have left workers
        # unusable; kill the pool rather than park a corpse.
        healthy = False
        raise
    finally:
        if healthy:
            manager.release(pool, workers)
        else:
            manager.discard(pool)
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - broken mid-shutdown
                pass
