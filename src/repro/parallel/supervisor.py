"""Supervision loops of the grid engine: failed cells degrade, never abort.

:func:`repro.parallel.grid.run_cells` runs every grid through the
private loops here (:func:`_run_serial` in-process, :func:`_run_pooled`
on a warmed pool) and owns the journal, telemetry and tracing around
them. What the loops guarantee:

* **per-cell futures** instead of ``pool.map``, so one cell's fate never
  decides its neighbours';
* **worker-death detection** — a worker killed by the OS (OOM, segfault,
  ``kill -9``) breaks the pool; the supervisor harvests every result that
  completed before the death, respawns the pool, and resubmits the
  survivors. ``BrokenProcessPool`` never reaches the caller;
* **per-cell timeout and whole-run deadline** — a hung worker cannot be
  killed individually through ``ProcessPoolExecutor``, so a timeout
  tears the pool down, refunds the attempt of every *innocent* in-flight
  cell, and charges only the hung one;
* **per-cell retry with exponential backoff**, reusing the
  :class:`~repro.faults.recovery.DegradationEvent` vocabulary from the
  timing pipeline's recovery stack so a salvaged sweep documents its
  scars the same way a salvaged run does.

Every completed cell is handed to a checkpoint callback, which records
it in the run's :class:`~repro.parallel.journal.CheckpointJournal` when
there is one. The result is a :class:`GridOutcome` carrying results
*and* failures: partial success is a first-class outcome, and the
evaluation renderers print ``FAILED(reason)`` cells plus a failure
manifest instead of crashing. Determinism is preserved because cells are
pure functions of their payloads and results reassemble in submission
order — a run (cold or resumed, serial or pooled) whose cells all
complete renders byte-identical artefacts.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.faults.recovery import DegradationEvent
from repro.obs import tracing as obs
from repro.obs.gridtrace import cell_label
from repro.parallel.grid import GridCell, execute_cell
from repro.parallel.pool import get_pool_manager

__all__ = [
    "CellFailure",
    "GridError",
    "GridOutcome",
    "GridPolicy",
]

# Supervisor poll interval: how often in-flight futures are checked for
# completion, start-of-execution, timeout and deadline expiry.
_TICK_SECONDS = 0.05

# Benign cell each fresh worker executes before real work is dispatched:
# it forces the worker to import the repro package, so per-cell timeouts
# measure cell execution rather than spawn + import cost.
_WARMUP_CELL = GridCell("repro.faults.gridfaults:echo_cell", {})
_WARMUP_TIMEOUT_SECONDS = 60.0


def _spawn_pool(workers: int) -> ProcessPoolExecutor:
    """Lease a pool and warm every worker (spawn + package import).

    Pools come from the process-wide
    :class:`~repro.parallel.pool.PoolManager`; a pool parked by an earlier
    dispatch is reused, its workers already spawned and imported, and the
    echo warmups below complete in microseconds.  Fresh workers pay the
    spawn here, once, so per-cell timeouts measure cell execution rather
    than spawn + import cost.
    """
    pool = get_pool_manager().lease(workers)
    warmups = [pool.submit(execute_cell, _WARMUP_CELL) for _ in range(workers)]
    for future in warmups:
        try:
            future.result(timeout=_WARMUP_TIMEOUT_SECONDS)
        except Exception:  # pragma: no cover - the real submit re-detects
            break
    return pool


class GridError(RuntimeError):
    """Raised by :meth:`GridOutcome.require` when any cell failed."""


@dataclass(frozen=True)
class GridPolicy:
    """Supervision knobs for one grid run.

    Attributes:
        cell_timeout_s: wall-clock seconds a cell may *execute* before it
            is declared hung and its pool is torn down (None = no limit).
            Enforced on pooled runs only — a serial run cannot pre-empt
            its own cell.
        run_deadline_s: wall-clock budget for the whole run; on expiry
            every unfinished cell fails with reason ``"run-deadline"``
            and whatever completed is returned as salvage.
        retries: extra attempts per cell after its first failure
            (error, worker death, or timeout).
        backoff_initial_s: real-time sleep before a cell's first retry.
        backoff_multiplier: backoff growth factor per further retry.
        backoff_max_s: backoff ceiling.
    """

    cell_timeout_s: float | None = None
    run_deadline_s: float | None = None
    retries: int = 0
    backoff_initial_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 2.0

    def __post_init__(self) -> None:
        # Each bound is written so that NaN fails it.
        if self.cell_timeout_s is not None and not self.cell_timeout_s > 0:
            raise ValueError("cell_timeout_s must be positive")
        if self.run_deadline_s is not None and not self.run_deadline_s > 0:
            raise ValueError("run_deadline_s must be positive")
        if not self.retries >= 0:
            raise ValueError("retries must be non-negative")
        if not self.backoff_initial_s >= 0:
            raise ValueError("backoff_initial_s must be non-negative")
        if not self.backoff_multiplier >= 1.0:
            raise ValueError("backoff_multiplier must be at least 1")
        if not self.backoff_max_s >= 0:
            raise ValueError("backoff_max_s must be non-negative")

    def backoff(self, failures: int) -> float:
        """Backoff before the retry that follows the ``failures``-th failure."""
        exponent = max(failures - 1, 0)
        return min(
            self.backoff_initial_s * self.backoff_multiplier**exponent,
            self.backoff_max_s,
        )


@dataclass(frozen=True)
class CellFailure:
    """One cell that exhausted its attempts (or its run's deadline).

    Attributes:
        index: the cell's position in the submitted sequence.
        cell: the cell itself (task + payload), for diagnosis and re-runs.
        fingerprint: content fingerprint (the checkpoint-journal key).
        reason: ``"error"``, ``"worker-death"``, ``"timeout"`` or
            ``"run-deadline"``.
        detail: stringified underlying error, when there was one.
        attempts: executions consumed before giving up.
    """

    index: int
    cell: GridCell
    fingerprint: str
    reason: str
    detail: str = ""
    attempts: int = 0

    @property
    def label(self) -> str:
        """Short display label: the payload's ``name`` when it has one."""
        return cell_label(self.cell.payload, self.index)

    def describe(self) -> str:
        """One-line rendering for failure manifests."""
        detail = f" — {self.detail}" if self.detail else ""
        return (
            f"{self.label}: {self.cell.task} FAILED({self.reason}) "
            f"after {self.attempts} attempt(s){detail}"
        )


@dataclass
class GridOutcome:
    """Everything a grid run produced.

    Attributes:
        results: per-cell results in submission order; a failed cell's
            slot holds its :class:`CellFailure` instead of a result.
        failures: the failed cells, in submission order.
        events: recovery actions taken (retries, pool respawns,
            timeouts), in occurrence order.
        resumed: cells restored from the checkpoint journal instead of
            executed.
    """

    results: list
    failures: list[CellFailure] = field(default_factory=list)
    events: list[DegradationEvent] = field(default_factory=list)
    resumed: int = 0

    @property
    def complete(self) -> bool:
        """True when every cell produced a result."""
        return not self.failures

    @property
    def degraded(self) -> bool:
        """True when any recovery machinery fired (even if all cells won)."""
        return bool(self.events) or bool(self.failures)

    def require(self) -> list:
        """Return results, raising :class:`GridError` if any cell failed."""
        if self.failures:
            manifest = "; ".join(failure.describe() for failure in self.failures)
            raise GridError(
                f"{len(self.failures)} grid cell(s) failed: {manifest}"
            )
        return self.results


def _failure(
    calls, fingerprints, index, reason, detail, attempts
) -> CellFailure:
    return CellFailure(
        index=index,
        cell=calls[index][0],
        fingerprint=fingerprints[index],
        reason=reason,
        detail=detail,
        attempts=attempts,
    )


def _run_serial(
    calls, fingerprints, pending, workers, policy, checkpoint, failures,
    events, report,
) -> None:
    """In-process supervised execution (no pool, no pickling).

    ``calls`` holds each cell's :func:`execute_cell` arguments, cell
    first. Cell timeouts cannot be enforced here — a process cannot
    pre-empt its own synchronous call — but per-cell retry, backoff and
    the whole-run deadline all apply.
    """
    deadline = (
        time.monotonic() + policy.run_deadline_s
        if policy.run_deadline_s is not None
        else None
    )
    for index in pending:
        if deadline is not None and time.monotonic() > deadline:
            failures[index] = _failure(
                calls, fingerprints, index, "run-deadline",
                "run deadline expired before the cell started", 0,
            )
            report(index, "failed")
            continue
        attempts = 0
        while True:
            attempts += 1
            try:
                value = execute_cell(*calls[index])
            except Exception as error:  # noqa: BLE001 - supervision boundary
                out_of_time = deadline is not None and time.monotonic() > deadline
                if attempts <= policy.retries and not out_of_time:
                    backoff = policy.backoff(attempts)
                    events.append(
                        obs.note_event(
                            DegradationEvent(
                                step="grid",
                                action="retry",
                                attempt=attempts,
                                detail=str(error),
                                backoff_s=backoff,
                                span=obs.current_path(),
                            )
                        )
                    )
                    time.sleep(backoff)
                    continue
                failures[index] = _failure(
                    calls, fingerprints, index, "error", str(error), attempts
                )
                report(index, "failed")
                break
            checkpoint(index, value)
            obs.observe("grid.cell_attempts", attempts)
            report(index, "ok")
            break


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard, including hung or wedged workers.

    ``shutdown`` alone never kills a worker stuck in a cell, so the
    worker processes are terminated directly first (via the executor's
    process table — a private attribute, accessed defensively).  The
    pool is dropped from the manager's lease table: a killed pool must
    never be parked for reuse.
    """
    get_pool_manager().discard(pool)
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken executors mid-shutdown
        pass


def _run_pooled(
    calls, fingerprints, pending, workers, policy, checkpoint, failures,
    events, report,
) -> None:
    """Pooled supervised execution with respawn-on-death and timeouts.

    ``calls`` holds each cell's :func:`execute_cell` arguments, cell
    first; every attempt submits them unchanged.

    Worker death is handled with **quarantine attribution**: the executor
    cannot say which in-flight cell crashed the dead worker, so nobody is
    charged at crash time — every in-flight cell becomes a *suspect* and
    is re-run solo (one cell in an otherwise empty pool). A solo crash is
    then a definitive attribution (charged against the cell's retry
    budget); a solo success clears the suspect. This costs a brief
    serialization after each crash but guarantees one poison cell cannot
    burn its innocent neighbours' retry budgets — with ``retries=0`` the
    poison cell alone fails and every other cell still completes.
    """
    deadline = (
        time.monotonic() + policy.run_deadline_s
        if policy.run_deadline_s is not None
        else None
    )
    attempts: dict[int, int] = {index: 0 for index in pending}
    to_submit: list[int] = list(pending)
    waiting: dict[int, float] = {}  # index -> monotonic time it may resubmit
    quarantine: list[int] = []  # suspects re-run solo for crash attribution
    solo_index: int | None = None  # quarantined cell currently in flight
    inflight: dict = {}  # future -> index
    started: dict = {}  # future -> monotonic time first observed running
    abandoned = False  # a still-running future was walked away from
    pool = _spawn_pool(workers)

    def fail(index: int, reason: str, detail: str) -> None:
        failures[index] = _failure(
            calls, fingerprints, index, reason, detail, attempts[index]
        )
        report(index, "failed")

    def retry_or_fail(index: int, reason: str, detail: str) -> None:
        out_of_time = deadline is not None and time.monotonic() > deadline
        if attempts[index] <= policy.retries and not out_of_time:
            backoff = policy.backoff(attempts[index])
            events.append(
                obs.note_event(
                    DegradationEvent(
                        step="grid",
                        action="retry",
                        attempt=attempts[index],
                        detail=f"{reason}: {detail}" if detail else reason,
                        backoff_s=backoff,
                        span=obs.current_path(),
                    )
                )
            )
            waiting[index] = time.monotonic() + backoff
        else:
            fail(index, reason, detail)

    def respawn(cause: str) -> None:
        nonlocal pool
        _kill_pool(pool)
        pool = _spawn_pool(workers)
        events.append(
            obs.note_event(
                DegradationEvent(
                    step="grid",
                    action="respawn",
                    detail=cause,
                    span=obs.current_path(),
                )
            )
        )

    def harvest_or_crash(future, crashed: list[int]) -> None:
        """Resolve one finished future: result, cell error, or casualty."""
        nonlocal solo_index
        index = inflight.pop(future)
        started.pop(future, None)
        if index == solo_index:
            solo_index = None
        try:
            value = future.result(timeout=0)
        except (BrokenProcessPool, CancelledError):
            crashed.append(index)
        except Exception as error:  # noqa: BLE001 - supervision boundary
            retry_or_fail(index, "error", str(error))
        else:
            checkpoint(index, value)
            obs.observe("grid.cell_attempts", attempts[index])
            report(index, "ok")

    def submit(index: int) -> bool:
        """Submit one cell; respawn and report False on a dead pool."""
        attempts[index] += 1
        try:
            inflight[pool.submit(execute_cell, *calls[index])] = index
        except BrokenProcessPool:
            attempts[index] -= 1
            respawn("pool broken at submission")
            return False
        return True

    try:
        while to_submit or inflight or waiting or quarantine:
            now = time.monotonic()

            if deadline is not None and now > deadline:
                for index in to_submit + quarantine + list(waiting):
                    fail(index, "run-deadline", "run deadline expired")
                late_crashes: list[int] = []
                for future, index in list(inflight.items()):
                    if future.done():
                        harvest_or_crash(future, late_crashes)
                    else:
                        inflight.pop(future)
                        started.pop(future, None)
                        abandoned = True  # its worker is still running
                        fail(index, "run-deadline", "run deadline expired")
                for index in late_crashes:
                    fail(index, "run-deadline", "worker died at run deadline")
                to_submit.clear()
                waiting.clear()
                quarantine.clear()
                break

            for index, eligible_at in list(waiting.items()):
                if now >= eligible_at:
                    del waiting[index]
                    to_submit.append(index)

            # Submission: quarantine runs solo (and blocks normal work so
            # a crash is attributable); otherwise fan out everything ready.
            if quarantine:
                if not inflight:
                    index = quarantine.pop(0)
                    if submit(index):
                        solo_index = index
                    else:
                        quarantine.insert(0, index)
            else:
                while to_submit:
                    index = to_submit.pop(0)
                    if not submit(index):
                        to_submit.insert(0, index)
                        break

            if not inflight:
                if waiting:
                    time.sleep(
                        min(
                            max(min(waiting.values()) - time.monotonic(), 0.0),
                            _TICK_SECONDS,
                        )
                    )
                continue

            done, _ = wait(
                set(inflight), timeout=_TICK_SECONDS, return_when=FIRST_COMPLETED
            )

            was_solo = solo_index
            crashed: list[int] = []
            for future in done:
                harvest_or_crash(future, crashed)

            if crashed:
                # A worker died. Give the executor a moment to settle the
                # remaining futures and harvest whatever completed before
                # the death; everything else is a casualty of the crash.
                if inflight:
                    wait(set(inflight), timeout=1.0)
                for future in list(inflight):
                    if future.done():
                        harvest_or_crash(future, crashed)
                    else:
                        index = inflight.pop(future)
                        started.pop(future, None)
                        if index == solo_index:
                            solo_index = None
                        crashed.append(index)
                respawn("worker death (BrokenProcessPool)")
                if crashed == [was_solo]:
                    # The suspect crashed alone in the pool: definitive
                    # attribution, charged against its retry budget.
                    retry_or_fail(
                        was_solo, "worker-death", "worker process died mid-cell"
                    )
                else:
                    # Ambiguous: the dead worker was running *one* of these
                    # cells, but the executor cannot say which. Refund the
                    # attempt and quarantine them all for solo re-runs.
                    for index in crashed:
                        attempts[index] -= 1
                        quarantine.append(index)
                    quarantine.sort()
                continue

            # Track execution starts and enforce the per-cell timeout. A
            # hung worker can only be killed by tearing the pool down, so
            # on expiry the innocents in flight are refunded their attempt
            # and resubmitted while the hung cell is charged.
            now = time.monotonic()
            for future in list(inflight):
                if future not in started and future.running():
                    started[future] = now
            if policy.cell_timeout_s is not None:
                hung = [
                    future
                    for future, began in started.items()
                    if future in inflight
                    and now - began > policy.cell_timeout_s
                ]
                if hung:
                    hung_indices = [inflight.pop(future) for future in hung]
                    for future in hung:
                        started.pop(future, None)
                    innocents: list[int] = []
                    for future, index in list(inflight.items()):
                        if future.done():
                            harvest_or_crash(future, crashed=[])
                        else:
                            inflight.pop(future)
                            started.pop(future, None)
                            attempts[index] -= 1  # refund: not their fault
                            innocents.append(index)
                    respawn(
                        "cell timeout: "
                        + ", ".join(calls[i][0].task for i in hung_indices)
                    )
                    for index in hung_indices:
                        events.append(
                            obs.note_event(
                                DegradationEvent(
                                    step="grid",
                                    action="timeout",
                                    attempt=attempts[index],
                                    detail=(
                                        f"{calls[index][0].task} exceeded "
                                        f"{policy.cell_timeout_s:g}s"
                                    ),
                                    span=obs.current_path(),
                                )
                            )
                        )
                        retry_or_fail(
                            index,
                            "timeout",
                            f"exceeded cell timeout of {policy.cell_timeout_s:g}s",
                        )
                    to_submit.extend(innocents)
    finally:
        # A pool is only parkable when it is provably idle and healthy:
        # the loop drained everything (no abandoned futures — the
        # deadline path walks away from still-running workers) and the
        # executor is not broken. Anything else is killed, not parked.
        if abandoned or inflight or getattr(pool, "_broken", False):
            _kill_pool(pool)
        else:
            get_pool_manager().release(pool, workers)
