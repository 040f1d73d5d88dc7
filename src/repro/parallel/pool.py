"""Persistent warmed worker pools shared across grid dispatches.

Spawning a worker process costs a fresh interpreter plus the whole
``repro`` import chain — tens to hundreds of milliseconds.  This module
pays that cost once per process rather than once per grid dispatch:

* :class:`PoolManager` keeps one warmed :class:`ProcessPoolExecutor`
  per worker count and leases it out to grid dispatches.  Releasing a
  leased pool parks it for the next dispatch instead of shutting it
  down; an interpreter-exit hook tears every parked pool down.
* Every worker runs :func:`warm_worker` at spawn, which pre-imports the
  heavy measurement modules so the first real cell pays no import tax —
  and per-cell timeouts measure the cell, not the spawn.

Workers are always started with ``spawn``: fork-safety of numpy's
thread pools is not worth trusting, and cells resolve their task by
name after a fresh import anyway.

Pools are an *isolation* resource as much as a speed one: the
supervisor must be able to kill a pool that holds a hung or crashed
worker.  A killed or broken pool is therefore **discarded**, never
parked — :meth:`PoolManager.discard` removes it from the lease table so
the next lease builds a fresh one.

Determinism is unaffected by reuse.  Cells are pure functions of their
payloads (every seed ships in the payload), so whether two cells run in
one long-lived worker or two fresh ones cannot change a single byte of
any result.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

__all__ = ["PoolManager", "get_pool_manager", "warm_worker"]

_START_METHOD = "spawn"

# Modules pre-imported by every warmed worker. The list is the import
# closure the evaluation cells actually touch; importing it here moves
# the cost out of the first cell's (timed) execution window.
_WARM_IMPORTS = (
    "repro.core.dramdig",
    "repro.baselines.drama",
    "repro.baselines.xiao",
    "repro.dram.presets",
    "repro.machine.machine",
)


def warm_worker() -> None:
    """Pool initializer: pre-import the measurement stack.

    Runs once per worker process at spawn time.  Import errors are not
    swallowed — a worker that cannot import the package is useless, and
    failing loudly at spawn beats failing obscurely inside a cell.
    """
    from importlib import import_module

    for name in _WARM_IMPORTS:
        import_module(name)


class PoolManager:
    """Registry of warmed process pools, one per worker count.

    ``lease`` hands out a parked pool when one of the right size exists
    and is healthy, else builds a fresh one; ``release`` parks it again.
    """

    def __init__(self) -> None:
        self._parked: dict[int, ProcessPoolExecutor] = {}
        self._leased: set[int] = set()

    # ------------------------------------------------------------- lifecycle

    def lease(self, workers: int) -> ProcessPoolExecutor:
        """A warmed pool of exactly ``workers`` workers, ready to submit to."""
        pool = self._parked.pop(workers, None)
        if pool is not None and _pool_broken(pool):
            _shutdown_pool(pool)
            pool = None
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=get_context(_START_METHOD),
                initializer=warm_worker,
            )
        self._leased.add(id(pool))
        return pool

    def release(self, pool: ProcessPoolExecutor, workers: int) -> None:
        """Return a leased pool and park it for the next lease.

        A broken pool must go through :meth:`discard` instead; release
        detects breakage (or a pool no longer on lease) defensively and
        shuts it down rather than parking a corpse for the next caller
        to trip over.
        """
        leased = id(pool) in self._leased
        self._leased.discard(id(pool))
        if not leased or _pool_broken(pool):
            _shutdown_pool(pool)
            return
        previous = self._parked.get(workers)
        if previous is not None and previous is not pool:
            _shutdown_pool(previous)
        self._parked[workers] = pool

    def discard(self, pool: ProcessPoolExecutor) -> None:
        """Forget a leased pool without parking it (caller kills it)."""
        self._leased.discard(id(pool))

    def shutdown_all(self) -> None:
        """Shut down every parked pool (interpreter exit / test teardown)."""
        for pool in list(self._parked.values()):
            _shutdown_pool(pool)
        self._parked.clear()
        self._leased.clear()

    # ------------------------------------------------------------ inspection

    @property
    def parked_count(self) -> int:
        """Number of idle pools currently parked."""
        return len(self._parked)


def _pool_broken(pool: ProcessPoolExecutor) -> bool:
    """Whether the executor has flagged itself unusable."""
    return bool(getattr(pool, "_broken", False))


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - already-broken executors
        pass


_MANAGER: PoolManager | None = None


def get_pool_manager() -> PoolManager:
    """The process-wide pool manager (created on first use)."""
    global _MANAGER
    if _MANAGER is None:
        _MANAGER = PoolManager()
        atexit.register(_MANAGER.shutdown_all)
    return _MANAGER
