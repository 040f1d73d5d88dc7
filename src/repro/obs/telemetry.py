"""Live telemetry: an append-only JSONL event stream for in-flight runs.

PR 4's tracing answers *what happened* after a run finishes; the
telemetry bus answers *what is happening now*. While a grid, fleet wave
or rowhammer campaign is in flight, the supervisor and its worker
processes append one JSON object per event — cell completions with
done/failed/cached tallies and an ETA, wave folds, campaign trial
yields, pipeline phase completions — to a single stream file. Appends go
through :func:`repro.ioutil.atomic_append` (one ``O_APPEND`` write per
line), so lines from concurrently finishing workers never shear each
other and a tail reader only ever sees whole events. ``dramdig obs
tail`` renders the stream live; the determinism tests compare streams
through :func:`canonical_events`.

Activation model — the same process-wide one-global discipline
:mod:`repro.obs.tracing` pinned:

* :func:`activate_bus` installs a :class:`TelemetryBus` for a dynamic
  extent (the CLI does this when ``--telemetry PATH`` is given);
* :func:`emit` is the module-level hook instrumented code calls; with no
  active bus it is one global load plus an ``is None`` test — no dict,
  no JSON, no I/O. Telemetry off must cost nothing, because the hooks
  sit inside the supervisor's per-cell settle loop and the campaign's
  per-trial path;
* grid workers get the stream path as an argument of
  :func:`~repro.parallel.grid.execute_cell`, never in the cell's
  payload, so journal fingerprints do not see it — a run with telemetry
  on resumes a journal written with it off, and vice versa.

Event schema: every event carries ``kind`` plus bookkeeping fields
(``seq`` per-process counter, ``wall`` epoch seconds, ``pid``,
``source``). The bookkeeping fields are inherently nondeterministic and
are stripped by :func:`canonical_events`, as are the derived progress
fields (``eta_s``, ``wall_s``, ``done`` — completion *order* differs
between ``--jobs 1`` and ``--jobs N`` even though the completion *set*
does not).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro.ioutil import atomic_append, read_records

__all__ = [
    "TelemetryBus",
    "VOLATILE_FIELDS",
    "activate_bus",
    "canonical_events",
    "current_bus",
    "emit",
    "estimate_eta_s",
    "load_events",
    "render_event",
]

# Fields stripped before determinism comparisons. ``wall``/``pid``/
# ``seq``/``source`` are bookkeeping; ``wall_s``/``eta_s`` are derived
# from wall time; ``done``/``failed``/``cached`` are running progress
# tallies whose value at any given event depends on worker completion
# order even when the completion *set* is identical.
VOLATILE_FIELDS = frozenset(
    {"seq", "wall", "pid", "source", "wall_s", "eta_s", "done", "failed", "cached"}
)


class TelemetryBus:
    """Appends events to one JSONL stream file.

    A bus is cheap to construct and holds no file handle between events:
    each :meth:`emit` opens, appends one line, and closes. That is what
    makes the stream safe to share between the parent and any number of
    worker processes — there is no buffered state to lose on SIGKILL,
    and every line that reached the file is complete.
    """

    def __init__(self, path: str | Path, source: str = "main") -> None:
        self.path = Path(path)
        self.source = source
        self._seq = 0

    def emit(self, kind: str, **fields) -> dict:
        """Append one event and return the record that was written."""
        self._seq += 1
        record = {
            "kind": kind,
            "seq": self._seq,
            "wall": time.time(),
            "pid": os.getpid(),
            "source": self.source,
        }
        record.update(fields)
        atomic_append(self.path, json.dumps(record, sort_keys=True))
        return record


# Process-wide activation state, mirroring tracing._ACTIVE: plain module
# global so the off-path cost of an emit() hook is one load + is-None.
_BUS: TelemetryBus | None = None


def current_bus() -> TelemetryBus | None:
    """The active bus, or None when telemetry is off."""
    return _BUS


@contextmanager
def activate_bus(bus: TelemetryBus):
    """Install ``bus`` as the process-wide telemetry sink for the extent."""
    global _BUS
    previous = _BUS
    _BUS = bus
    try:
        yield bus
    finally:
        _BUS = previous


def emit(kind: str, **fields) -> None:
    """Emit one event on the active bus (no-op when telemetry is off)."""
    bus = _BUS
    if bus is not None:
        bus.emit(kind, **fields)


def estimate_eta_s(elapsed_s: float, done: int, total: int) -> float | None:
    """Remaining wall seconds, assuming completed cells predict the rest.

    The estimate is a straight rate extrapolation: elapsed/done times
    the remaining count. It is deliberately naive — journal-cached cells
    settle near-instantly, so early ETAs on a resumed grid can be far
    off until enough *executed* cells have landed (documented in
    docs/observability.md).
    """
    if done <= 0 or total <= done:
        return 0.0 if total <= done else None
    return (elapsed_s / done) * (total - done)


def load_events(path: str | Path) -> list[dict]:
    """Parse a telemetry stream, dropping every line that is not an event.

    A reader racing the writers may catch a torn final line, or a
    sheared one where ``O_APPEND`` is not atomic. The stream is advisory:
    a missing heartbeat must never crash the monitor watching for
    missing heartbeats.
    """
    source = Path(path)
    if not source.exists():
        return []
    return [record for _, record in read_records(source) if "kind" in record]


def canonical_events(events: list[dict], fold_cached: bool = False) -> list[dict]:
    """Deterministic view of a stream for cross-run comparison.

    Strips the :data:`VOLATILE_FIELDS` and sorts the remainder, so two
    streams compare equal exactly when the same *set* of events was
    emitted — regardless of worker completion order, process ids or
    wall-clock timing. With ``fold_cached=True`` a ``cached`` cell
    status is rewritten to ``ok``: a journal-resumed run reports resumed
    cells as cached where a from-scratch run reports them as executed,
    and for stream-equivalence purposes both mean "this cell's result
    was delivered".
    """
    canonical = []
    for event in events:
        record = {
            key: value
            for key, value in event.items()
            if key not in VOLATILE_FIELDS
        }
        if fold_cached and record.get("status") == "cached":
            record["status"] = "ok"
        canonical.append(record)
    canonical.sort(key=lambda record: json.dumps(record, sort_keys=True))
    return canonical


def _clock(wall) -> str:
    """``HH:MM:SS`` of an event's wall stamp, or ``?`` when it is not one."""
    if isinstance(wall, (int, float)):
        try:
            return time.strftime("%H:%M:%S", time.localtime(wall))
        except (OverflowError, OSError, ValueError):  # beyond time_t, or NaN
            pass
    return "?"


def render_event(event: dict) -> str:
    """One human-readable line for ``dramdig obs tail``."""
    kind = event.get("kind", "?")
    clock = _clock(event.get("wall"))
    source = event.get("source", "?")
    if kind == "cell":
        done = event.get("done")
        total = event.get("total")
        eta = event.get("eta_s")
        eta_text = f" eta={eta:.1f}s" if isinstance(eta, (int, float)) else ""
        return (
            f"{clock} [{source}] cell {event.get('cell', '?')} "
            f"{event.get('status', '?')} ({done}/{total}"
            f" failed={event.get('failed', 0)}"
            f" cached={event.get('cached', 0)}){eta_text}"
        )
    if kind == "wave":
        return (
            f"{clock} [{source}] wave {event.get('wave', '?')}"
            f"/{event.get('waves', '?')} folded:"
            f" confirmed={event.get('confirmed', 0)}"
            f" fallback={event.get('fallback', 0)}"
            f" cold={event.get('cold', 0)}"
            f" failed={event.get('failed_machines', 0)}"
            f" store={event.get('store_entries', 0)}"
        )
    if kind == "trial":
        return (
            f"{clock} [{source}] trial {event.get('trial', '?')}"
            f" flips={event.get('flips', 0)}"
            f" tests={event.get('tests', 0)}"
        )
    if kind == "phase":
        sim_ns = event.get("sim_ns")
        sim = f" sim={sim_ns / 1e9:.2f}s" if isinstance(sim_ns, (int, float)) else ""
        return (
            f"{clock} [{source}] phase {event.get('phase', '?')}"
            f" measurements={event.get('measurements', 0)}{sim}"
        )
    detail = {
        key: value
        for key, value in sorted(event.items())
        if key not in ("kind", "seq", "wall", "pid", "source")
    }
    text = " ".join(f"{key}={value}" for key, value in detail.items())
    return f"{clock} [{source}] {kind}" + (f" {text}" if text else "")
