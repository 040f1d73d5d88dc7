"""Structured observability: tracing spans, metrics, trace export.

The DRAMDig paper's headline claims are *cost accounting* claims —
minutes-not-hours runtime, deterministic measurement counts per step —
and this package is what lets the reproduction verify them mechanically
instead of trusting one flat ``phase_seconds`` dict:

* :mod:`repro.obs.tracing` — hierarchical spans carrying both
  simulated-clock and wall-clock time, parented per pipeline step;
* :mod:`repro.obs.metrics` — a counters + histograms registry fed by the
  probe, the partitioner, the recovery stack and the grid supervisor;
* :mod:`repro.obs.export` — the JSONL trace format (written through
  :func:`repro.ioutil.atomic_write`, loadable for analysis);
* :mod:`repro.obs.gridtrace` — per-cell traces returned by grid cells
  with their values and stitched into one merged trace by the parent,
  including ``cached`` spans for journal-resumed cells;
* :mod:`repro.obs.summary` — the ``dramdig trace summary`` renderer
  (span-tree text flamegraph + metrics table) and consistency gate.

Tracing is **zero-cost when off**: with no active tracer the
instrumented hot paths pay one ``is None`` test, and the pipeline pays a
handful of name pushes per run for step-path bookkeeping (so
:class:`~repro.faults.recovery.DegradationEvent` can always say *where*
it fired). No span objects, attribute dicts or metric updates are
allocated until :func:`activate` installs a :class:`Tracer`.
"""

from repro.obs.telemetry import (
    TelemetryBus,
    activate_bus,
    current_bus,
    emit,
)
from repro.obs.tracing import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    activate,
    current_path,
    current_tracer,
    inc,
    note_event,
    observe,
    span,
)

__all__ = [
    "NULL_SPAN",
    "SpanRecord",
    "Tracer",
    "TelemetryBus",
    "activate",
    "activate_bus",
    "current_bus",
    "current_path",
    "current_tracer",
    "emit",
    "inc",
    "note_event",
    "observe",
    "span",
]
