"""Trace determinism across execution modes, and resume/cached semantics.

The pinned contracts:

* the merged trace of a grid run is identical (spans, paths, statuses,
  simulated clocks, attributes, metric totals — everything but wall
  clock) whether the cells ran serially in-process or across worker
  processes;
* a ``--resume`` run over a complete journal re-executes nothing and
  marks every journal-supplied cell as a ``cached`` span;
* the per-phase measurement counters in the trace sum exactly to each
  run's ``DramDigResult.measurements`` (the accounting identity
  ``validate_trace`` re-derives).
"""

import repro.parallel.supervisor as supervisor
from repro.core.dramdig import DramDig
from repro.dram.presets import preset
from repro.evalsuite.table1 import render_table1, run_table1
from repro.machine.machine import SimulatedMachine
from repro.obs import tracing
from repro.obs.export import TraceFile
from repro.obs.summary import validate_trace

PANEL = ("No.1", "No.4")


def _traced_table1(jobs=None, journal=None):
    tracer = tracing.Tracer()
    with tracing.activate(tracer):
        verdicts = run_table1(
            seed=1, machines=PANEL, determinism_runs=2, jobs=jobs, journal=journal
        )
    return tracer, verdicts


def _structure(tracer):
    """Everything determinism pins: order, paths, statuses, sim clocks,
    attributes. Wall-clock durations and span ids are excluded (ids are
    allocation order, which both modes share anyway; wall time is noise)."""
    return [
        (
            span.path,
            span.name,
            span.status,
            span.sim_start_ns,
            span.sim_end_ns,
            tuple(sorted(span.attrs.items())),
        )
        for span in sorted(tracer.spans, key=lambda record: record.span_id)
    ]


class TestTraceDeterminism:
    def test_serial_and_parallel_traces_match(self):
        serial_tracer, serial_verdicts = _traced_table1(jobs=None)
        parallel_tracer, parallel_verdicts = _traced_table1(jobs=2)
        assert _structure(serial_tracer) == _structure(parallel_tracer)
        assert (
            serial_tracer.metrics.snapshot() == parallel_tracer.metrics.snapshot()
        )
        assert render_table1(serial_verdicts) == render_table1(parallel_verdicts)

    def test_traced_results_match_untraced(self):
        untraced = render_table1(
            run_table1(seed=1, machines=PANEL, determinism_runs=2)
        )
        tracer, verdicts = _traced_table1()
        assert render_table1(verdicts) == untraced

    def test_merged_trace_is_internally_consistent(self):
        tracer, _ = _traced_table1(jobs=2)
        trace = TraceFile(
            header={"format": "dramdig-trace", "version": 1},
            spans=tracer.spans,
            metrics=tracer.metrics.snapshot(),
        )
        assert validate_trace(trace) == []
        # one grid span + one span subtree per executed cell
        roots = [span for span in tracer.spans if span.parent_id is None]
        assert [root.name for root in roots] == ["grid:table1"]
        cell_spans = [
            span for span in tracer.spans if span.name.startswith("cell:")
        ]
        assert len(cell_spans) == 6  # 3 tools x 2 machines
        assert all(span.status == "ok" for span in cell_spans)


class TestResumeTracing:
    def test_resumed_cells_are_cached_spans_with_zero_reexecution(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / "journal.jsonl"
        cold = render_table1(
            run_table1(seed=1, machines=PANEL, determinism_runs=2, journal=journal)
        )

        executed = []
        real = supervisor.execute_cell

        def counting(cell, *context):
            executed.append(cell.task)
            return real(cell, *context)

        monkeypatch.setattr(supervisor, "execute_cell", counting)
        tracer, verdicts = _traced_table1(journal=journal)
        assert executed == []
        assert render_table1(verdicts) == cold

        cell_spans = [
            span for span in tracer.spans if span.name.startswith("cell:")
        ]
        assert len(cell_spans) == 6
        assert all(span.status == "cached" for span in cell_spans)
        # cached cells contribute no children and no measurements
        cached_ids = {span.span_id for span in cell_spans}
        assert not any(
            span.parent_id in cached_ids for span in tracer.spans
        )
        assert tracer.metrics.counters["grid.cells_resumed"] == 6
        assert "probe.pair_measurements" not in tracer.metrics.counters

    def test_journal_fingerprints_shared_between_traced_and_untraced(
        self, tmp_path, monkeypatch
    ):
        """A journal written by a traced run replays untraced with nothing
        re-executed: the trace context reaches a cell as ``execute_cell``
        arguments, never in its fingerprinted payload."""
        journal = tmp_path / "journal.jsonl"
        tracer, _ = _traced_table1(journal=journal)
        assert any(s.status == "ok" for s in tracer.spans)

        executed = []
        real = supervisor.execute_cell

        def counting(cell, *context):
            executed.append(cell.task)
            return real(cell, *context)

        monkeypatch.setattr(supervisor, "execute_cell", counting)
        run_table1(seed=1, machines=PANEL, determinism_runs=2, journal=journal)
        assert executed == []


class TestMeasurementAccounting:
    def test_phase_counters_sum_to_result_measurements(self):
        tracer = tracing.Tracer()
        machine = SimulatedMachine.from_preset(preset("No.1"), seed=1)
        with tracing.activate(tracer):
            result = DramDig().run(machine)

        root = next(span for span in tracer.spans if span.name == "dramdig")
        assert root.attrs["measurements"] == result.measurements

        phases = [
            span
            for span in tracer.spans
            if span.path.count("/") == 2  # dramdig/attempt-N/<phase>
        ]
        assert {span.name for span in phases} == {
            "allocate", "calibrate", "coarse", "select",
            "partition", "functions", "fine",
        }
        assert (
            sum(span.attrs["measurements"] for span in phases)
            == result.measurements
        )
        # the probe's own counter agrees with the machine's accounting
        assert (
            tracer.metrics.counters["probe.pair_measurements"]
            == result.measurements
        )
